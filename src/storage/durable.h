#ifndef IQLKIT_STORAGE_DURABLE_H_
#define IQLKIT_STORAGE_DURABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "base/result.h"
#include "model/instance.h"
#include "model/schema.h"
#include "model/universe.h"
#include "storage/io.h"
#include "storage/snapshot.h"

namespace iqlkit {
namespace storage {

struct DurabilityConfig {
  // fsync every log write. Turning it off trades the power-failure
  // guarantee for speed; process crashes are still covered.
  bool fsync = true;
};

// Everything recovery reconstructed from a query's durable directory.
struct RecoveredRun {
  Instance instance;
  bool complete = false;        // final output of a finished run
  uint32_t resume_stage = 0;    // next stage to evaluate
  uint64_t resume_step = 0;     // next step within that stage
  uint64_t next_oid_raw = 0;    // universe counter to restore
  uint64_t frames_replayed = 0;
  bool tail_truncated = false;  // the wal had a torn tail (now truncated)
};

// Durable state of one query: a directory holding one file, wal.iqw
// (storage/wal.h) -- a base state followed by a frame per fixpoint step
// committed since that base. BeginRun, Checkpoint and Finalize each replace
// the whole file in one atomic rename, with the input, the rolled-back
// partial or the complete output as its base; between them the object, as
// the evaluator's StepCommitSink, appends one frame per committed step.
// Every crash therefore leaves either the old file or the new one, plus at
// worst a torn last frame (recovery truncates it) and a stale wal.iqw.tmp
// (recovery ignores it).
//
// Open never fails hard: when the directory cannot be created or written
// the object comes back inactive (degraded to in-memory) with a structured
// kUnavailable warning(), and every later call is a no-op — evaluation
// proceeds exactly as without durability.
//
// A nonzero `source_key` (SourceDigest of the query's program) is folded
// into the fingerprint the log header and its base snapshot carry, so Recover
// treats state left by another program in the same directory like state
// of another schema: FailedPrecondition, and the caller starts over.
class QueryDurability : public StepCommitSink {
 public:
  static QueryDurability Open(std::string dir, const DurabilityConfig& config,
                              uint64_t source_key = 0);

  QueryDurability(QueryDurability&&) = default;
  QueryDurability& operator=(QueryDurability&&) = default;

  bool active() const { return !degraded_; }
  // Non-OK when degraded (unwritable dir at Open).
  const Status& warning() const { return warning_; }

  // Reconstructs persisted state, if any: decodes the log's base, and
  // unless that is a complete run's output, replays every complete frame
  // onto it, truncates a torn tail in place, and reports where evaluation
  // should resume. nullopt means a fresh start (no log). A complete run
  // decodes against `output_schema`; a partial one against `schema` (the
  // full unit schema). The universe's oid counter is advanced to the
  // recovered position.
  Result<std::optional<RecoveredRun>> Recover(
      std::shared_ptr<const Schema> schema,
      std::shared_ptr<const Schema> output_schema, Universe* universe);

  // Starts (or restarts) a run: a fresh log whose base is `input` (exact
  // oids) at stage 0, step 0.
  Status BeginRun(const Instance& input);

  // StepCommitSink: appends one frame per committed step.
  Status OnStepCommit(const StepCommit& commit) override;

  // Folds the logged steps into a fresh log whose base is `instance` (a
  // partial sitting on the last committed step boundary) at the current
  // resume coordinates -- the snapshot-on-drain / SIGINT-flush path.
  Status Checkpoint(const Instance& instance);

  // Records a finished run: a log whose base is the (projected) output,
  // flagged complete, with no frames.
  Status Finalize(const Instance& output);

  // Coordinates the next committed step would have (== where a resumed run
  // continues). Exposed for scheduler step-accounting assertions.
  uint32_t resume_stage() const { return resume_stage_; }
  uint64_t resume_step() const { return resume_step_; }
  uint64_t frames_appended() const { return frames_appended_; }

  std::string WalPath() const { return dir_ + "/wal.iqw"; }

 private:
  QueryDurability(std::string dir, const DurabilityConfig& config,
                  uint64_t source_key)
      : dir_(std::move(dir)), config_(config), source_key_(source_key) {}

  // Replaces the log with a fresh one whose base is `base`, encoded with
  // `options` (this query's source key filled in); reopens it for appends
  // unless the base is complete. A failure poisons the log.
  Status WriteBase(const Instance& base, SnapshotOptions options);

  std::string dir_;
  DurabilityConfig config_;
  uint64_t source_key_ = 0;
  bool degraded_ = false;
  bool wal_broken_ = false;  // a log write failed; stop appending
  Status warning_;
  AppendLog wal_;
  uint64_t fingerprint_ = 0;  // schema fingerprint ^ source_key_
  uint32_t resume_stage_ = 0;
  uint64_t resume_step_ = 0;
  uint64_t frames_appended_ = 0;
};

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_DURABLE_H_
