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

namespace iqlkit {
namespace storage {

struct DurabilityConfig {
  // fsync every WAL frame and snapshot. Turning it off trades the
  // power-failure guarantee for speed; process crashes are still covered.
  bool fsync = true;
  // What a failed snapshot/frame write does mid-run: strict (false, the
  // default) aborts the evaluation with kUnavailable — the scheduler
  // classifies that as transient and the retry resumes from the durable
  // prefix — while true silently degrades to in-memory evaluation with the
  // failure recorded as warning().
  bool degrade_on_write_error = false;
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

// Durable state of one query: a directory holding the last snapshot
// (snapshot.iqs), the write-ahead log of committed steps since that
// snapshot (wal.iqw), and a DONE marker for finished runs. Doubles as the
// evaluator's StepCommitSink, appending one frame per committed fixpoint
// step.
//
// Open never fails hard: when the directory cannot be created or written
// the object comes back inactive (degraded to in-memory) with a structured
// kUnavailable warning(), and every later call is a no-op — evaluation
// proceeds exactly as without durability.
//
// A nonzero `source_key` (SourceDigest of the query's program) is folded
// into the fingerprint every snapshot and WAL header carries, so Recover
// treats state left by another program in the same directory like state
// of another schema: FailedPrecondition, and the caller starts over.
class QueryDurability : public StepCommitSink {
 public:
  static QueryDurability Open(std::string dir, const DurabilityConfig& config,
                              uint64_t source_key = 0);

  QueryDurability(QueryDurability&&) = default;
  QueryDurability& operator=(QueryDurability&&) = default;

  bool active() const { return !degraded_; }
  // Non-OK when degraded (unwritable dir at Open, or a tolerated write
  // error under degrade_on_write_error).
  const Status& warning() const { return warning_; }
  const std::string& dir() const { return dir_; }

  // Reconstructs persisted state, if any: loads the snapshot, replays every
  // complete WAL frame onto it, truncates a torn tail in place, and reports
  // where evaluation should resume. nullopt means a fresh start (no usable
  // state). A complete run decodes against `output_schema`; a partial one
  // against `schema` (the full unit schema). The universe's oid counter is
  // advanced to the recovered position.
  Result<std::optional<RecoveredRun>> Recover(
      std::shared_ptr<const Schema> schema,
      std::shared_ptr<const Schema> output_schema, Universe* universe);

  // Starts (or restarts) a run: snapshots `input` with exact oids, opens a
  // fresh WAL, clears any DONE marker.
  Status BeginRun(const Instance& input);

  // StepCommitSink: appends one frame per committed step.
  Status OnStepCommit(const StepCommit& commit) override;

  // Folds the WAL into a fresh snapshot of `instance` (a partial sitting on
  // the last committed step boundary) and resets the log — the
  // snapshot-on-drain / SIGINT-flush compaction path.
  Status Checkpoint(const Instance& instance);

  // Records a finished run: final snapshot of the (projected) output, DONE
  // marker, WAL removed.
  Status Finalize(const Instance& output);

  // Coordinates the next committed step would have (== where a resumed run
  // continues). Exposed for scheduler step-accounting assertions.
  uint32_t resume_stage() const { return resume_stage_; }
  uint64_t resume_step() const { return resume_step_; }
  uint64_t frames_appended() const { return frames_appended_; }

  std::string SnapshotPath() const { return dir_ + "/snapshot.iqs"; }
  std::string WalPath() const { return dir_ + "/wal.iqw"; }
  std::string DonePath() const { return dir_ + "/DONE"; }

 private:
  QueryDurability(std::string dir, const DurabilityConfig& config,
                  uint64_t source_key)
      : dir_(std::move(dir)), config_(config), source_key_(source_key) {}

  // Applies the configured write-error policy: degrade (record warning,
  // return Ok) or propagate.
  Status WriteError(Status s);

  std::string dir_;
  DurabilityConfig config_;
  uint64_t source_key_ = 0;
  bool degraded_ = false;
  bool wal_broken_ = false;  // a frame append failed; stop appending
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
