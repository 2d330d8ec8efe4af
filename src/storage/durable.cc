#include "storage/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include "storage/wal.h"

namespace iqlkit {
namespace storage {

namespace {

// Raw writability probe, deliberately outside the fault-injected IO paths:
// Open's degrade decision reflects the real filesystem, not a seeded fault.
bool DirWritable(const std::string& dir) {
  std::string probe = dir + "/.probe";
  int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return false;
  ::close(fd);
  ::unlink(probe.c_str());
  return true;
}

}  // namespace

QueryDurability QueryDurability::Open(std::string dir,
                                      const DurabilityConfig& config,
                                      uint64_t source_key) {
  QueryDurability out(std::move(dir), config, source_key);
  Status s = EnsureDir(out.dir_);
  if (s.ok() && !DirWritable(out.dir_)) {
    s = UnavailableError("data dir '" + out.dir_ + "' is not writable");
  }
  if (!s.ok()) {
    out.degraded_ = true;
    out.warning_ = UnavailableError(
        "durability disabled, evaluating in memory only: " + s.message());
  }
  return out;
}

Result<std::optional<RecoveredRun>> QueryDurability::Recover(
    std::shared_ptr<const Schema> schema,
    std::shared_ptr<const Schema> output_schema, Universe* universe) {
  if (degraded_) return std::optional<RecoveredRun>();
  fingerprint_ = SchemaFingerprint(*schema) ^ source_key_;
  Result<std::string> bytes = ReadFileBytes(WalPath());
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return std::optional<RecoveredRun>();  // fresh start
    }
    return bytes.status();
  }
  IQL_ASSIGN_OR_RETURN(WalBase base, ReadWalBase(*bytes, fingerprint_));
  // The complete flag lives in the snapshot header (byte 5, bit 1); a
  // finished run's base is the *projected* output, so it decodes against
  // the output schema rather than the full one.
  bool complete = base.snapshot.size() > 5 &&
                  (static_cast<uint8_t>(base.snapshot[5]) & 2);
  IQL_ASSIGN_OR_RETURN(
      LoadedSnapshot snap,
      DecodeSnapshot(base.snapshot, complete ? output_schema : schema,
                     universe, source_key_));
  universe->AdvanceOidCounter(snap.next_oid_raw);

  RecoveredRun run{std::move(snap.instance), snap.complete,
                   snap.resume_stage,        snap.resume_step,
                   snap.next_oid_raw,        0,
                   false};
  if (snap.complete) {
    return std::optional<RecoveredRun>(std::move(run));
  }

  IQL_ASSIGN_OR_RETURN(WalRecovery rec,
                       ReplayWal(*bytes, base, &run.instance));
  run.frames_replayed = rec.frames_replayed;
  run.tail_truncated = rec.tail_truncated;
  if (rec.frames_replayed > 0) {
    run.resume_stage = rec.last_stage;
    run.resume_step = rec.last_step + 1;
    run.next_oid_raw = rec.next_oid_raw;
  }
  if (rec.tail_truncated) {
    IQL_RETURN_IF_ERROR(TruncateWal(WalPath(), rec.valid_bytes));
  }
  IQL_ASSIGN_OR_RETURN(wal_, AppendLog::Open(WalPath()));
  resume_stage_ = run.resume_stage;
  resume_step_ = run.resume_step;
  return std::optional<RecoveredRun>(std::move(run));
}

Status QueryDurability::WriteBase(const Instance& base,
                                  SnapshotOptions options) {
  options.source_key = source_key_;
  wal_.Close();
  Status s = AtomicWriteFile(
      WalPath(), EncodeWalBase(fingerprint_, EncodeSnapshot(base, options)),
      config_.fsync);
  if (!s.ok()) {
    wal_broken_ = true;
    return s;
  }
  wal_broken_ = false;
  if (options.complete) return Status::Ok();
  IQL_ASSIGN_OR_RETURN(wal_, AppendLog::Open(WalPath()));
  return Status::Ok();
}

Status QueryDurability::BeginRun(const Instance& input) {
  if (degraded_) return Status::Ok();
  fingerprint_ = SchemaFingerprint(input.schema()) ^ source_key_;
  IQL_RETURN_IF_ERROR(WriteBase(input, SnapshotOptions()));  // at (0, 0)
  resume_stage_ = 0;
  resume_step_ = 0;
  frames_appended_ = 0;
  return Status::Ok();
}

Status QueryDurability::OnStepCommit(const StepCommit& commit) {
  if (degraded_) return Status::Ok();
  if (wal_broken_) {
    return UnavailableError("wal is broken by an earlier failed write");
  }
  Status s = wal_.Append(EncodeWalFrame(commit), config_.fsync);
  if (!s.ok()) {
    wal_broken_ = true;
    return s;
  }
  ++frames_appended_;
  resume_stage_ = static_cast<uint32_t>(commit.stage);
  resume_step_ = commit.step + 1;
  return Status::Ok();
}

Status QueryDurability::Checkpoint(const Instance& instance) {
  if (degraded_) return Status::Ok();
  SnapshotOptions options;
  options.resume_stage = resume_stage_;
  options.resume_step = resume_step_;
  return WriteBase(instance, options);
}

Status QueryDurability::Finalize(const Instance& output) {
  if (degraded_) return Status::Ok();
  SnapshotOptions options;
  options.complete = true;
  return WriteBase(output, options);
}

}  // namespace storage
}  // namespace iqlkit
