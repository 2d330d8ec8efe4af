#include "storage/durable.h"

#include <fcntl.h>
#include <unistd.h>

#include "storage/snapshot.h"
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

Status QueryDurability::WriteError(Status s) {
  if (config_.degrade_on_write_error) {
    degraded_ = true;
    warning_ = UnavailableError(
        "durability degraded to in-memory mid-run: " + s.message());
    wal_.Close();
    return Status::Ok();
  }
  wal_broken_ = true;
  return s;
}

Result<std::optional<RecoveredRun>> QueryDurability::Recover(
    std::shared_ptr<const Schema> schema,
    std::shared_ptr<const Schema> output_schema, Universe* universe) {
  if (degraded_) return std::optional<RecoveredRun>();
  fingerprint_ = SchemaFingerprint(*schema) ^ source_key_;
  Result<std::string> bytes = ReadFileBytes(SnapshotPath());
  if (!bytes.ok()) {
    if (bytes.status().code() == StatusCode::kNotFound) {
      return std::optional<RecoveredRun>();  // fresh start
    }
    return bytes.status();
  }
  // The complete flag lives in the header (byte 5, bit 1); a finished run's
  // snapshot is the *projected* output, so it decodes against the output
  // schema rather than the full one.
  bool complete = bytes->size() > 5 && (static_cast<uint8_t>((*bytes)[5]) & 2);
  IQL_ASSIGN_OR_RETURN(
      LoadedSnapshot snap,
      DecodeSnapshot(*bytes, complete ? output_schema : schema, universe,
                     source_key_));
  universe->AdvanceOidCounter(snap.next_oid_raw);

  RecoveredRun run{std::move(snap.instance), snap.complete,
                   snap.resume_stage,        snap.resume_step,
                   snap.next_oid_raw,        0,
                   false};
  if (snap.complete) {
    return std::optional<RecoveredRun>(std::move(run));
  }

  Result<std::string> wal_bytes = ReadFileBytes(WalPath());
  if (wal_bytes.ok()) {
    if (wal_bytes->size() < 16) {
      // Crash inside the header write: no frame can exist, start the log
      // over from the snapshot.
      run.tail_truncated = !wal_bytes->empty();
      IQL_RETURN_IF_ERROR(
          AtomicWriteFile(WalPath(), EncodeWalHeader(fingerprint_),
                          config_.fsync));
    } else {
      IQL_ASSIGN_OR_RETURN(
          WalRecovery rec,
          ReplayWal(*wal_bytes, fingerprint_, &run.instance));
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
    }
  } else if (wal_bytes.status().code() == StatusCode::kNotFound) {
    // Crash between the snapshot and the WAL create: seed a fresh log.
    IQL_RETURN_IF_ERROR(AtomicWriteFile(
        WalPath(), EncodeWalHeader(fingerprint_), config_.fsync));
  } else {
    return wal_bytes.status();
  }

  IQL_ASSIGN_OR_RETURN(wal_, AppendLog::Open(WalPath()));
  resume_stage_ = run.resume_stage;
  resume_step_ = run.resume_step;
  return std::optional<RecoveredRun>(std::move(run));
}

Status QueryDurability::BeginRun(const Instance& input) {
  if (degraded_) return Status::Ok();
  fingerprint_ = SchemaFingerprint(input.schema()) ^ source_key_;
  IQL_RETURN_IF_ERROR(RemoveFileIfExists(DonePath()));
  SnapshotOptions options;  // exact oids, resume at (0, 0)
  options.source_key = source_key_;
  Status s =
      AtomicWriteFile(SnapshotPath(), EncodeSnapshot(input, options),
                      config_.fsync);
  if (s.ok()) {
    s = AtomicWriteFile(WalPath(), EncodeWalHeader(fingerprint_),
                        config_.fsync);
  }
  if (!s.ok()) return WriteError(std::move(s));
  IQL_ASSIGN_OR_RETURN(wal_, AppendLog::Open(WalPath()));
  resume_stage_ = 0;
  resume_step_ = 0;
  frames_appended_ = 0;
  wal_broken_ = false;
  return Status::Ok();
}

Status QueryDurability::OnStepCommit(const StepCommit& commit) {
  if (degraded_) return Status::Ok();
  if (wal_broken_) {
    return UnavailableError("wal is broken by an earlier failed append");
  }
  Status s = wal_.Append(EncodeWalFrame(commit), config_.fsync);
  if (!s.ok()) return WriteError(std::move(s));
  ++frames_appended_;
  resume_stage_ = static_cast<uint32_t>(commit.stage);
  resume_step_ = commit.step + 1;
  return Status::Ok();
}

Status QueryDurability::Checkpoint(const Instance& instance) {
  if (degraded_) return Status::Ok();
  SnapshotOptions options;
  options.source_key = source_key_;
  options.resume_stage = resume_stage_;
  options.resume_step = resume_step_;
  Status s = AtomicWriteFile(SnapshotPath(),
                             EncodeSnapshot(instance, options), config_.fsync);
  if (s.ok()) {
    // The snapshot now covers every logged step; restart the log.
    wal_.Close();
    s = AtomicWriteFile(WalPath(), EncodeWalHeader(fingerprint_),
                        config_.fsync);
  }
  if (!s.ok()) return WriteError(std::move(s));
  IQL_ASSIGN_OR_RETURN(wal_, AppendLog::Open(WalPath()));
  wal_broken_ = false;
  return Status::Ok();
}

Status QueryDurability::Finalize(const Instance& output) {
  if (degraded_) return Status::Ok();
  wal_.Close();
  SnapshotOptions options;
  options.source_key = source_key_;
  options.complete = true;
  Status s = AtomicWriteFile(SnapshotPath(),
                             EncodeSnapshot(output, options), config_.fsync);
  if (s.ok()) s = AtomicWriteFile(DonePath(), "done\n", config_.fsync);
  if (s.ok()) s = RemoveFileIfExists(WalPath());
  if (!s.ok()) return WriteError(std::move(s));
  return Status::Ok();
}

}  // namespace storage
}  // namespace iqlkit
