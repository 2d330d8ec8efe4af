#ifndef IQLKIT_STORAGE_WAL_H_
#define IQLKIT_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/result.h"
#include "model/instance.h"
#include "storage/io.h"

namespace iqlkit {
namespace storage {

// A durable query's one file (version 2): a base state, then the log of
// governor-committed fixpoint steps taken from it.
//
//   header (16 bytes): magic "IQW1", u8 version, u8+u16 reserved,
//                      u64 schema fingerprint
//   base record:       u32 length | u32 CRC-32 | exact-mode IQS1 snapshot
//                      image (storage/snapshot.h)
//   then zero or more step frames, each self-contained:
//     u32 payload length | u32 payload CRC-32 | payload:
//       u32 stage   u64 step   u64 next-oid counter after the step
//       symbol table   value table   u32 op count, then per op:
//         u8 kind   u32 name ref   u64 oid raw   u32 value ref   str text
//
// The header and base are only ever written together, by one atomic
// whole-file replace; step frames are appended after them. One frame per
// committed step. A frame is logically appended only once its bytes (and,
// with fsync on, its durability) are complete; recovery scans sequentially,
// stops at the first short/corrupt frame, and reports the byte offset so
// the torn tail can be truncated before appending resumes. Version 1 logs
// (header and frames, the base in a separate snapshot file) are refused.
inline constexpr uint8_t kWalVersion = 2;

// Header plus base record: the whole content of a log whose base is the
// snapshot image `snapshot`.
std::string EncodeWalBase(uint64_t schema_fingerprint,
                          std::string_view snapshot);

// Serializes one committed step as a frame. Values are resolved against
// `commit.instance`'s universe; oids keep their exact raws.
std::string EncodeWalFrame(const StepCommit& commit);

struct WalBase {
  std::string_view snapshot;  // the base's IQS1 image, inside the log bytes
  uint64_t frames_offset = 0;  // where the step frames start
};

// Checks the header of `bytes` and locates its base record. A short or bad
// header, another version, or a torn or corrupt base is InvalidArgument; a
// fingerprint mismatch is FailedPrecondition.
Result<WalBase> ReadWalBase(std::string_view bytes,
                            uint64_t expected_fingerprint);

struct WalRecovery {
  uint64_t frames_replayed = 0;
  bool tail_truncated = false;  // trailing bytes did not form a full frame
  uint64_t valid_bytes = 0;     // prefix length holding the base + full frames
  // Coordinates of the last replayed frame (meaningful when frames > 0).
  uint32_t last_stage = 0;
  uint64_t last_step = 0;
  uint64_t next_oid_raw = 0;
};

// Replays every complete step frame of the log `bytes`, from
// `base.frames_offset` on, onto `instance` (the decoded base) through its
// public mutators. A torn tail is normal (reported, not an error); a
// CRC-valid frame that fails to decode is InvalidArgument.
Result<WalRecovery> ReplayWal(std::string_view bytes, const WalBase& base,
                              Instance* instance);

// Truncates the log file to its valid prefix (recovery's valid_bytes).
Status TruncateWal(const std::string& path, uint64_t valid_bytes);

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_WAL_H_
