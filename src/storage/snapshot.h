#ifndef IQLKIT_STORAGE_SNAPSHOT_H_
#define IQLKIT_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "base/result.h"
#include "model/instance.h"
#include "model/schema.h"
#include "model/universe.h"

namespace iqlkit {
namespace storage {

// On-disk snapshot format (version 1, little-endian):
//
//   +0   magic "IQS1"
//   +4   u8  version (= kSnapshotVersion)
//   +5   u8  flags (bit0: canonical oid renumbering, bit1: complete run)
//   +6   u16 reserved (0)
//   +8   u32 CRC-32 of the payload
//   +12  u64 payload length
//   +20  payload:
//          u64 schema fingerprint        u64 next-oid counter
//          u32 resume stage              u64 resume step
//          symbol table                  value table (children first)
//          oid table (raw, class, name)  relation extents   nu entries
//
// Every multi-byte ordering inside the payload is universe-independent
// (schema declaration order, ascending oid raws, name-based structural
// value order), so encoding is a pure function of the abstract instance:
// the same facts produce the same bytes no matter which universe holds
// them or in which order its symbols were interned.
inline constexpr uint8_t kSnapshotVersion = 1;

struct SnapshotOptions {
  // Renumber oids densely to 1..n (ascending original raw) and set the
  // stored counter to n+1. The result is O-isomorphic to the input — the
  // stable form for archival and the golden corpus. Exact mode (false)
  // preserves raw oids and the live counter, which is what crash recovery
  // needs for byte-identical WriteFacts resumption.
  bool canonical_oids = false;
  bool complete = false;  // marks a finished run's final state
  uint32_t resume_stage = 0;
  uint64_t resume_step = 0;
  // Fresh-oid counter to record; 0 means the instance universe's live
  // counter (exact mode) or the dense renumbering's n+1 (canonical mode).
  uint64_t next_oid_raw = 0;
  // SourceDigest of the program whose run this state belongs to, XORed into
  // the stored fingerprint; 0 stores the bare schema fingerprint.
  uint64_t source_key = 0;
};

struct LoadedSnapshot {
  Instance instance;
  bool canonical = false;
  bool complete = false;
  uint32_t resume_stage = 0;
  uint64_t resume_step = 0;
  uint64_t next_oid_raw = 0;
};

// Stable 64-bit digest of a schema's relation/class declarations (names and
// rendered types, in declaration order). Snapshots and WALs embed it so
// recovery refuses to replay state onto a different schema.
uint64_t SchemaFingerprint(const Schema& schema);

// Stable 64-bit digest of a program's source text. Durable query state
// keyed by it answers only the program that produced it: two programs over
// one schema differ in rules or facts, and so in their snapshots.
uint64_t SourceDigest(std::string_view source);

// Serializes `instance` (which must cover every fact it holds under its
// schema) into the format above.
std::string EncodeSnapshot(const Instance& instance,
                           const SnapshotOptions& options);

// Decodes a snapshot into a fresh instance over `schema` (the full unit
// schema), interning symbols/values into `universe`. The caller is
// responsible for advancing the universe's oid counter to
// LoadedSnapshot::next_oid_raw. Unknown version bytes, checksum mismatches,
// and truncations are InvalidArgument; a fingerprint mismatch (another
// schema, or another `source_key` than the one encoded) is
// FailedPrecondition.
Result<LoadedSnapshot> DecodeSnapshot(std::string_view bytes,
                                      std::shared_ptr<const Schema> schema,
                                      Universe* universe,
                                      uint64_t source_key = 0);

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_SNAPSHOT_H_
