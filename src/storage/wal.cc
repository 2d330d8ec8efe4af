#include "storage/wal.h"

#include <unistd.h>

#include <cstring>

#include "base/logging.h"
#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/codec.h"

namespace iqlkit {
namespace storage {

namespace {

constexpr char kMagic[4] = {'I', 'Q', 'W', '1'};
constexpr size_t kHeaderBytes = 16;

// Appends `payload` as one record: length, CRC-32, bytes.
void PutRecord(std::string_view payload, ByteWriter* out) {
  out->U32(static_cast<uint32_t>(payload.size()));
  out->U32(Crc32(payload));
  out->Bytes(payload);
}

// The payload of the record at `pos`, or false when the bytes from `pos`
// do not hold a whole record with a matching CRC (a torn or corrupt tail).
bool GetRecord(std::string_view bytes, size_t pos, std::string_view* payload) {
  if (bytes.size() - pos < 8) return false;  // torn length/crc prefix
  uint32_t len, crc;
  std::memcpy(&len, bytes.data() + pos, 4);
  std::memcpy(&crc, bytes.data() + pos + 4, 4);
  if (bytes.size() - pos - 8 < len) return false;  // torn payload
  *payload = bytes.substr(pos + 8, len);
  return Crc32(*payload) == crc;
}

Status ApplyOp(Instance* inst, FactOp::Kind kind, Symbol name, Oid oid,
               ValueId value, std::string_view text) {
  switch (kind) {
    case FactOp::Kind::kRelationAdd:
      return inst->AddToRelation(name, value);
    case FactOp::Kind::kRelationRemove:
      inst->RemoveFromRelation(name, value);
      return Status::Ok();
    case FactOp::Kind::kOidAdd:
      return inst->AddOid(name, oid);
    case FactOp::Kind::kOidValue:
      return inst->SetOidValue(oid, value);
    case FactOp::Kind::kSetAdd:
      return inst->AddToSetOid(oid, value);
    case FactOp::Kind::kSetRemove:
      inst->RemoveFromSetOid(oid, value);
      return Status::Ok();
    case FactOp::Kind::kOidValueClear:
      inst->ClearOidValue(oid);
      return Status::Ok();
    case FactOp::Kind::kOidDelete:
      inst->DeleteOidCascade(oid);
      return Status::Ok();
    case FactOp::Kind::kOidName:
      inst->NameOid(oid, text);
      return Status::Ok();
  }
  return InvalidArgumentError("wal frame: unknown op kind");
}

}  // namespace

std::string EncodeWalBase(uint64_t schema_fingerprint,
                          std::string_view snapshot) {
  ByteWriter w;
  w.Bytes(std::string_view(kMagic, 4));
  w.U8(kWalVersion);
  w.U8(0);
  w.U16(0);
  w.U64(schema_fingerprint);
  PutRecord(snapshot, &w);
  return w.Take();
}

std::string EncodeWalFrame(const StepCommit& commit) {
  IQL_CHECK(commit.instance != nullptr && commit.ops != nullptr)
      << "EncodeWalFrame needs the post-step instance and its journal";
  const ValueStore& values = commit.instance->universe()->values();
  TableBuilder tables(&values, /*oid_map=*/nullptr);
  ByteWriter ops;
  ops.U32(static_cast<uint32_t>(commit.ops->size()));
  for (const FactOp& op : *commit.ops) {
    ops.U8(static_cast<uint8_t>(op.kind));
    ops.U32(op.name == kInvalidSymbol ? kNoRef : tables.SymRef(op.name));
    ops.U64(op.oid.raw);
    ops.U32(op.value == kInvalidValue ? kNoRef : tables.ValueRef(op.value));
    ops.Str(op.text);
  }
  ByteWriter payload;
  payload.U32(static_cast<uint32_t>(commit.stage));
  payload.U64(commit.step);
  payload.U64(commit.next_oid_raw);
  tables.EmitSymbols(&payload);
  tables.EmitValues(&payload);
  payload.Bytes(ops.bytes());

  ByteWriter frame;
  PutRecord(payload.bytes(), &frame);
  return frame.Take();
}

Result<WalBase> ReadWalBase(std::string_view bytes,
                            uint64_t expected_fingerprint) {
  if (bytes.size() < kHeaderBytes) {
    return InvalidArgumentError("wal header truncated");
  }
  ByteReader header(bytes.substr(0, kHeaderBytes));
  char magic[4];
  for (char& c : magic) c = static_cast<char>(header.U8());
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return InvalidArgumentError("not an iqlkit wal (bad magic)");
  }
  uint8_t version = header.U8();
  if (version != kWalVersion) {
    return InvalidArgumentError("unsupported wal format version " +
                                std::to_string(version));
  }
  header.U8();
  header.U16();
  uint64_t fingerprint = header.U64();
  if (fingerprint != expected_fingerprint) {
    return FailedPreconditionError(
        "wal was written under a different schema or program (fingerprint "
        "mismatch)");
  }
  // The base is written with the header in one atomic replace, so unlike a
  // step frame it is never legitimately torn.
  WalBase base;
  if (!GetRecord(bytes, kHeaderBytes, &base.snapshot)) {
    return InvalidArgumentError("wal base record is torn or corrupt");
  }
  base.frames_offset = kHeaderBytes + 8 + base.snapshot.size();
  return base;
}

Result<WalRecovery> ReplayWal(std::string_view bytes, const WalBase& base,
                              Instance* instance) {
  WalRecovery out;
  out.valid_bytes = base.frames_offset;
  Universe* universe = instance->universe();
  size_t pos = base.frames_offset;
  std::string_view payload;
  while (GetRecord(bytes, pos, &payload)) {
    ByteReader r(payload);
    uint32_t stage = r.U32();
    uint64_t step = r.U64();
    uint64_t next_oid = r.U64();
    TableReader tables;
    if (!r.ok() || !tables.Read(&r, universe)) {
      return InvalidArgumentError("wal frame " +
                                  std::to_string(out.frames_replayed) +
                                  " is malformed despite a valid checksum");
    }
    uint32_t nops = r.U32();
    if (!r.ok() || nops > r.remaining()) {
      return InvalidArgumentError("wal frame op count out of range");
    }
    for (uint32_t i = 0; i < nops; ++i) {
      uint8_t kind = r.U8();
      uint32_t name = r.U32();
      uint64_t oid = r.U64();
      uint32_t value = r.U32();
      std::string_view text = r.Str();
      if (!r.ok() || kind > static_cast<uint8_t>(FactOp::Kind::kOidName) ||
          (name != kNoRef && !tables.SymOk(name)) ||
          (value != kNoRef && !tables.ValueOk(value))) {
        return InvalidArgumentError("wal frame op is malformed");
      }
      IQL_RETURN_IF_ERROR(ApplyOp(
          instance, static_cast<FactOp::Kind>(kind),
          name == kNoRef ? kInvalidSymbol : tables.Sym(name), Oid{oid},
          value == kNoRef ? kInvalidValue : tables.Value(value), text));
    }
    if (!r.AtEnd()) {
      return InvalidArgumentError("wal frame has trailing bytes");
    }
    pos += 8 + payload.size();
    out.valid_bytes = pos;
    ++out.frames_replayed;
    out.last_stage = stage;
    out.last_step = step;
    out.next_oid_raw = next_oid;
    universe->AdvanceOidCounter(next_oid);
  }
  out.tail_truncated = out.valid_bytes < bytes.size();
  return out;
}

Status TruncateWal(const std::string& path, uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return UnavailableError("truncate failed for '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace iqlkit
