#include "storage/snapshot.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "storage/bytes.h"
#include "storage/checksum.h"
#include "storage/codec.h"

namespace iqlkit {
namespace storage {

namespace {

constexpr char kMagic[4] = {'I', 'Q', 'S', '1'};
constexpr uint8_t kFlagCanonical = 1u << 0;
constexpr uint8_t kFlagComplete = 1u << 1;

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  const Universe& u = *schema.universe();
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (Symbol r : schema.relation_names()) {
    h = Fnv1a(u.Name(r), h);
    h = Fnv1a("\x01", h);
    h = Fnv1a(u.types().ToString(schema.RelationType(r)), h);
    h = Fnv1a("\x02", h);
  }
  for (Symbol p : schema.class_names()) {
    h = Fnv1a(u.Name(p), h);
    h = Fnv1a(schema.IsSetValuedClass(p) ? "\x03" : "\x04", h);
    h = Fnv1a(u.types().ToString(schema.ClassType(p)), h);
    h = Fnv1a("\x05", h);
  }
  return h;
}

uint64_t SourceDigest(std::string_view source) {
  return Fnv1a(source, 0xcbf29ce484222325ULL);
}

std::string EncodeSnapshot(const Instance& instance,
                           const SnapshotOptions& options) {
  Universe& u = *instance.universe();
  const ValueStore& values = u.values();

  // Every oid the snapshot must carry: classed oids plus any oid occurring
  // inside a stored value, in ascending raw order (= canonical renumbering
  // order).
  std::set<Oid> oids = instance.Objects();
  std::unordered_map<uint64_t, uint64_t> renumber;
  const std::unordered_map<uint64_t, uint64_t>* oid_map = nullptr;
  uint64_t next_oid = options.next_oid_raw;
  if (options.canonical_oids) {
    uint64_t next = 1;
    for (Oid o : oids) renumber[o.raw] = next++;
    oid_map = &renumber;
    next_oid = next;
  } else if (next_oid == 0) {
    next_oid = u.next_oid_raw();
  }

  TableBuilder tables(&values, oid_map);
  ByteWriter body;

  // Oid table, ascending disk raw (== ascending original raw in both
  // modes, since renumbering is monotone).
  body.U32(static_cast<uint32_t>(oids.size()));
  for (Oid o : oids) {
    body.U64(tables.MapOid(o));
    auto cls = instance.ClassOf(o);
    body.U32(cls.has_value() ? tables.SymRef(*cls) : kNoRef);
    std::string label = instance.OidLabel(o);
    bool named = !label.empty() && label[0] != '@';
    body.U8(named ? 1 : 0);
    if (named) body.Str(label);
  }

  // Relation extents in schema declaration order; tuples in the
  // universe-independent name-based structural order.
  std::vector<std::pair<Symbol, std::vector<ValueId>>> rels;
  for (Symbol r : instance.schema().relation_names()) {
    const ValueIdSet& extent = instance.Relation(r);
    if (extent.empty()) continue;
    std::vector<ValueId> tuples(extent.begin(), extent.end());
    std::sort(tuples.begin(), tuples.end(), [&](ValueId a, ValueId b) {
      return CompareValuesByName(values, a, b) < 0;
    });
    rels.emplace_back(r, std::move(tuples));
  }
  body.U32(static_cast<uint32_t>(rels.size()));
  for (const auto& [r, tuples] : rels) {
    body.U32(tables.SymRef(r));
    body.U32(static_cast<uint32_t>(tuples.size()));
    for (ValueId v : tuples) body.U32(tables.ValueRef(v));
  }

  // nu entries in ascending raw order; the set-valued default (empty set)
  // is implied by class membership and omitted.
  ValueId empty_set = u.values().EmptySet();
  std::vector<std::pair<Oid, ValueId>> nu;
  for (Oid o : oids) {
    auto cls = instance.ClassOf(o);
    if (!cls.has_value()) continue;
    auto v = instance.ValueOf(o);
    if (!v.has_value()) continue;
    if (instance.schema().IsSetValuedClass(*cls) && *v == empty_set) continue;
    nu.emplace_back(o, *v);
  }
  body.U32(static_cast<uint32_t>(nu.size()));
  for (const auto& [o, v] : nu) {
    body.U64(tables.MapOid(o));
    body.U32(tables.ValueRef(v));
  }

  ByteWriter payload;
  payload.U64(SchemaFingerprint(instance.schema()) ^ options.source_key);
  payload.U64(next_oid);
  payload.U32(options.resume_stage);
  payload.U64(options.resume_step);
  tables.EmitSymbols(&payload);
  tables.EmitValues(&payload);
  payload.Bytes(body.bytes());

  ByteWriter out;
  out.Bytes(std::string_view(kMagic, 4));
  out.U8(kSnapshotVersion);
  uint8_t flags = 0;
  if (options.canonical_oids) flags |= kFlagCanonical;
  if (options.complete) flags |= kFlagComplete;
  out.U8(flags);
  out.U16(0);
  out.U32(Crc32(payload.bytes()));
  out.U64(payload.size());
  out.Bytes(payload.bytes());
  return out.Take();
}

Result<LoadedSnapshot> DecodeSnapshot(std::string_view bytes,
                                      std::shared_ptr<const Schema> schema,
                                      Universe* universe,
                                      uint64_t source_key) {
  ByteReader header(bytes);
  char magic[4] = {};
  magic[0] = static_cast<char>(header.U8());
  magic[1] = static_cast<char>(header.U8());
  magic[2] = static_cast<char>(header.U8());
  magic[3] = static_cast<char>(header.U8());
  if (!header.ok() || std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return InvalidArgumentError("not an iqlkit snapshot (bad magic)");
  }
  uint8_t version = header.U8();
  if (version != kSnapshotVersion) {
    return InvalidArgumentError(
        "unsupported snapshot format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  uint8_t flags = header.U8();
  header.U16();  // reserved
  uint32_t crc = header.U32();
  uint64_t payload_len = header.U64();
  if (!header.ok() || payload_len != header.remaining()) {
    return InvalidArgumentError("snapshot truncated: payload length " +
                                std::to_string(payload_len) + " vs " +
                                std::to_string(header.remaining()) +
                                " bytes on disk");
  }
  std::string_view payload = bytes.substr(bytes.size() - payload_len);
  if (Crc32(payload) != crc) {
    return InvalidArgumentError("snapshot payload checksum mismatch");
  }

  ByteReader r(payload);
  uint64_t fingerprint = r.U64();
  uint64_t next_oid = r.U64();
  uint32_t resume_stage = r.U32();
  uint64_t resume_step = r.U64();
  if (fingerprint != (SchemaFingerprint(*schema) ^ source_key)) {
    return FailedPreconditionError(
        "snapshot was written under a different schema or program "
        "(fingerprint mismatch)");
  }

  TableReader tables;
  if (!tables.Read(&r, universe)) {
    return InvalidArgumentError("snapshot value table is malformed");
  }

  LoadedSnapshot out{Instance(std::move(schema), universe),
                     (flags & kFlagCanonical) != 0,
                     (flags & kFlagComplete) != 0,
                     resume_stage,
                     resume_step,
                     next_oid};
  Instance& inst = out.instance;

  uint32_t noids = r.U32();
  if (!r.ok() || noids > r.remaining() / 13) {
    return InvalidArgumentError("snapshot oid table is malformed");
  }
  for (uint32_t i = 0; i < noids; ++i) {
    uint64_t raw = r.U64();
    uint32_t cls = r.U32();
    uint8_t named = r.U8();
    std::string_view name;
    if (named != 0) name = r.Str();
    if (!r.ok()) return InvalidArgumentError("snapshot oid table truncated");
    Oid o{raw};
    if (cls != kNoRef) {
      if (!tables.SymOk(cls)) {
        return InvalidArgumentError("snapshot oid class out of range");
      }
      IQL_RETURN_IF_ERROR(inst.AddOid(tables.Sym(cls), o));
    }
    if (named != 0) inst.NameOid(o, name);
  }

  uint32_t nrels = r.U32();
  if (!r.ok() || nrels > r.remaining() / 8) {
    return InvalidArgumentError("snapshot relation section is malformed");
  }
  for (uint32_t i = 0; i < nrels; ++i) {
    uint32_t rel = r.U32();
    uint32_t ntuples = r.U32();
    if (!r.ok() || !tables.SymOk(rel) || ntuples > r.remaining() / 4) {
      return InvalidArgumentError("snapshot relation section is malformed");
    }
    for (uint32_t t = 0; t < ntuples; ++t) {
      uint32_t v = r.U32();
      if (!r.ok() || !tables.ValueOk(v)) {
        return InvalidArgumentError("snapshot relation tuple out of range");
      }
      IQL_RETURN_IF_ERROR(inst.AddToRelation(tables.Sym(rel), tables.Value(v)));
    }
  }

  uint32_t nnu = r.U32();
  if (!r.ok() || nnu > r.remaining() / 12) {
    return InvalidArgumentError("snapshot nu section is malformed");
  }
  const ValueStore& values = universe->values();
  for (uint32_t i = 0; i < nnu; ++i) {
    uint64_t raw = r.U64();
    uint32_t vref = r.U32();
    if (!r.ok() || !tables.ValueOk(vref)) {
      return InvalidArgumentError("snapshot nu section out of range");
    }
    Oid o{raw};
    ValueId v = tables.Value(vref);
    auto cls = inst.ClassOf(o);
    if (!cls.has_value()) {
      return InvalidArgumentError("snapshot nu entry for unclassed oid @" +
                                  std::to_string(raw));
    }
    if (inst.schema().IsSetValuedClass(*cls)) {
      if (values.node(v).kind != ValueKind::kSet) {
        return InvalidArgumentError("snapshot nu entry: set-valued oid @" +
                                    std::to_string(raw) +
                                    " carries a non-set value");
      }
      for (ValueId e : values.node(v).elems) {
        IQL_RETURN_IF_ERROR(inst.AddToSetOid(o, e));
      }
    } else {
      IQL_RETURN_IF_ERROR(inst.SetOidValue(o, v));
    }
  }
  if (!r.AtEnd()) {
    return InvalidArgumentError("snapshot has trailing bytes");
  }
  return out;
}

}  // namespace storage
}  // namespace iqlkit
