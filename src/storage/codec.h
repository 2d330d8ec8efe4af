#ifndef IQLKIT_STORAGE_CODEC_H_
#define IQLKIT_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/universe.h"
#include "model/value.h"
#include "storage/bytes.h"

namespace iqlkit {
namespace storage {

inline constexpr uint32_t kNoRef = 0xFFFFFFFFu;

// Name-based structural order on o-values: like ValueStore::Compare, but
// constants compare by their symbol *text* and tuple fields by attribute
// *text*, never by symbol id. Two universes that interned the same strings
// in different orders still order structurally-equal values identically, so
// every byte the encoder emits is a function of the abstract instance alone
// — the property behind canonical-snapshot idempotence and the golden
// corpus.
int CompareValuesByName(const ValueStore& store, ValueId a, ValueId b);

// Builds the file-local symbol and o-value tables shared by snapshots and
// WAL frames. Symbols are registered in first-use order; values are emitted
// children-first, so a decoder resolves every reference against
// already-decoded entries. Oid leaves are emitted through `oid_map` (raw ->
// on-disk raw; identity when null), which is where canonical renumbering
// plugs in.
class TableBuilder {
 public:
  TableBuilder(const ValueStore* store,
               const std::unordered_map<uint64_t, uint64_t>* oid_map)
      : store_(store), oid_map_(oid_map) {}

  uint32_t SymRef(Symbol s);
  uint32_t ValueRef(ValueId v);

  // On-disk raw for a universe oid (identity without a map).
  uint64_t MapOid(Oid o) const;

  void EmitSymbols(ByteWriter* w) const;
  void EmitValues(ByteWriter* w) const;

 private:
  const ValueStore* store_;
  const std::unordered_map<uint64_t, uint64_t>* oid_map_;
  std::unordered_map<Symbol, uint32_t> sym_index_;
  std::vector<Symbol> syms_;
  std::unordered_map<ValueId, uint32_t> val_index_;
  std::vector<std::string> nodes_;  // pre-encoded, children first
};

// Decodes the symbol and value tables into `universe`, interning as it
// goes. Hash-consing dedups against anything the universe already holds.
class TableReader {
 public:
  // Returns false on malformed input (truncation, out-of-range refs).
  bool Read(ByteReader* r, Universe* universe);

  bool SymOk(uint32_t ref) const { return ref < syms_.size(); }
  Symbol Sym(uint32_t ref) const { return syms_[ref]; }
  bool ValueOk(uint32_t ref) const { return ref < vals_.size(); }
  ValueId Value(uint32_t ref) const { return vals_[ref]; }

 private:
  std::vector<Symbol> syms_;
  std::vector<ValueId> vals_;
};

}  // namespace storage
}  // namespace iqlkit

#endif  // IQLKIT_STORAGE_CODEC_H_
