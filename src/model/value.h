#ifndef IQLKIT_MODEL_VALUE_H_
#define IQLKIT_MODEL_VALUE_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/governor.h"
#include "base/hash.h"
#include "base/interner.h"
#include "model/oid.h"

namespace iqlkit {

// Handle to an interned o-value inside a ValueStore.
using ValueId = uint32_t;
inline constexpr ValueId kInvalidValue = 0xFFFFFFFFu;

// A flat open-addressing hash table of (hash, id) entries: one array of
// 8-byte slots, linear probing, at most half full. It stores a 32-bit tag
// of each entry's 64-bit hash and no keys; a lookup walks the probe run of
// the tag and asks the caller which candidate id is the one it wants. That
// makes one table type serve both as the interning index of a value store
// (candidates compared by node content) and as a set of ids (candidates
// compared by id; see ValueIdHashSet). Ids and tags stay put until the
// table grows or an entry is erased, and `Find` never writes, so any
// number of threads may read a table no thread is writing.
class IdHashTable {
 public:
  // The first id among the entries of hash `h` for which `match(id)`
  // holds, or kInvalidValue.
  template <typename Match>
  ValueId Find(uint64_t h, const Match& match) const {
    if (slots_.empty()) return kInvalidValue;
    uint32_t tag = Tag(h);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.id == kInvalidValue) return kInvalidValue;
      if (slot.tag == tag && match(slot.id)) return slot.id;
    }
  }

  // Adds the entry (h, id); the caller has checked it is absent.
  void Insert(uint64_t h, ValueId id);

  // Removes the entry (h, id); false when it is absent.
  bool Erase(uint64_t h, ValueId id);

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint32_t tag = 0;
    ValueId id = kInvalidValue;  // kInvalidValue: empty slot
  };
  // The slot position derives from the tag alone, so growing rehashes
  // without the entries' full hashes.
  static uint32_t Tag(uint64_t h) {
    return static_cast<uint32_t>(h) ^ static_cast<uint32_t>(h >> 32);
  }
  void Place(uint32_t tag, ValueId id);
  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

// An unordered set of ValueIds with O(1) insert, erase and membership.
// Hash-consing makes id equality structural equality, so membership by id
// is membership of the o-value.
class ValueIdHashSet {
 public:
  bool contains(ValueId v) const {
    return table_.Find(Mix64(v), [v](ValueId id) { return id == v; }) !=
           kInvalidValue;
  }
  // True when `v` was not yet a member.
  bool insert(ValueId v) {
    if (contains(v)) return false;
    table_.Insert(Mix64(v), v);
    return true;
  }
  // True when `v` was a member.
  bool erase(ValueId v) { return table_.Erase(Mix64(v), v); }
  size_t size() const { return table_.size(); }

 private:
  IdHashTable table_;
};

// The four o-value constructors of Definition 2.1.1: constants d in D,
// oids o in O, finite tuples [A1: v1, ..., Ak: vk], and finite sets
// {v1, ..., vk}.
enum class ValueKind : uint8_t { kConst, kOid, kTuple, kSet };

// One interned o-value node. Tuples keep fields sorted by attribute symbol;
// sets keep elements sorted in the *canonical structural order* (see
// ValueStore::Compare below) with duplicates removed, realizing the paper's
// duplicate-free tree representation of o-values (§2.1). Structural rather
// than ValueId order makes iteration order over set elements (and, via
// Instance, over relation extents) independent of the interning history of
// the store, so a run enumerates candidates -- and mints oids -- in the
// same order whatever values the store already held: after a resume, in a
// served query's fresh universe, or in a long-lived one.
struct ValueNode {
  ValueKind kind = ValueKind::kConst;
  Symbol atom = kInvalidSymbol;                     // kConst
  Oid oid;                                          // kOid
  std::vector<std::pair<Symbol, ValueId>> fields;   // kTuple
  std::vector<ValueId> elems;                       // kSet
};

// Hash-consed store of o-values. Every distinct o-value is materialized at
// most once, so *structural equality of o-values is equality of ValueIds*.
// This is what lets a relation answer "is this fact new?" with one hash
// probe on its id (Instance::RelationContains), so the evaluator's
// fixpoint test costs O(1) per derived fact; the structural compare is
// needed only to order an extent, never to identify a value. The interning
// index is one IdHashTable keyed by a hash of each node's content; a probe
// compares node contents only on a tag match.
//
// o-values are finite trees (Def 2.1.1); cyclic data is representable only
// through oids plus the instance's nu mapping, exactly as in the paper.
class ValueStore {
 public:
  explicit ValueStore(SymbolTable* symbols) : symbols_(symbols) {}
  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  // Leaf constructors.
  ValueId Const(std::string_view atom);
  ValueId ConstSymbol(Symbol atom);
  ValueId ConstInt(int64_t n);
  ValueId OfOid(Oid o);

  // Tuple constructor. Fields are sorted by attribute symbol; duplicate
  // attributes are an internal error (callers validate user input first).
  ValueId Tuple(std::vector<std::pair<Symbol, ValueId>> fields);
  ValueId EmptyTuple();

  // Set constructor. Sorts and deduplicates elements.
  ValueId Set(std::vector<ValueId> elems);
  ValueId EmptySet();

  // Returns the set `base` with `elem` inserted (interned fresh if needed).
  ValueId SetInsert(ValueId base, ValueId elem);
  // Returns the union of two set values.
  ValueId SetUnion(ValueId a, ValueId b);
  bool SetContains(ValueId set, ValueId elem) const;

  const ValueNode& node(ValueId id) const;
  size_t size() const { return nodes_.size(); }
  SymbolTable* symbols() const { return symbols_; }

  // Evaluation-scoped memory accounting: while set, every newly interned
  // node charges its approximate footprint (and consults the allocation
  // fault-injection site). The evaluator installs its governor's accountant
  // for the duration of a run and must clear it before the accountant dies.
  void set_accountant(MemoryAccountant* accountant) {
    accountant_ = accountant;
  }

  // Canonical structural total order on o-values: by kind, then by
  // constant atom / oid raw / lexicographic fields / lexicographic
  // elements. The order depends only on the *structure* of the two values
  // (plus the fixed symbol numbering), never on when they were interned,
  // so any two stores that hold structurally equal values order them
  // identically. Equal ids short-circuit to 0.
  int Compare(ValueId a, ValueId b) const;
  bool Less(ValueId a, ValueId b) const { return Compare(a, b) < 0; }

  // Collects, transitively, all oids / constant atoms inside `v`.
  void CollectOids(ValueId v, std::set<Oid>* out) const;
  void CollectConsts(ValueId v, std::set<Symbol>* out) const;

  // Structurally rewrites every oid leaf through `rename`; used to apply
  // O-isomorphisms (paper §4.1).
  template <typename Fn>
  ValueId RewriteOids(ValueId v, const Fn& rename);

  // Rewrites oid leaves and constant atoms simultaneously (DO-isomorphisms).
  template <typename OidFn, typename ConstFn>
  ValueId Rewrite(ValueId v, const OidFn& rename_oid,
                  const ConstFn& rename_const);

  // Renders the o-value in the paper's notation, e.g.
  //   [name: "Adam", children: {@3, @4}]
  // Oids print as @<raw> unless `oid_name` provides a label.
  std::string ToString(ValueId v) const;
  template <typename OidNameFn>
  std::string ToString(ValueId v, const OidNameFn& oid_name) const;

 private:
  ValueId InternNode(ValueNode node);
  template <typename OidNameFn>
  void AppendString(ValueId v, const OidNameFn& oid_name,
                    std::string* out) const;

  SymbolTable* symbols_;
  MemoryAccountant* accountant_ = nullptr;
  std::vector<ValueNode> nodes_;
  IdHashTable index_;  // node hash -> id; content compared on a match
};

// Comparator adapting the canonical structural order to STL containers.
// The null-store default exists only so empty sets (e.g. the static "no such
// relation" extent) are constructible; it is never invoked on a comparison.
struct ValueLess {
  const ValueStore* store = nullptr;
  bool operator()(ValueId a, ValueId b) const { return store->Less(a, b); }
};

// A set of interned values iterated in canonical structural order.
using ValueIdSet = std::set<ValueId, ValueLess>;

// -- template implementations --------------------------------------------

template <typename Fn>
ValueId ValueStore::RewriteOids(ValueId v, const Fn& rename) {
  const ValueNode& n = node(v);
  switch (n.kind) {
    case ValueKind::kConst:
      return v;
    case ValueKind::kOid:
      return OfOid(rename(n.oid));
    case ValueKind::kTuple: {
      std::vector<std::pair<Symbol, ValueId>> fields = n.fields;
      for (auto& [attr, child] : fields) child = RewriteOids(child, rename);
      return Tuple(std::move(fields));
    }
    case ValueKind::kSet: {
      std::vector<ValueId> elems = n.elems;
      for (ValueId& child : elems) child = RewriteOids(child, rename);
      return Set(std::move(elems));
    }
  }
  return v;
}

template <typename OidFn, typename ConstFn>
ValueId ValueStore::Rewrite(ValueId v, const OidFn& rename_oid,
                            const ConstFn& rename_const) {
  const ValueNode& n = node(v);
  switch (n.kind) {
    case ValueKind::kConst:
      return ConstSymbol(rename_const(n.atom));
    case ValueKind::kOid:
      return OfOid(rename_oid(n.oid));
    case ValueKind::kTuple: {
      std::vector<std::pair<Symbol, ValueId>> fields = n.fields;
      for (auto& [attr, child] : fields) {
        child = Rewrite(child, rename_oid, rename_const);
      }
      return Tuple(std::move(fields));
    }
    case ValueKind::kSet: {
      std::vector<ValueId> elems = n.elems;
      for (ValueId& child : elems) {
        child = Rewrite(child, rename_oid, rename_const);
      }
      return Set(std::move(elems));
    }
  }
  return v;
}

template <typename OidNameFn>
std::string ValueStore::ToString(ValueId v, const OidNameFn& oid_name) const {
  std::string out;
  AppendString(v, oid_name, &out);
  return out;
}

template <typename OidNameFn>
void ValueStore::AppendString(ValueId v, const OidNameFn& oid_name,
                              std::string* out) const {
  const ValueNode& n = node(v);
  switch (n.kind) {
    case ValueKind::kConst:
      out->push_back('"');
      out->append(symbols_->name(n.atom));
      out->push_back('"');
      return;
    case ValueKind::kOid:
      out->append(oid_name(n.oid));
      return;
    case ValueKind::kTuple: {
      out->push_back('[');
      bool first = true;
      for (const auto& [attr, child] : n.fields) {
        if (!first) out->append(", ");
        first = false;
        out->append(symbols_->name(attr));
        out->append(": ");
        AppendString(child, oid_name, out);
      }
      out->push_back(']');
      return;
    }
    case ValueKind::kSet: {
      out->push_back('{');
      bool first = true;
      for (ValueId child : n.elems) {
        if (!first) out->append(", ");
        first = false;
        AppendString(child, oid_name, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace iqlkit

#endif  // IQLKIT_MODEL_VALUE_H_
