#include "model/value.h"

#include <algorithm>
#include <string>

#include "base/fault_injection.h"
#include "base/hash.h"
#include "base/logging.h"

namespace iqlkit {

namespace {

// Content hash / equality of a node *within one store* (children compared by
// id, which hash-consing makes equivalent to structural comparison).
uint64_t HashValueNode(const ValueNode& n) {
  uint64_t h = Mix64(static_cast<uint64_t>(n.kind) + 1);
  switch (n.kind) {
    case ValueKind::kConst:
      h = HashCombine(h, n.atom);
      break;
    case ValueKind::kOid:
      h = HashCombine(h, n.oid.raw);
      break;
    case ValueKind::kTuple:
      for (const auto& [attr, child] : n.fields) {
        h = HashCombine(h, attr);
        h = HashCombine(h, child);
      }
      break;
    case ValueKind::kSet:
      h = HashRange(n.elems.begin(), n.elems.end(), h);
      break;
  }
  return h;
}

bool SameValueNode(const ValueNode& a, const ValueNode& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ValueKind::kConst:
      return a.atom == b.atom;
    case ValueKind::kOid:
      return a.oid == b.oid;
    case ValueKind::kTuple:
      return a.fields == b.fields;
    case ValueKind::kSet:
      return a.elems == b.elems;
  }
  return false;
}

// Approximate heap footprint of one interned node (node storage, vector
// payloads, hash-index entry). The evaluation governor's byte-level memory
// accounting charges this per newly interned node; it deliberately
// overestimates a little rather than chasing allocator internals.
uint64_t ApproxValueNodeBytes(const ValueNode& n) {
  return sizeof(ValueNode) + 32 +
         n.fields.capacity() * sizeof(std::pair<Symbol, ValueId>) +
         n.elems.capacity() * sizeof(ValueId);
}

}  // namespace

// -- IdHashTable ----------------------------------------------------------

void IdHashTable::Place(uint32_t tag, ValueId id) {
  size_t i = tag & mask_;
  while (slots_[i].id != kInvalidValue) i = (i + 1) & mask_;
  slots_[i] = Slot{tag, id};
}

void IdHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id != kInvalidValue) Place(slot.tag, slot.id);
  }
}

void IdHashTable::Insert(uint64_t h, ValueId id) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  Place(Tag(h), id);
  ++size_;
}

bool IdHashTable::Erase(uint64_t h, ValueId id) {
  if (slots_.empty()) return false;
  uint32_t tag = Tag(h);
  size_t i = tag & mask_;
  while (slots_[i].id != id || slots_[i].tag != tag) {
    if (slots_[i].id == kInvalidValue) return false;
    i = (i + 1) & mask_;
  }
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when its home slot does not lie strictly between the hole and
  // its own slot, so every remaining entry stays reachable from its home
  // without tombstones.
  size_t hole = i;
  for (size_t j = (hole + 1) & mask_; slots_[j].id != kInvalidValue;
       j = (j + 1) & mask_) {
    size_t home = slots_[j].tag & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

// -- ValueStore -------------------------------------------------------------

ValueId ValueStore::InternNode(ValueNode node) {
  uint64_t h = HashValueNode(node);
  ValueId found = index_.Find(
      h, [&](ValueId id) { return SameValueNode(nodes_[id], node); });
  if (found != kInvalidValue) return found;
  IQL_CHECK(nodes_.size() < kInvalidValue) << "value store overflow";
  ValueId id = static_cast<ValueId>(nodes_.size());
  if (accountant_ != nullptr) {
    accountant_->Charge(ApproxValueNodeBytes(node));
    if (FaultInjector::Global().ShouldFail(FaultSite::kAllocation)) {
      // Interning cannot unwind mid-node; the governor surfaces the forced
      // failure as a MEMORY trip at its next poll.
      accountant_->MarkInjectedFailure();
    }
  }
  nodes_.push_back(std::move(node));
  index_.Insert(h, id);
  return id;
}

ValueId ValueStore::Const(std::string_view atom) {
  return ConstSymbol(symbols_->Intern(atom));
}

ValueId ValueStore::ConstSymbol(Symbol atom) {
  ValueNode n;
  n.kind = ValueKind::kConst;
  n.atom = atom;
  return InternNode(std::move(n));
}

ValueId ValueStore::ConstInt(int64_t value) {
  return Const(std::to_string(value));
}

ValueId ValueStore::OfOid(Oid o) {
  ValueNode n;
  n.kind = ValueKind::kOid;
  n.oid = o;
  return InternNode(std::move(n));
}

ValueId ValueStore::Tuple(std::vector<std::pair<Symbol, ValueId>> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 1; i < fields.size(); ++i) {
    IQL_CHECK(fields[i - 1].first != fields[i].first)
        << "duplicate tuple attribute "
        << symbols_->name(fields[i].first);
  }
  ValueNode n;
  n.kind = ValueKind::kTuple;
  n.fields = std::move(fields);
  return InternNode(std::move(n));
}

ValueId ValueStore::EmptyTuple() { return Tuple({}); }

ValueId ValueStore::Set(std::vector<ValueId> elems) {
  // Canonical structural element order; structurally equal elements share an
  // id (hash consing), so duplicates are adjacent and compare equal by id.
  std::sort(elems.begin(), elems.end(),
            [this](ValueId a, ValueId b) { return Less(a, b); });
  elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
  ValueNode n;
  n.kind = ValueKind::kSet;
  n.elems = std::move(elems);
  return InternNode(std::move(n));
}

ValueId ValueStore::EmptySet() { return Set({}); }

ValueId ValueStore::SetInsert(ValueId base, ValueId elem) {
  const ValueNode& n = node(base);
  IQL_CHECK(n.kind == ValueKind::kSet) << "SetInsert on non-set";
  if (std::binary_search(n.elems.begin(), n.elems.end(), elem,
                         [this](ValueId a, ValueId b) { return Less(a, b); }))
    return base;
  std::vector<ValueId> elems = n.elems;
  elems.push_back(elem);
  return Set(std::move(elems));
}

ValueId ValueStore::SetUnion(ValueId a, ValueId b) {
  const ValueNode& na = node(a);
  const ValueNode& nb = node(b);
  IQL_CHECK(na.kind == ValueKind::kSet && nb.kind == ValueKind::kSet)
      << "SetUnion on non-set";
  std::vector<ValueId> elems;
  elems.reserve(na.elems.size() + nb.elems.size());
  std::set_union(na.elems.begin(), na.elems.end(), nb.elems.begin(),
                 nb.elems.end(), std::back_inserter(elems),
                 [this](ValueId x, ValueId y) { return Less(x, y); });
  return Set(std::move(elems));
}

bool ValueStore::SetContains(ValueId set, ValueId elem) const {
  const ValueNode& n = node(set);
  IQL_CHECK(n.kind == ValueKind::kSet) << "SetContains on non-set";
  return std::binary_search(n.elems.begin(), n.elems.end(), elem,
                            [this](ValueId a, ValueId b) { return Less(a, b); });
}

const ValueNode& ValueStore::node(ValueId id) const {
  IQL_CHECK(id < nodes_.size()) << "invalid ValueId " << id;
  return nodes_[id];
}

int ValueStore::Compare(ValueId a, ValueId b) const {
  if (a == b) return 0;
  const ValueNode& na = node(a);
  const ValueNode& nb = node(b);
  if (na.kind != nb.kind) {
    return static_cast<int>(na.kind) < static_cast<int>(nb.kind) ? -1 : 1;
  }
  switch (na.kind) {
    case ValueKind::kConst:
      return na.atom < nb.atom ? -1 : na.atom > nb.atom ? 1 : 0;
    case ValueKind::kOid:
      return na.oid.raw < nb.oid.raw ? -1 : na.oid.raw > nb.oid.raw ? 1 : 0;
    case ValueKind::kTuple: {
      size_t k = std::min(na.fields.size(), nb.fields.size());
      for (size_t i = 0; i < k; ++i) {
        if (na.fields[i].first != nb.fields[i].first) {
          return na.fields[i].first < nb.fields[i].first ? -1 : 1;
        }
        int c = Compare(na.fields[i].second, nb.fields[i].second);
        if (c != 0) return c;
      }
      return na.fields.size() < nb.fields.size()   ? -1
             : na.fields.size() > nb.fields.size() ? 1
                                                   : 0;
    }
    case ValueKind::kSet: {
      size_t k = std::min(na.elems.size(), nb.elems.size());
      for (size_t i = 0; i < k; ++i) {
        int c = Compare(na.elems[i], nb.elems[i]);
        if (c != 0) return c;
      }
      return na.elems.size() < nb.elems.size()   ? -1
             : na.elems.size() > nb.elems.size() ? 1
                                                 : 0;
    }
  }
  return 0;
}

void ValueStore::CollectOids(ValueId v, std::set<Oid>* out) const {
  const ValueNode& n = node(v);
  switch (n.kind) {
    case ValueKind::kConst:
      return;
    case ValueKind::kOid:
      out->insert(n.oid);
      return;
    case ValueKind::kTuple:
      for (const auto& [attr, child] : n.fields) CollectOids(child, out);
      return;
    case ValueKind::kSet:
      for (ValueId child : n.elems) CollectOids(child, out);
      return;
  }
}

void ValueStore::CollectConsts(ValueId v, std::set<Symbol>* out) const {
  const ValueNode& n = node(v);
  switch (n.kind) {
    case ValueKind::kConst:
      out->insert(n.atom);
      return;
    case ValueKind::kOid:
      return;
    case ValueKind::kTuple:
      for (const auto& [attr, child] : n.fields) CollectConsts(child, out);
      return;
    case ValueKind::kSet:
      for (ValueId child : n.elems) CollectConsts(child, out);
      return;
  }
}

std::string ValueStore::ToString(ValueId v) const {
  return ToString(v, [](Oid o) { return "@" + std::to_string(o.raw); });
}

}  // namespace iqlkit
