#include "iql/index.h"

#include <algorithm>

namespace iqlkit {

const ValueNode& RelationIndex::NodeOf(ValueId v) const {
  return arena_ != nullptr ? arena_->node(v)
                           : instance_->universe()->values().node(v);
}

const std::vector<ValueId>& RelationIndex::Elems(Container c) {
  auto it = elems_.find(Key(c));
  if (it != elems_.end()) return it->second;
  std::vector<ValueId> out;
  switch (c.kind) {
    case Container::Kind::kRelation: {
      const auto& tuples = instance_->Relation(static_cast<Symbol>(c.id));
      out.assign(tuples.begin(), tuples.end());
      break;
    }
    case Container::Kind::kClass: {
      for (Oid o : instance_->ClassExtent(static_cast<Symbol>(c.id))) {
        out.push_back(arena_ != nullptr
                          ? arena_->OfOid(o)
                          : instance_->universe()->values().OfOid(o));
      }
      break;
    }
    case Container::Kind::kSetValue: {
      const ValueNode& n = NodeOf(static_cast<ValueId>(c.id));
      if (n.kind == ValueKind::kSet) out = n.elems;
      break;
    }
  }
  return elems_.emplace(Key(c), std::move(out)).first->second;
}

bool RelationIndex::ElementKey(ValueId elem,
                               const std::vector<Symbol>& attrs,
                               uint64_t* out) const {
  const ValueNode& n = NodeOf(elem);
  if (n.kind != ValueKind::kTuple) return false;
  uint64_t h = 0;
  // Both n.fields and attrs are ascending: one linear merge.
  auto field = n.fields.begin();
  for (Symbol attr : attrs) {
    while (field != n.fields.end() && field->first < attr) ++field;
    if (field == n.fields.end() || field->first != attr) return false;
    h = KeyHash(h, field->second);
  }
  *out = h;
  return true;
}

void RelationIndex::InsertElement(Index* index, ValueId elem) {
  uint64_t h = 0;
  if (!ElementKey(elem, index->attrs, &h)) return;
  index->buckets[h].push_back(elem);
}

RelationIndex::Index* RelationIndex::Resolve(
    Container c, const std::vector<Symbol>& attrs) {
  std::vector<std::unique_ptr<Index>>& built = indexes_[Key(c)];
  for (const std::unique_ptr<Index>& index : built) {
    if (index->attrs == attrs) return index.get();
  }
  Index* index = built.emplace_back(std::make_unique<Index>()).get();
  index->attrs = attrs;
  for (ValueId elem : Elems(c)) InsertElement(index, elem);
  if (c.kind == Container::Kind::kRelation) {
    by_relation_[static_cast<Symbol>(c.id)].push_back(index);
  }
  ++counters_.builds;
  return index;
}

const std::vector<ValueId>* RelationIndex::Lookup(Index* index,
                                                  uint64_t key_hash) {
  ++counters_.probes;
  // Buckets are keyed by the hash of the keyed-field values; a collision
  // merely enlarges a bucket (the caller re-matches every candidate), it
  // cannot lose matches.
  auto bucket = index->buckets.find(key_hash);
  if (bucket == index->buckets.end() || bucket->second.empty()) {
    return nullptr;
  }
  ++counters_.hits;
  return &bucket->second;
}

const std::vector<ValueId>* RelationIndex::Probe(
    Container c, const std::vector<Symbol>& attrs,
    const std::vector<ValueId>& key) {
  Index* index = Resolve(c, attrs);
  uint64_t h = 0;
  for (ValueId v : key) h = KeyHash(h, v);
  return Lookup(index, h);
}

void RelationIndex::AddRelationFact(Symbol r, ValueId fact) {
  auto elems = elems_.find(Key(Container::Relation(r)));
  if (elems != elems_.end()) elems->second.push_back(fact);
  auto built = by_relation_.find(r);
  if (built == by_relation_.end()) return;
  for (Index* index : built->second) InsertElement(index, fact);
}

}  // namespace iqlkit
