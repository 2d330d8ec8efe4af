#ifndef IQLKIT_IQL_INDEX_H_
#define IQLKIT_IQL_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/interner.h"
#include "model/instance.h"
#include "model/value.h"

namespace iqlkit {

// Hash indexes over the containers a positive membership literal can range
// over: relation extents, class extents, and (immutable, hash-consed) set
// values. The solver asks two questions:
//
//   Elems(c)            the container's elements, materialized once per
//                       index lifetime instead of once per generator visit;
//   Probe(c, attrs, k)  the elements of c that are tuples whose top-level
//                       fields at `attrs` equal the values `k` -- the only
//                       candidates a tuple pattern with those fields bound
//                       can match.
//
// A probe is two steps, which callers may also take apart: Resolve(c,
// attrs) finds (or builds) the index of one (container, attrs) pair, and
// Lookup(index, h) returns its bucket for the key hash h. The register VM
// resolves a scan instruction's index once and then hashes each key
// straight from its registers, so a probe there allocates nothing.
//
// Indexes are built lazily (one scan of the extent when a (container,
// attrs) pair is first resolved) and keyed by the attribute set actually
// bound at generator time, so a rule body probing R on #1 and later on #2
// gets two independent indexes. Correctness does not depend on the index
// being selective: a probe only *prefilters* by equality on the keyed
// fields, and the caller still pattern-matches every candidate, so elements
// whose arity or remaining fields disagree are rejected exactly as in a
// full scan.
//
// Lifetime and invalidation: the naive evaluator builds a fresh
// RelationIndex per fixpoint step (the step reads a frozen snapshot). The
// semi-naive runner keeps one index across rounds -- eligible stages only
// ever *add relation facts*, which AddRelationFact applies incrementally to
// every index already built over that relation; class extents and set
// values cannot change on such stages (no invention, no deletions, and set
// values are immutable by hash-consing).
class RelationIndex {
 public:
  struct Counters {
    uint64_t builds = 0;   // (container, attrs) indexes constructed
    uint64_t probes = 0;   // indexed lookups served
    uint64_t hits = 0;     // probes returning a non-empty bucket
  };

  // A container designator. Relation and class containers are named by
  // symbol; set containers by the set's ValueId (hash-consing makes the id
  // identify the contents).
  struct Container {
    enum class Kind : uint8_t { kRelation, kClass, kSetValue };
    Kind kind = Kind::kRelation;
    uint32_t id = 0;  // Symbol or ValueId

    static Container Relation(Symbol r) { return {Kind::kRelation, r}; }
    static Container Class(Symbol p) { return {Kind::kClass, p}; }
    static Container SetValue(ValueId v) { return {Kind::kSetValue, v}; }
  };

  // Reads (and, for class extents, interns oid values into) the
  // instance's ValueStore.
  explicit RelationIndex(const Instance* instance) : instance_(instance) {}
  RelationIndex(const RelationIndex&) = delete;
  RelationIndex& operator=(const RelationIndex&) = delete;

  // The container's elements as a vector, materialized and cached. The
  // pointer stays valid until destruction (relation vectors grow in place
  // via AddRelationFact but are stored node-stably).
  const std::vector<ValueId>& Elems(Container c);

  // One (container, attrs) index: a bucket per distinct combination of
  // keyed-field values. Outside this class it is only a handle.
  struct Index {
    std::vector<Symbol> attrs;  // the keyed attributes, ascending
    std::unordered_map<uint64_t, std::vector<ValueId>> buckets;
  };

  // The index of `c` keyed on `attrs` (ascending, nonempty), built by one
  // scan of the container the first time the pair is resolved (counted as
  // a build). The handle stays valid, and follows AddRelationFact, until
  // destruction. Allocates only when it builds.
  Index* Resolve(Container c, const std::vector<Symbol>& attrs);

  // Folds one keyed-field value into a key hash. A key's hash starts at 0
  // and folds its values in the order of the index's attrs.
  static uint64_t KeyHash(uint64_t h, ValueId value) {
    return HashCombine(h, value);
  }

  // The bucket of `index` for the key hash `key_hash`, or nullptr for an
  // empty bucket. Counted as a probe, and as a hit when non-empty.
  const std::vector<ValueId>* Lookup(Index* index, uint64_t key_hash);

  // Resolve + Lookup: the bucket of elements of `c` whose top-level tuple
  // fields at `attrs` equal `key` (parallel to `attrs`). Returns nullptr
  // for an empty bucket. Elements that are not tuples, or lack one of the
  // attributes, match no bucket -- they could not match a tuple pattern
  // binding those fields either.
  const std::vector<ValueId>* Probe(Container c,
                                    const std::vector<Symbol>& attrs,
                                    const std::vector<ValueId>& key);

  // Incremental maintenance: `fact` was just added to relation `r`.
  // Appends it to the materialized extent and to every index built over r.
  void AddRelationFact(Symbol r, ValueId fact);

  const Counters& counters() const { return counters_; }

 private:
  struct ContainerKey {
    uint8_t kind;
    uint32_t id;
    bool operator==(const ContainerKey& o) const {
      return kind == o.kind && id == o.id;
    }
  };
  struct ContainerKeyHash {
    size_t operator()(const ContainerKey& k) const {
      return static_cast<size_t>(Mix64((uint64_t{k.kind} << 32) | k.id));
    }
  };
  static ContainerKey Key(Container c) {
    return {static_cast<uint8_t>(c.kind), c.id};
  }
  // Hash of the element's values at `attrs`; false when the element is not
  // a tuple carrying every keyed attribute.
  bool ElementKey(ValueId elem, const std::vector<Symbol>& attrs,
                  uint64_t* out) const;
  void InsertElement(Index* index, ValueId elem);

  const ValueNode& NodeOf(ValueId v) const {
    return instance_->universe()->values().node(v);
  }

  const Instance* instance_;
  std::unordered_map<ContainerKey, std::vector<ValueId>, ContainerKeyHash>
      elems_;
  // The indexes built over each container, one per attrs set; a container
  // is probed on few distinct attrs sets, so Resolve scans them linearly.
  std::unordered_map<ContainerKey, std::vector<std::unique_ptr<Index>>,
                     ContainerKeyHash>
      indexes_;
  // Indexes built per relation symbol, for incremental maintenance.
  std::unordered_map<Symbol, std::vector<Index*>> by_relation_;
  Counters counters_;
};

}  // namespace iqlkit

#endif  // IQLKIT_IQL_INDEX_H_
