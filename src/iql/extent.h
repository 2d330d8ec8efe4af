#ifndef IQLKIT_IQL_EXTENT_H_
#define IQLKIT_IQL_EXTENT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/governor.h"
#include "base/result.h"
#include "model/instance.h"
#include "model/type.h"
#include "model/value.h"

namespace iqlkit {

// Enumerates the interpretation ⟦t⟧pi of a type restricted to the current
// instance: the base domain D contributes constants(I) only (the paper's
// valuation condition that constants in theta-x come from constants(I),
// §3.2), classes contribute their current extents, sets contribute all
// finite subsets, tuples cross products, unions set unions.
//
// This is how the naive evaluator ranges a variable that no body literal
// binds -- the unrestricted-variable powerset program of Example 3.4.2 is
// the canonical (exponential) client, so every step is budget-guarded and
// overflow surfaces as RESOURCE_EXHAUSTED rather than a hang.
//
// Intersections are eliminated first (instances have disjoint oid
// assignments, so Prop 2.2.1(2) applies).
//
// The result is ordered by the canonical structural value order, which
// depends only on the values themselves, not on when they were interned.
// One enumerator is built per fixpoint step; it caches per-type results
// against the step's instance and interns through the universe's store.
class ExtentEnumerator {
 public:
  ExtentEnumerator(const Instance* instance, uint64_t budget)
      : instance_(instance), budget_(budget) {}

  // Optional evaluation governor: when set, the subset/cross-product
  // construction loops poll it (deadline/cancel/memory are honored inside
  // a single huge extent, not just between them) and a budget overflow
  // trips it with TripReason::kExtent instead of returning a bare error.
  void set_governor(Governor* governor) { governor_ = governor; }

  // All values of ⟦t⟧ w.r.t. the instance. The returned pointer is owned by
  // the enumerator's cache and stays valid until destruction.
  Result<const std::vector<ValueId>*> Enumerate(TypeId t);

  uint64_t produced() const { return produced_; }

  // Cache effectiveness over the enumerator's lifetime: a hit is an
  // Enumerate call answered from the per-type cache, a miss is one that had
  // to compute the interpretation (including nested Enumerate calls made
  // while computing set/tuple/union extents).
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  Result<std::vector<ValueId>> Compute(TypeId t);
  Status Charge(uint64_t n);

  const Instance* instance_;
  uint64_t budget_;
  Governor* governor_ = nullptr;
  uint64_t produced_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  std::unordered_map<TypeId, std::vector<ValueId>> cache_;
};

}  // namespace iqlkit

#endif  // IQLKIT_IQL_EXTENT_H_
