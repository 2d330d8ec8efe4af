#ifndef IQLKIT_MODEL_TYPE_ALGEBRA_H_
#define IQLKIT_MODEL_TYPE_ALGEBRA_H_

#include <unordered_map>

#include "base/interner.h"
#include "model/oid.h"
#include "model/type.h"
#include "model/value.h"

namespace iqlkit {

// Answers "does oid o belong to class P" for a concrete oid assignment pi.
// Instances implement this with their (disjoint) assignment; the
// inheritance layer (§6) implements it with the *inherited* assignment
// pi-bar of Definition 6.1.1, where an oid also belongs to every isa
// ancestor of its creation class.
class ClassResolver {
 public:
  virtual ~ClassResolver() = default;
  virtual bool OidInClass(Oid o, Symbol cls) const = 0;
};

// Decides membership v in ⟦t⟧pi (§2.2). With star=true it uses the
// *-interpretation of §6 instead, under which a tuple type describes all
// tuples having *at least* its attributes (Cardelli-style width subtyping).
//
// Base, empty and class types are answered directly from the value node;
// structured types (tuple, set, union, intersection) memoize (type, value)
// pairs, so validating a large instance touches each distinct structured
// subvalue/subtype pair once.
class TypeMembership {
 public:
  TypeMembership(const TypePool* types, const ValueStore* values,
                 const ClassResolver* classes, bool star = false)
      : types_(types), values_(values), classes_(classes), star_(star) {}
  // Arena-backed variant: value ids may refer to a worker's side store.
  TypeMembership(const TypePool* types, const ValueArena* arena,
                 const ClassResolver* classes, bool star = false)
      : types_(types), arena_(arena), classes_(classes), star_(star) {}

  bool Contains(TypeId t, ValueId v);

 private:
  const ValueNode& NodeOf(ValueId v) const {
    return arena_ != nullptr ? arena_->node(v) : values_->node(v);
  }

  const TypePool* types_;
  const ValueStore* values_ = nullptr;
  const ValueArena* arena_ = nullptr;
  const ClassResolver* classes_;
  bool star_;
  std::unordered_map<uint64_t, bool> cache_;
};

// Proposition 2.2.1 (1): returns a type equivalent to `t` over *every* oid
// assignment in which no intersection node is an ancestor of a tuple, set,
// or union node. Residual intersections are over distinct class names only.
TypeId IntersectionReduce(TypePool* pool, TypeId t);

// Proposition 2.2.1 (2): returns an intersection-free type equivalent to
// `t` over every *disjoint* oid assignment (residual class-class
// intersections become the empty type).
TypeId EliminateIntersection(TypePool* pool, TypeId t);

// Canonical form used for equivalence checking over disjoint assignments:
// eliminates intersections, then distributes unions upward out of tuple
// constructors ([A: t1|t2] == [A:t1] | [A:t2]); set constructors are a
// distribution boundary ({t1|t2} != {t1} | {t2}).
TypeId NormalizeDisjoint(TypePool* pool, TypeId t);

// True if the two types have identical canonical forms. Sound (equal forms
// imply equivalence over disjoint assignments); complete for the
// intersection/union-of-tuples patterns exercised by the paper, though not
// a full decision procedure for recursive type equivalence.
bool EquivalentOverDisjoint(TypePool* pool, TypeId a, TypeId b);

}  // namespace iqlkit

#endif  // IQLKIT_MODEL_TYPE_ALGEBRA_H_
