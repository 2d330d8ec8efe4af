#ifndef IQLKIT_MODEL_INSTANCE_H_
#define IQLKIT_MODEL_INSTANCE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "model/oid.h"
#include "model/schema.h"
#include "model/type_algebra.h"
#include "model/universe.h"
#include "model/value.h"

namespace iqlkit {

class Instance;

// One committed mutation of an instance, in the vocabulary of its public
// mutators. A journal of FactOps between two step boundaries is exactly what
// the durability layer needs to replay one fixpoint step: applying the ops
// in order through the same mutators reproduces the post-step instance.
struct FactOp {
  enum class Kind : uint8_t {
    kRelationAdd = 0,    // AddToRelation(name, value)
    kRelationRemove = 1, // RemoveFromRelation(name, value)
    kOidAdd = 2,         // AddOid(name /*class*/, oid)
    kOidValue = 3,       // SetOidValue(oid, value)
    kSetAdd = 4,         // AddToSetOid(oid, value /*element*/)
    kSetRemove = 5,      // RemoveFromSetOid(oid, value /*element*/)
    kOidValueClear = 6,  // ClearOidValue(oid)
    kOidDelete = 7,      // DeleteOidCascade(oid); the cascade is re-derived
    kOidName = 8,        // NameOid(oid, text)
  };
  Kind kind = Kind::kRelationAdd;
  Symbol name = kInvalidSymbol;   // relation (kRelation*) or class (kOidAdd)
  Oid oid;                        // oid-directed ops
  ValueId value = kInvalidValue;  // tuple / nu-value / set element
  std::string text;               // kOidName label
};

// One governor-committed fixpoint step, handed to a durability sink right
// after the evaluator commits it. `ops` is the step's journal in commit
// order; `instance` is the post-step instance (valid only for the duration
// of the call — sinks that checkpoint must serialize, not retain).
struct StepCommit {
  int stage = 0;
  uint64_t step = 0;          // step (round) index within the stage
  uint64_t next_oid_raw = 0;  // universe fresh-oid counter after the step
  const std::vector<FactOp>* ops = nullptr;
  const Instance* instance = nullptr;
};

// Durability hook: the evaluator calls OnStepCommit after every committed
// fixpoint step. A non-OK return aborts the evaluation with that status
// (the instance still sits on the completed-step boundary).
class StepCommitSink {
 public:
  virtual ~StepCommitSink() = default;
  virtual Status OnStepCommit(const StepCommit& commit) = 0;
};

// An instance I = (rho, pi, nu) of a schema (Definition 2.3.2):
//   rho : relation name -> finite set of o-values,
//   pi  : class name    -> finite set of oids (pairwise disjoint),
//   nu  : oid -> o-value, partial; total on set-valued classes, where an
//         oid with no recorded value denotes the empty set (Remark 2.3.3).
//
// Disjointness of pi is enforced structurally: each oid records the single
// class it belongs to, and AddOid rejects a second class.
//
// A relation's extent is held twice over the same ids: an ordered set that
// every reader iterates in canonical structural order, and a hash set that
// answers membership by id in O(1) (hash-consing makes id equality
// structural equality). Every mutator keeps the two equal.
//
// Instances are cheap-ish to copy (sets of 32/64-bit ids, both views of
// each relation copied together); the evaluator copies its working
// instance only at stage boundaries.
class Instance : public ClassResolver {
 public:
  // Non-owning: `schema` must outlive the instance.
  Instance(const Schema* schema, Universe* universe)
      : schema_(schema, [](const Schema*) {}), universe_(universe) {}
  // Shared ownership: used when an instance must carry its schema around
  // (e.g. projections onto freshly built output schemas).
  Instance(std::shared_ptr<const Schema> schema, Universe* universe)
      : schema_(std::move(schema)), universe_(universe) {}

  // A journal pointer tracks one specific working instance; it never travels
  // with copies (the evaluator's per-step rollback snapshots, projections)
  // or moves (partials handed out on a trip), which would otherwise record
  // phantom ops or dangle.
  Instance(const Instance& other)
      : schema_(other.schema_),
        universe_(other.universe_),
        relations_(other.relations_),
        classes_(other.classes_),
        nu_(other.nu_),
        class_of_(other.class_of_),
        oid_names_(other.oid_names_) {}
  Instance(Instance&& other) noexcept
      : schema_(std::move(other.schema_)),
        universe_(other.universe_),
        relations_(std::move(other.relations_)),
        classes_(std::move(other.classes_)),
        nu_(std::move(other.nu_)),
        class_of_(std::move(other.class_of_)),
        oid_names_(std::move(other.oid_names_)) {}
  Instance& operator=(const Instance& other) {
    if (this == &other) return *this;
    schema_ = other.schema_;
    universe_ = other.universe_;
    relations_ = other.relations_;
    classes_ = other.classes_;
    nu_ = other.nu_;
    class_of_ = other.class_of_;
    oid_names_ = other.oid_names_;
    journal_ = nullptr;  // wholesale replacement is not representable as ops
    return *this;
  }
  Instance& operator=(Instance&& other) noexcept {
    if (this == &other) return *this;
    schema_ = std::move(other.schema_);
    universe_ = other.universe_;
    relations_ = std::move(other.relations_);
    classes_ = std::move(other.classes_);
    nu_ = std::move(other.nu_);
    class_of_ = std::move(other.class_of_);
    oid_names_ = std::move(other.oid_names_);
    journal_ = nullptr;
    return *this;
  }

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& schema_ptr() const { return schema_; }
  Universe* universe() const { return universe_; }

  // ---- construction ------------------------------------------------------

  Status AddToRelation(Symbol relation, ValueId v);
  Status AddToRelation(std::string_view relation, ValueId v);

  // Mints a fresh oid (from the universe counter) and places it in class P.
  // For a set-valued class the oid's value defaults to the empty set.
  Result<Oid> CreateOid(Symbol cls);
  Result<Oid> CreateOid(std::string_view cls);

  // Places an existing oid into class P; rejects oids already classed.
  Status AddOid(Symbol cls, Oid o);

  // Defines nu(o) = v. Rejects unknown oids and redefinition (the paper's
  // weak assignment never overwrites; see evaluator condition (*)).
  Status SetOidValue(Oid o, ValueId v);

  // For a set-valued oid: nu(o) := nu(o) union {elem}.
  Status AddToSetOid(Oid o, ValueId elem);

  // Attaches a debug label used by printers ("adam" instead of "@7").
  void NameOid(Oid o, std::string_view name);

  // ---- durability journal -------------------------------------------------

  // While set, every mutation that actually changes the instance appends a
  // FactOp (idempotent re-adds and no-op removals are not recorded). The
  // caller owns the vector and clears it at step boundaries; see StepCommit.
  void set_journal(std::vector<FactOp>* journal) { journal_ = journal; }
  std::vector<FactOp>* journal() const { return journal_; }

  // ---- deletion (IQL*, §4.5) ----------------------------------------------

  // Removes a tuple from a relation (no-op if absent). Returns true if a
  // fact was removed.
  bool RemoveFromRelation(Symbol relation, ValueId v);

  // Removes an element from a set-valued oid's value. Returns true if
  // removed.
  bool RemoveFromSetOid(Oid o, ValueId elem);

  // Makes nu(o) undefined again (no-op for set-valued oids, whose nu is
  // total; their value resets to the empty set instead).
  bool ClearOidValue(Oid o);

  // Deletes an oid: removes it from its class and erases every fact whose
  // value mentions it -- relation tuples are dropped, set elements removed,
  // and non-set oids whose value mentions it are deleted in cascade (the
  // paper's update-propagation remark, §4.5). Returns the number of oids
  // deleted (0 if unknown).
  size_t DeleteOidCascade(Oid o);

  // ---- access -------------------------------------------------------------

  // Extent of a relation / class; empty if the name has no tuples yet.
  // Relations iterate in the canonical structural order of their values
  // (see ValueStore::Compare in value.h), which is stable across evaluation
  // strategies.
  const ValueIdSet& Relation(Symbol name) const;
  const std::set<Oid>& ClassExtent(Symbol name) const;
  // Whether `v` is in relation `name`: one hash probe on the id, never a
  // structural compare or a read of v's node. Equal to
  // Relation(name).count(v) > 0 for an id of this universe's store.
  bool RelationContains(Symbol name, ValueId v) const;

  // nu(o); nullopt when undefined. Unknown oids are an internal error.
  std::optional<ValueId> ValueOf(Oid o) const;
  // The unique class containing o; nullopt for oids not in this instance.
  std::optional<Symbol> ClassOf(Oid o) const;
  bool HasOid(Oid o) const { return class_of_.count(o) > 0; }

  // ClassResolver (disjoint assignment): exact class membership.
  bool OidInClass(Oid o, Symbol cls) const override;

  // All oids / constants occurring in the instance (objects(I),
  // constants(I), §2.3).
  std::set<Oid> Objects() const;
  std::set<Symbol> ConstantAtoms() const;

  // Printable label for an oid: its debug name, else "@<raw>".
  std::string OidLabel(Oid o) const;

  // ---- semantics ----------------------------------------------------------

  // Checks conditions (1)-(3) of Definition 2.3.2 plus oid-closure: every
  // oid occurring in a relation value or a nu-value belongs to some class.
  Status Validate() const;

  // Projection I[S'] onto a projection schema (§3). `sub` must use the same
  // universe and only names declared in this instance's schema.
  Instance Project(const Schema* sub) const;
  Instance Project(std::shared_ptr<const Schema> sub) const;

  // Copies every fact of `src` into this instance: relations, class
  // extents, nu-values, and debug names. `src`'s schema must be a subset of
  // this schema (a projection), over the same universe. Conflicting class
  // memberships or nu-values are errors.
  Status Absorb(const Instance& src);

  // Exact ground-fact equality (same universe required). This is equality
  // of ground-facts(I) (§2.3), *not* equality up to O-isomorphism; for the
  // latter see transform/isomorphism.h.
  bool EqualGroundFacts(const Instance& other) const;

  // Total number of ground facts (for budget accounting and reporting).
  size_t GroundFactCount() const;

  // Renders the instance in the paper's notation (pi, rho, nu sections).
  std::string ToString() const;

  // Renders ground-facts(I) in the paper's logic-programming notation
  // (§2.3): one line per fact --
  //   R(v).   P(o).   o^(v).   o^ = v.
  // (set-valued oids contribute one o^(v) line per element).
  std::string GroundFactsToString() const;

 private:
  // One relation's extent: `ordered` is what Relation() hands out,
  // `members` the same ids for O(1) membership.
  struct RelationExtent {
    ValueIdSet ordered;
    ValueIdHashSet members;

    bool operator==(const RelationExtent& other) const {
      return ordered == other.ordered;
    }
    bool empty() const { return ordered.empty(); }
  };

  // Returns the (possibly fresh) mutable extent of `relation`, its ordered
  // set constructed with a comparator bound to this universe's store.
  RelationExtent& MutableRelation(Symbol relation);

  std::shared_ptr<const Schema> schema_;
  Universe* universe_;
  std::map<Symbol, RelationExtent> relations_;
  std::map<Symbol, std::set<Oid>> classes_;
  std::unordered_map<Oid, ValueId, OidHash> nu_;
  std::unordered_map<Oid, Symbol, OidHash> class_of_;
  std::unordered_map<Oid, std::string, OidHash> oid_names_;
  std::vector<FactOp>* journal_ = nullptr;  // not owned; never copied/moved
};

}  // namespace iqlkit

#endif  // IQLKIT_MODEL_INSTANCE_H_
