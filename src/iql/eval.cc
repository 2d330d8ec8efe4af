#include "iql/eval.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/fault_injection.h"
#include "base/hash.h"
#include "base/logging.h"
#include "base/thread_pool.h"
#include "iql/extent.h"
#include "iql/il.h"
#include "iql/index.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "iql/vm.h"
#include "model/stats.h"

namespace iqlkit {

namespace {

double Seconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       from)
      .count();
}

// Approximate footprint charged to the MemoryAccountant per derived fact
// (set node in a relation/extent container + bookkeeping). Value nodes are
// charged exactly by the stores; facts only need an order-of-magnitude
// charge so max_memory_bytes tracks instance growth.
constexpr uint64_t kFactBytes = 64;

// The slice bounds that cover a rule's whole first multi-way branch.
constexpr size_t kWholeBranch = static_cast<size_t>(-1);

// A (partial) valuation theta of a rule's body variables (§3.2). Ordered
// map so valuations compare deterministically (for dedup and reproducible
// firing order).
using Bindings = std::map<Symbol, ValueId>;

// ---------------------------------------------------------------------------
// Term evaluation and matching against the step-start instance.
// ---------------------------------------------------------------------------

// Evaluates a term to an o-value under `b`. Returns nullopt when the term
// is not yet evaluable: an unbound variable, or a dereference x^ whose oid
// has an undefined nu-value (a valuation must be *defined* on every term of
// a literal for the literal to be satisfied, §3.2).
//
// All interning goes through `values`, so a parallel worker evaluating with
// a snapshot arena builds new o-values in its private side store while the
// coordinator (a passthrough arena) interns into the shared store.
std::optional<ValueId> EvalTerm(const Program& prog, TermId id,
                                const Bindings& b, const Instance& inst,
                                ValueArena& values) {
  const Term& t = prog.term(id);
  switch (t.kind) {
    case Term::Kind::kVar: {
      auto it = b.find(t.name);
      if (it == b.end()) return std::nullopt;
      return it->second;
    }
    case Term::Kind::kConst:
      return values.ConstSymbol(t.name);
    case Term::Kind::kRelName: {
      const auto& tuples = inst.Relation(t.name);
      return values.Set(std::vector<ValueId>(tuples.begin(), tuples.end()));
    }
    case Term::Kind::kClassName: {
      std::vector<ValueId> oids;
      for (Oid o : inst.ClassExtent(t.name)) oids.push_back(values.OfOid(o));
      return values.Set(std::move(oids));
    }
    case Term::Kind::kDeref: {
      auto it = b.find(t.name);
      if (it == b.end()) return std::nullopt;
      const ValueNode& n = values.node(it->second);
      if (n.kind != ValueKind::kOid) return std::nullopt;
      return inst.ValueOf(n.oid);  // nullopt when nu is undefined
    }
    case Term::Kind::kTuple: {
      std::vector<std::pair<Symbol, ValueId>> fields;
      fields.reserve(t.fields.size());
      for (const auto& [attr, child] : t.fields) {
        auto v = EvalTerm(prog, child, b, inst, values);
        if (!v.has_value()) return std::nullopt;
        fields.emplace_back(attr, *v);
      }
      return values.Tuple(std::move(fields));
    }
    case Term::Kind::kSet: {
      std::vector<ValueId> elems;
      elems.reserve(t.elems.size());
      for (TermId child : t.elems) {
        auto v = EvalTerm(prog, child, b, inst, values);
        if (!v.has_value()) return std::nullopt;
        elems.push_back(*v);
      }
      return values.Set(std::move(elems));
    }
  }
  return std::nullopt;
}

// True when matching `id` can be *attempted* under `b`: every variable
// under a dereference or inside a set constructor is already bound.
// (Matching binds variables at kVar and inside tuple positions only;
// derefs/sets must be evaluated, not decomposed.)
bool TermReady(const Program& prog, TermId id, const Bindings& b) {
  const Term& t = prog.term(id);
  switch (t.kind) {
    case Term::Kind::kVar:
    case Term::Kind::kConst:
    case Term::Kind::kRelName:
    case Term::Kind::kClassName:
      return true;
    case Term::Kind::kDeref:
      return b.count(t.name) > 0;
    case Term::Kind::kTuple:
      for (const auto& [attr, child] : t.fields) {
        if (!TermReady(prog, child, b)) return false;
      }
      return true;
    case Term::Kind::kSet: {
      std::set<Symbol> vars;
      prog.CollectVars(id, &vars);
      for (Symbol v : vars) {
        if (!b.count(v)) return false;
      }
      return true;
    }
  }
  return false;
}

// Matches pattern `id` against `value`, binding free variables (recorded in
// `trail` for undo). A variable binds only to values inside its type's
// interpretation (valuations are typed, §3.2) -- with union-typed data a
// pattern position can hold values outside the variable's type, and those
// must not match. Precondition: TermReady(id). Returns false on mismatch,
// leaving any partial bindings for the caller to undo.
bool MatchTerm(const Program& prog, const Rule& rule,
               TypeMembership* membership, TermId id, ValueId value,
               Bindings* b, std::vector<Symbol>* trail, const Instance& inst,
               ValueArena& values) {
  const Term& t = prog.term(id);
  switch (t.kind) {
    case Term::Kind::kVar: {
      auto it = b->find(t.name);
      if (it != b->end()) return it->second == value;
      if (!membership->Contains(rule.var_types.at(t.name), value)) {
        return false;
      }
      b->emplace(t.name, value);
      trail->push_back(t.name);
      return true;
    }
    case Term::Kind::kConst:
    case Term::Kind::kRelName:
    case Term::Kind::kClassName:
    case Term::Kind::kDeref:
    case Term::Kind::kSet: {
      auto v = EvalTerm(prog, id, *b, inst, values);
      return v.has_value() && *v == value;
    }
    case Term::Kind::kTuple: {
      const ValueNode& n = values.node(value);
      if (n.kind != ValueKind::kTuple ||
          n.fields.size() != t.fields.size()) {
        return false;
      }
      for (size_t i = 0; i < t.fields.size(); ++i) {
        if (n.fields[i].first != t.fields[i].first) return false;
        if (!MatchTerm(prog, rule, membership, t.fields[i].second,
                       n.fields[i].second, b, trail, inst, values)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

void UndoTrail(Bindings* b, std::vector<Symbol>* trail, size_t mark) {
  while (trail->size() > mark) {
    b->erase(trail->back());
    trail->pop_back();
  }
}

// The elements of a membership literal's left-hand side, if evaluable:
// rho(R) for a relation, pi(P) (as oid values) for a class, the elements
// of a bound set-typed variable or a bound, defined, set-valued x^.
std::optional<std::vector<ValueId>> ContainerElems(const Program& prog,
                                                   TermId lhs,
                                                   const Bindings& b,
                                                   const Instance& inst,
                                                   ValueArena& values) {
  const Term& t = prog.term(lhs);
  switch (t.kind) {
    case Term::Kind::kRelName: {
      const auto& tuples = inst.Relation(t.name);
      return std::vector<ValueId>(tuples.begin(), tuples.end());
    }
    case Term::Kind::kClassName: {
      std::vector<ValueId> out;
      for (Oid o : inst.ClassExtent(t.name)) out.push_back(values.OfOid(o));
      return out;
    }
    case Term::Kind::kVar:
    case Term::Kind::kDeref: {
      auto v = EvalTerm(prog, lhs, b, inst, values);
      if (!v.has_value()) return std::nullopt;
      const ValueNode& n = values.node(*v);
      if (n.kind != ValueKind::kSet) return std::vector<ValueId>{};
      return n.elems;
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Valuation enumeration: a backtracking solver over the body literals.
// ---------------------------------------------------------------------------

// One slice's machinery handed to a RuleSolver (see Slice).
// `index` and `estimator` may be null (indexing / scheduling disabled);
// `rule_metrics` may be null (metrics not requested). `values` is required:
// the coordinator passes a passthrough arena over the shared store, a
// parallel worker its private snapshot arena.
struct SolverContext {
  ExtentEnumerator* extents = nullptr;
  RelationIndex* index = nullptr;
  CardinalityEstimator* estimator = nullptr;
  RuleMetrics* rule_metrics = nullptr;
  ValueArena* values = nullptr;
  Governor* governor = nullptr;  // polled per enumerated candidate
  bool schedule = false;
};

class RuleSolver {
 public:
  // `delta_literal`/`delta_facts`: when set, body literal `delta_literal`
  // (a positive membership over a relation) ranges over -- and membership-
  // checks against -- the sorted `delta_facts` instead of the relation's
  // full extent (semi-naive evaluation).
  RuleSolver(const Program& prog, const Rule& rule, const Instance& inst,
             const SolverContext& ctx,
             size_t delta_literal = static_cast<size_t>(-1),
             const std::vector<ValueId>* delta_facts = nullptr)
      : prog_(prog),
        rule_(rule),
        inst_(inst),
        ctx_(ctx),
        delta_literal_(delta_literal),
        delta_facts_(delta_facts),
        membership_(&inst.universe()->types(), ctx.values, &inst) {
    done_.assign(rule.body.size(), false);
    lhs_vars_.resize(rule.body.size());
    rhs_vars_.resize(rule.body.size());
    field_vars_.resize(rule.body.size());
    // Precompute each literal's variables once; the solver's inner loops
    // test boundness constantly.
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].kind == Literal::Kind::kChoose) {
        done_[i] = true;  // handled at application time
        continue;
      }
      std::set<Symbol> lv, rv;
      prog.CollectVars(rule.body[i].lhs, &lv);
      prog.CollectVars(rule.body[i].rhs, &rv);
      lhs_vars_[i].assign(lv.begin(), lv.end());
      rhs_vars_[i].assign(rv.begin(), rv.end());
      // Per-field variable lists of tuple rhs patterns, for index keys.
      const Term& rhs = prog.term(rule.body[i].rhs);
      if (rule.body[i].kind == Literal::Kind::kMembership &&
          rhs.kind == Term::Kind::kTuple) {
        for (const auto& [attr, child] : rhs.fields) {
          std::set<Symbol> fv;
          prog.CollectVars(child, &fv);
          field_vars_[i].emplace_back(
              attr, std::vector<Symbol>(fv.begin(), fv.end()));
        }
      }
    }
  }

  // Invokes `cb` once per valuation theta of the body variables with
  // inst |= theta body (the satisfying valuations; the val-dom head filter
  // is applied by the caller).
  Status Solve(const std::function<Status(const Bindings&)>& cb) {
    return Step(cb);
  }

  // Probe mode: Solve() runs the (deterministic, single-path) prefix of
  // the enumeration up to the first multi-way branch -- a candidate-list
  // iteration or a type-extent range -- stores that branch's width in
  // `*width`, and returns without descending into it. The callback is
  // only reached when the enumeration has no multi-way branch at all, in
  // which case `*width` keeps its caller-initialized value.
  void SetProbe(size_t* width) { probe_width_ = width; }

  // Slice mode: the first multi-way branch iterates only candidates
  // [begin, end) of its list; every deeper branch iterates fully. The
  // candidate list is deterministic given the frozen instance, so slicing
  // [0, w) across workers partitions exactly the serial enumeration, in
  // order.
  void SetSlice(size_t begin, size_t end) {
    slice_begin_ = begin;
    slice_end_ = end;
  }

 private:
  bool VarsBound(const std::vector<Symbol>& vars) const {
    for (Symbol v : vars) {
      if (!bindings_.count(v)) return false;
    }
    return true;
  }

  // Fully checkable literal: both terms evaluable (all vars bound).
  bool IsCheckable(size_t i) const {
    return VarsBound(lhs_vars_[i]) && VarsBound(rhs_vars_[i]);
  }

  // Evaluates a fully-bound literal.
  bool Check(size_t index, const Literal& lit) const {
    ValueArena& values = *ctx_.values;
    auto rv = EvalTerm(prog_, lit.rhs, bindings_, inst_, values);
    if (!rv.has_value()) return false;
    if (index == delta_literal_) {
      // Semi-naive: the delta literal checks against the delta facts. The
      // delta holds shared-store ids; a side-store *rv is by construction
      // a value the shared store has never interned, so an id-level search
      // failing on it is the structurally correct answer.
      return std::binary_search(delta_facts_->begin(), delta_facts_->end(),
                                *rv);
    }
    auto lv = EvalTerm(prog_, lit.lhs, bindings_, inst_, values);
    // A valuation must be defined on both terms (undefined x^ fails both
    // polarities, §3.2).
    if (!lv.has_value()) return false;
    if (lit.kind == Literal::Kind::kEquality) {
      return (*lv == *rv) == lit.positive;
    }
    const ValueNode& ln = values.node(*lv);
    if (ln.kind != ValueKind::kSet) return false;
    return values.ElemsContain(ln.elems, *rv) == lit.positive;
  }

  // A generator the solver could branch on at the current choice point.
  struct GenChoice {
    size_t literal = 0;
    bool equality = false;
    bool flip = false;  // equality: rhs is the evaluable side
    // Membership only:
    bool impossible = false;  // a bound pattern field is undefined, or the
                              // container is a non-set value: zero matches
    bool container_known = false;
    RelationIndex::Container container{};
    std::vector<Symbol> attrs;  // bound tuple-pattern fields (ascending)
    std::vector<ValueId> key;   // their values under the current bindings
    bool use_index = false;
    double estimate = 0;  // expected branch count (0.5 for equalities)
  };

  // Inspects membership literal `i` as a generator under the current
  // bindings; false when ineligible (rhs not ready / lhs not evaluable).
  bool PrepareMembership(size_t i, GenChoice* c) {
    const Literal& lit = rule_.body[i];
    if (!TermReady(prog_, lit.rhs, bindings_)) return false;
    c->literal = i;
    double size = 0;
    if (i == delta_literal_) {
      size = static_cast<double>(delta_facts_->size());
    } else {
      const Term& lhs = prog_.term(lit.lhs);
      switch (lhs.kind) {
        case Term::Kind::kRelName:
          c->container = RelationIndex::Container::Relation(lhs.name);
          c->container_known = true;
          size = static_cast<double>(inst_.Relation(lhs.name).size());
          break;
        case Term::Kind::kClassName:
          c->container = RelationIndex::Container::Class(lhs.name);
          c->container_known = true;
          size = static_cast<double>(inst_.ClassExtent(lhs.name).size());
          break;
        case Term::Kind::kVar:
        case Term::Kind::kDeref: {
          auto v = EvalTerm(prog_, lit.lhs, bindings_, inst_, *ctx_.values);
          if (!v.has_value()) return false;  // lhs not evaluable yet
          const ValueNode& n = ctx_.values->node(*v);
          if (n.kind != ValueKind::kSet) {
            c->impossible = true;  // non-set container: no elements
            return true;
          }
          c->container = RelationIndex::Container::SetValue(*v);
          c->container_known = true;
          size = static_cast<double>(n.elems.size());
          break;
        }
        default:
          return false;
      }
    }
    // Index key: the tuple-pattern fields fully evaluable right now. A
    // bound field that evaluates to "undefined" (an x^ with no nu-value)
    // can match no element at all.
    if (ctx_.index != nullptr && c->container_known) {
      for (const auto& [attr, vars] : field_vars_[i]) {
        if (!VarsBound(vars)) continue;
        const Term& rhs = prog_.term(lit.rhs);
        TermId child = kInvalidTerm;
        for (const auto& [a, t] : rhs.fields) {
          if (a == attr) child = t;
        }
        auto v = EvalTerm(prog_, child, bindings_, inst_, *ctx_.values);
        if (!v.has_value()) {
          c->impossible = true;
          break;
        }
        c->attrs.push_back(attr);
        c->key.push_back(*v);
      }
      c->use_index = !c->impossible && !c->attrs.empty();
    }
    if (c->impossible) {
      c->estimate = 0;
    } else if (c->use_index) {
      if (ctx_.estimator != nullptr &&
          c->container.kind == RelationIndex::Container::Kind::kRelation) {
        c->estimate = ctx_.estimator->EstimateMatches(
            static_cast<Symbol>(c->container.id), c->attrs);
      } else {
        c->estimate = std::max(
            1.0, size / std::pow(4.0, static_cast<double>(c->attrs.size())));
      }
    } else {
      c->estimate = size;
    }
    return true;
  }

  // The next generator: under scheduling, the eligible one with the
  // smallest estimated branch count (equalities cost at most one branch,
  // and an empty container prunes the whole subtree); otherwise the first
  // eligible literal in body order, as in the paper's formulation.
  std::optional<GenChoice> PickGenerator() {
    std::optional<GenChoice> best;
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      if (done_[i]) continue;
      const Literal& lit = rule_.body[i];
      if (!lit.positive) continue;
      GenChoice c;
      bool eligible = false;
      if (lit.kind == Literal::Kind::kMembership) {
        eligible = PrepareMembership(i, &c);
      } else if (lit.kind == Literal::Kind::kEquality) {
        // One side evaluable, the other a ready pattern: single branch.
        for (bool flip : {false, true}) {
          const std::vector<Symbol>& src_vars =
              flip ? rhs_vars_[i] : lhs_vars_[i];
          TermId dst = flip ? lit.lhs : lit.rhs;
          if (VarsBound(src_vars) && TermReady(prog_, dst, bindings_)) {
            c.literal = i;
            c.equality = true;
            c.flip = flip;
            c.estimate = 0.5;
            eligible = true;
            break;
          }
        }
      }
      if (!eligible) continue;
      if (!ctx_.schedule) return c;
      if (!best || c.estimate < best->estimate) best = c;
    }
    return best;
  }

  Status GenerateMembership(const GenChoice& c,
                            const std::function<Status(const Bindings&)>& cb) {
    const Literal& lit = rule_.body[c.literal];
    // Resolve the candidate elements: the delta, an index bucket, the
    // materialized extent, or (with indexing off) a fresh scan.
    const std::vector<ValueId>* elems = nullptr;
    std::vector<ValueId> scan;  // ContainerElems fallback storage
    if (c.impossible) {
      elems = nullptr;
    } else if (c.literal == delta_literal_) {
      elems = delta_facts_;
    } else if (c.use_index) {
      elems = ctx_.index->Probe(c.container, c.attrs, c.key);
      if (ctx_.rule_metrics != nullptr) ++ctx_.rule_metrics->index_probes;
    } else if (ctx_.index != nullptr && c.container_known) {
      elems = &ctx_.index->Elems(c.container);
      if (ctx_.rule_metrics != nullptr) ++ctx_.rule_metrics->index_scans;
    } else {
      auto container =
          ContainerElems(prog_, lit.lhs, bindings_, inst_, *ctx_.values);
      if (container.has_value()) {
        scan = std::move(*container);
        elems = &scan;
      }
      if (ctx_.rule_metrics != nullptr) ++ctx_.rule_metrics->index_scans;
    }
    done_[c.literal] = true;
    if (elems != nullptr) {
      size_t lo = 0;
      size_t hi = elems->size();
      if (at_first_branch_) {
        at_first_branch_ = false;
        if (probe_width_ != nullptr) {
          *probe_width_ = elems->size();
          done_[c.literal] = false;
          return Status::Ok();
        }
        lo = std::min(slice_begin_, hi);
        hi = std::min(slice_end_, hi);
      }
      for (size_t k = lo; k < hi; ++k) {
        if (ctx_.governor != nullptr) {
          Status g = ctx_.governor->Poll();
          if (!g.ok()) {
            done_[c.literal] = false;
            return g;
          }
        }
        ValueId elem = (*elems)[k];
        size_t mark = trail_.size();
        if (MatchTerm(prog_, rule_, &membership_, lit.rhs, elem,
                      &bindings_, &trail_, inst_, *ctx_.values)) {
          Status s = Step(cb);
          if (!s.ok()) {
            done_[c.literal] = false;
            UndoTrail(&bindings_, &trail_, mark);
            return s;
          }
        }
        UndoTrail(&bindings_, &trail_, mark);
      }
    }
    done_[c.literal] = false;
    return Status::Ok();
  }

  Status GenerateEquality(const GenChoice& c,
                          const std::function<Status(const Bindings&)>& cb) {
    const Literal& lit = rule_.body[c.literal];
    TermId src = c.flip ? lit.rhs : lit.lhs;
    TermId dst = c.flip ? lit.lhs : lit.rhs;
    auto v = EvalTerm(prog_, src, bindings_, inst_, *ctx_.values);
    if (!v.has_value()) return Status::Ok();  // undefined: fail
    done_[c.literal] = true;
    size_t mark = trail_.size();
    Status s = Status::Ok();
    if (MatchTerm(prog_, rule_, &membership_, dst, *v, &bindings_, &trail_,
                  inst_, *ctx_.values)) {
      s = Step(cb);
    }
    UndoTrail(&bindings_, &trail_, mark);
    done_[c.literal] = false;
    return s;
  }

  Status Step(const std::function<Status(const Bindings&)>& cb) {
    // 1. Process checkable literals first (pure filters, no branching).
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      if (done_[i]) continue;
      const Literal& lit = rule_.body[i];
      if (!IsCheckable(i)) continue;
      if (!Check(i, lit)) return Status::Ok();  // this branch fails
      done_[i] = true;
      Status s = Step(cb);
      done_[i] = false;
      return s;
    }
    // 2. Use a positive literal as a generator.
    if (std::optional<GenChoice> choice = PickGenerator()) {
      return choice->equality ? GenerateEquality(*choice, cb)
                              : GenerateMembership(*choice, cb);
    }
    // 3. No literal is processable: range an unbound variable over its
    //    type extent (the paper's unrestricted-variable semantics).
    std::optional<Symbol> unbound;
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      for (const std::vector<Symbol>* vars : {&lhs_vars_[i], &rhs_vars_[i]}) {
        for (Symbol v : *vars) {
          if (!bindings_.count(v) && (!unbound || v < *unbound)) unbound = v;
        }
      }
    }
    if (unbound.has_value()) {
      TypeId t = rule_.var_types.at(*unbound);
      IQL_ASSIGN_OR_RETURN(const std::vector<ValueId>* extent,
                           ctx_.extents->Enumerate(t));
      size_t lo = 0;
      size_t hi = extent->size();
      if (at_first_branch_) {
        at_first_branch_ = false;
        if (probe_width_ != nullptr) {
          *probe_width_ = extent->size();
          return Status::Ok();
        }
        lo = std::min(slice_begin_, hi);
        hi = std::min(slice_end_, hi);
      }
      for (size_t k = lo; k < hi; ++k) {
        if (ctx_.governor != nullptr) {
          IQL_RETURN_IF_ERROR(ctx_.governor->Poll());
        }
        bindings_.emplace(*unbound, (*extent)[k]);
        Status s = Step(cb);
        bindings_.erase(*unbound);
        IQL_RETURN_IF_ERROR(s);
      }
      return Status::Ok();
    }
    // 4. Everything processed and bound: emit the valuation.
    return cb(bindings_);
  }

  const Program& prog_;
  const Rule& rule_;
  const Instance& inst_;
  SolverContext ctx_;
  size_t delta_literal_;
  const std::vector<ValueId>* delta_facts_;
  TypeMembership membership_;
  std::vector<bool> done_;
  std::vector<std::vector<Symbol>> lhs_vars_;
  std::vector<std::vector<Symbol>> rhs_vars_;
  // Per membership literal with a tuple rhs: (attr, vars of that field).
  std::vector<std::vector<std::pair<Symbol, std::vector<Symbol>>>>
      field_vars_;
  Bindings bindings_;
  std::vector<Symbol> trail_;
  // Probe/slice state (see SetProbe/SetSlice): consumed at the first
  // multi-way branch of the enumeration.
  bool at_first_branch_ = true;
  size_t* probe_width_ = nullptr;
  size_t slice_begin_ = 0;
  size_t slice_end_ = static_cast<size_t>(-1);
};

// Executor dispatch facade: exactly one of the two solvers is engaged per
// (rule, solve). The register VM runs compiled rules; a rule outside the
// VM-eligible fragment (or any rule under tree_walk_oracle) stays on the
// tree-walker. Both sides share the probe/slice/callback protocol, so the
// enumeration driver below is executor-agnostic.
struct AnySolver {
  std::optional<RuleSolver> tree;
  std::optional<vm::VmSolver> regvm;

  Status Solve(const std::function<Status(const Bindings&)>& cb) {
    return regvm.has_value() ? regvm->Solve(cb) : tree->Solve(cb);
  }
  void SetProbe(size_t* width) {
    if (regvm.has_value()) {
      regvm->SetProbe(width);
    } else {
      tree->SetProbe(width);
    }
  }
  void SetSlice(size_t begin, size_t end) {
    if (regvm.has_value()) {
      regvm->SetSlice(begin, end);
    } else {
      tree->SetSlice(begin, end);
    }
  }
};

// ---------------------------------------------------------------------------
// Valuation-domain head filter: "no extension theta-bar of theta satisfies
// head(r)" (§3.2). Head-only variables range over existing oids.
// ---------------------------------------------------------------------------

class HeadSatisfiability {
 public:
  HeadSatisfiability(const Program& prog, const Rule& rule,
                     const Instance& inst, ValueArena* values,
                     bool use_fast_path = true)
      : prog_(prog),
        rule_(rule),
        inst_(inst),
        values_(values),
        use_fast_path_(use_fast_path),
        membership_(&inst.universe()->types(), values, &inst) {
    std::set<Symbol> vars;
    prog.CollectVars(rule.head.rhs, &vars);
    rhs_vars_.assign(vars.begin(), vars.end());
  }

  bool RhsVarsBound(const Bindings& b) const {
    for (Symbol v : rhs_vars_) {
      if (!b.count(v)) return false;
    }
    return true;
  }

  // True if some extension of `theta` over the head-only variables (to
  // *existing* oids of their classes) satisfies the head in `inst`.
  bool Satisfiable(const Bindings& theta) {
    Bindings b = theta;
    std::vector<Symbol> trail;
    const Literal& head = rule_.head;
    ValueArena& values = *values_;
    if (head.kind == Literal::Kind::kMembership) {
      const Term& lhs = prog_.term(head.lhs);
      if (lhs.kind == Term::Kind::kDeref && !b.count(lhs.name)) {
        // x^(t) with x itself head-only: try every existing oid of x's
        // class.
        const TypeNode& xt =
            inst_.universe()->types().node(rule_.var_types.at(lhs.name));
        for (Oid o : inst_.ClassExtent(xt.class_name)) {
          b[lhs.name] = values.OfOid(o);
          if (MembershipSatisfiable(head, &b)) return true;
          b.erase(lhs.name);
        }
        return false;
      }
      return MembershipSatisfiable(head, &b);
    }
    // Equality head x^ = t.
    const Term& lhs = prog_.term(head.lhs);
    IQL_CHECK(lhs.kind == Term::Kind::kDeref);
    if (!b.count(lhs.name)) {
      const TypeNode& xt =
          inst_.universe()->types().node(rule_.var_types.at(lhs.name));
      for (Oid o : inst_.ClassExtent(xt.class_name)) {
        b[lhs.name] = values.OfOid(o);
        if (EqualitySatisfiable(head, &b)) return true;
        b.erase(lhs.name);
      }
      return false;
    }
    return EqualitySatisfiable(head, &b);
  }

 private:
  bool MembershipSatisfiable(const Literal& head, Bindings* b) {
    // Fast path: a fully-bound head needs a membership lookup, not a scan
    // (the common case for rules without invention).
    if (use_fast_path_ && RhsVarsBound(*b)) {
      auto rv = EvalTerm(prog_, head.rhs, *b, inst_, *values_);
      if (!rv.has_value()) return false;
      const Term& lhs = prog_.term(head.lhs);
      switch (lhs.kind) {
        case Term::Kind::kRelName:
          // By id, so a side-store value (structurally new) is simply not
          // found.
          return inst_.RelationContains(lhs.name, *rv);
        case Term::Kind::kClassName: {
          const ValueNode& rn = values_->node(*rv);
          return rn.kind == ValueKind::kOid &&
                 inst_.OidInClass(rn.oid, lhs.name);
        }
        case Term::Kind::kVar:
        case Term::Kind::kDeref: {
          auto lv = EvalTerm(prog_, head.lhs, *b, inst_, *values_);
          if (!lv.has_value()) return false;
          const ValueNode& ln = values_->node(*lv);
          if (ln.kind != ValueKind::kSet) return false;
          return values_->ElemsContain(ln.elems, *rv);
        }
        default:
          return false;
      }
    }
    auto container = ContainerElems(prog_, head.lhs, *b, inst_, *values_);
    if (!container.has_value()) return false;
    std::vector<Symbol> trail;
    for (ValueId elem : *container) {
      size_t mark = trail.size();
      // Head-only variables not under the matched positions (e.g. inside a
      // deref) make MatchTerm evaluate to nullopt and fail, which is the
      // conservative direction: the rule fires more often, and the
      // application layer deduplicates.
      if (MatchTerm(prog_, rule_, &membership_, head.rhs, elem, b, &trail,
                    inst_, *values_)) {
        UndoTrail(b, &trail, mark);
        return true;
      }
      UndoTrail(b, &trail, mark);
    }
    return false;
  }

  bool EqualitySatisfiable(const Literal& head, Bindings* b) {
    auto lv = EvalTerm(prog_, head.lhs, *b, inst_, *values_);
    if (!lv.has_value()) return false;  // nu undefined: no extension
    std::vector<Symbol> trail;
    size_t mark = trail.size();
    bool ok = TermReady(prog_, head.rhs, *b) &&
              MatchTerm(prog_, rule_, &membership_, head.rhs, *lv, b,
                        &trail, inst_, *values_);
    UndoTrail(b, &trail, mark);
    return ok;
  }

  const Program& prog_;
  const Rule& rule_;
  const Instance& inst_;
  ValueArena* values_;
  bool use_fast_path_;
  TypeMembership membership_;
  std::vector<Symbol> rhs_vars_;
};

// ---------------------------------------------------------------------------
// One-step application.
// ---------------------------------------------------------------------------

struct Derivation {
  const Rule* rule;
  Bindings theta;
};

// Receives the valuations of one rule solve, in the serial enumeration
// order and with every value in the shared store.
using EmitFn = std::function<void(const Bindings&)>;

// The enumeration machinery one slice of a rule solve runs against: the
// coordinator's, over a passthrough arena, or a parallel worker's, over a
// private snapshot arena.
struct Slice {
  explicit Slice(ValueArena a) : arena(std::move(a)) {}
  ValueArena arena;
  std::optional<ExtentEnumerator> extents;
  std::optional<RelationIndex> index;
  std::optional<CardinalityEstimator> estimator;
  RelationIndex::Counters folded;  // index counters already in EvalMetrics
  RuleMetrics shard;  // a worker's rule counters, summed into the rule
};

// One rule solve against the frozen step instance: what every slice of it
// shares.
struct RuleSolve {
  const Instance* inst = nullptr;
  size_t rule = 0;
  size_t delta_literal = il::kNoDelta;
  const std::vector<ValueId>* delta_facts = nullptr;
  bool filter_head = false;
  const il::CompiledRule* compiled = nullptr;
  const vm::PreparedRule* prepared = nullptr;
};

// One parallel chunk: a contiguous range of the first branch's candidates.
struct Chunk {
  size_t worker = 0;
  std::vector<Bindings> thetas;
  Status status = Status::Ok();
};

class StageRunner {
 public:
  // `pool` is null when the run is serial (num_threads resolved to 1);
  // otherwise it is shared across the program's stages.
  StageRunner(Universe* universe, const Schema& schema, const Program& prog,
              const std::vector<Rule>& rules, const EvalOptions& options,
              EvalStats* stats, ThreadPool* pool, Governor* governor)
      : u_(universe),
        schema_(schema),
        prog_(prog),
        rules_(rules),
        options_(options),
        stats_(stats),
        metrics_(options.metrics),
        pool_(pool),
        governor_(governor),
        choose_rng_(options.choose_seed) {
    for (const Rule& rule : rules_) {
      if (rule.head_negative) has_deletions_ = true;
    }
    // A rule's enumeration may fan out only when every variable type is
    // intersection-free: extent enumeration compiles intersections away by
    // interning new nodes into the shared TypePool, which workers must not
    // mutate. Such rules (and any whose first branch is narrow) run as the
    // one inline slice.
    rule_parallel_.assign(rules_.size(), true);
    for (size_t i = 0; i < rules_.size(); ++i) {
      for (const auto& [var, t] : rules_[i].var_types) {
        if (!u_->types().IsIntersectionFree(t)) rule_parallel_[i] = false;
      }
    }
    if (metrics_ != nullptr) {
      size_t first = metrics_->rules.size();
      for (const Rule& rule : rules_) {
        metrics_->rules.push_back(RuleMetrics{
            rule.stage, rule.index,
            prog_.RuleToString(rule, universe->symbols())});
      }
      rule_metrics_.reserve(rules_.size());
      for (size_t i = 0; i < rules_.size(); ++i) {
        rule_metrics_.push_back(&metrics_->rules[first + i]);
      }
    }
    if (!options_.tree_walk_oracle) {
      compiled_.resize(rules_.size());
      for (size_t i = 0; i < rules_.size(); ++i) {
        compiled_[i] = il::CompileRule(prog_, rules_[i]);
      }
    }
  }

  // Iterates the one-step operator to a fixpoint. Every step, naive or
  // semi-naive, passes the same boundary: the budget and governor check
  // before it, and the step count, durable commit, round record and trace
  // line after it.
  Status Run(Instance* work) {
    // A stage resumed mid-fixpoint (start_step_ > 0) always runs the naive
    // operator: WAL frames are step-granular, and for semi-naive-eligible
    // stages the naive iteration reaches the identical fixpoint from any
    // committed intermediate state (monotone, invention-free).
    const bool seminaive = options_.enable_seminaive && start_step_ == 0 &&
                           EligibleForSemiNaive();
    Delta delta;  // semi-naive: the facts the previous round added
    for (uint64_t step = start_step_;; ++step) {
      // Step-boundary governor check: the instance sits exactly on a
      // completed-step boundary here, so any trip (step budget, deadline,
      // cancel, memory) rolls back for free. The budget is read through
      // the governor so an external TightenSteps binds at the next round,
      // and a kSteps trip always leaves exactly `limits.max_steps_per_stage`
      // completed steps -- which is what lets tests reproduce a tripped
      // run's instance by re-running with the observed step count.
      if (step >= governor_->max_steps()) {
        return governor_->TripNow(TripReason::kSteps);
      }
      IQL_RETURN_IF_ERROR(governor_->CheckNow());
      auto step_start = std::chrono::steady_clock::now();
      uint64_t added_before = stats_->facts_added;
      step_partitions_ = 0;
      apply_seconds_ = 0;
      // A naive step reads its frozen step-start instance, so fresh
      // per-step machinery needs no invalidation. A semi-naive stage only
      // ever adds relation facts, so its one stage-long index stays valid
      // under incremental AddRelationFact maintenance (class extents and
      // set values cannot change here).
      if (!seminaive || !coordinator_.has_value()) {
        coordinator_.emplace(ValueArena::Passthrough(&u_->values()));
      }
      Equip(*work, &*coordinator_);
      IQL_ASSIGN_OR_RETURN(StepOutcome outcome,
                           seminaive ? SemiNaiveRound(step, work, &delta)
                                     : NaiveStep(work));
      ++prepared_epoch_;  // the commit invalidates prepared rule state
      if (!outcome.applied) return Status::Ok();
      ++stats_->steps;
      IQL_RETURN_IF_ERROR(CommitDurable(step, work));
      if (metrics_ != nullptr) {
        metrics_->rounds.push_back(RoundMetrics{
            stage_index_, step, seminaive, stats_->facts_added - added_before,
            work->GroundFactCount(), Seconds(step_start), apply_seconds_});
      }
      if (options_.trace != nullptr) {
        std::ostream& trace = *options_.trace;
        trace << "stage " << stage_index_;
        if (seminaive) {
          trace << " (semi-naive) round " << step << ": facts "
                << work->GroundFactCount();
        } else {
          trace << " step " << step << ": val-dom " << outcome.val_dom
                << ", facts " << work->GroundFactCount() << ", invented "
                << stats_->invented_oids;
        }
        if (step_partitions_ > 0) {
          trace << ", parallel partitions " << step_partitions_;
        }
        trace << "\n";
      }
      if (outcome.fixpoint) return Status::Ok();
    }
  }

 private:
  using Delta = std::map<Symbol, std::vector<ValueId>>;

  // What one application of the operator did.
  struct StepOutcome {
    // False when val-dom was empty: the instance is already a fixpoint and
    // no step happened.
    bool applied = false;
    bool fixpoint = false;  // no further step can change the instance
    size_t val_dom = 0;     // naive steps: |val-dom|
  };

  // The compiled IL for (rule, delta_literal), or nullptr when the rule is
  // outside the VM-eligible fragment or tree_walk_oracle is set.
  // Coordinator-only: delta variants compile lazily into a node-stable
  // map; workers receive the resulting pointer and never call this.
  const il::CompiledRule* Compiled(size_t r, size_t delta_literal) {
    if (options_.tree_walk_oracle) return nullptr;
    if (delta_literal == il::kNoDelta) {
      return compiled_[r].has_value() ? &*compiled_[r] : nullptr;
    }
    auto key = std::make_pair(r, delta_literal);
    auto it = delta_compiled_.find(key);
    if (it == delta_compiled_.end()) {
      it = delta_compiled_
               .emplace(key, il::CompileRule(prog_, rules_[r], delta_literal))
               .first;
    }
    return it->second.has_value() ? &*it->second : nullptr;
  }

  // Constructs the executor-selected solver for `solve` into `out`: the
  // register VM for a compiled rule, the tree-walker otherwise.
  void MakeSolver(AnySolver* out, const RuleSolve& solve,
                  const SolverContext& ctx) const {
    if (solve.compiled != nullptr) {
      vm::VmContext vctx;
      vctx.extents = ctx.extents;
      vctx.index = ctx.index;
      vctx.rule_metrics = ctx.rule_metrics;
      vctx.values = ctx.values;
      vctx.governor = ctx.governor;
      vctx.prepared = solve.prepared;
      out->regvm.emplace(*solve.compiled, *solve.inst, vctx,
                         solve.delta_facts);
    } else {
      out->tree.emplace(prog_, rules_[solve.rule], *solve.inst, ctx,
                        solve.delta_literal, solve.delta_facts);
    }
  }

  // Prepared state for `cr` against the current committed instance: the
  // kLoadRel / kLoadClass materializations and index-off candidate lists
  // a Solve call would otherwise repay on every invocation within a
  // fixpoint round. Coordinator-only, and always called before any worker
  // fork for the same solve (workers snapshot the shared store *after*
  // preparation, so the interned ids are visible read-only). Entries are
  // keyed by the node-stable CompiledRule address and invalidated by
  // epoch: every commit bumps prepared_epoch_, exactly the boundaries at
  // which the instance (and the semi-naive delta machinery) advances.
  const vm::PreparedRule* Prepared(const il::CompiledRule* cr,
                                   const Instance& inst) {
    if (cr == nullptr) return nullptr;
    auto& slot = prepared_[cr];
    if (slot.second.at.empty() || slot.first != prepared_epoch_) {
      ValueArena arena = ValueArena::Passthrough(&u_->values());
      slot.second =
          vm::PrepareRule(*cr, inst, arena, options_.enable_indexing);
      slot.first = prepared_epoch_;
    }
    return &slot.second;
  }

  // Variables bound by pattern matching inside `id`: var and tuple-field
  // positions. Derefs and set constructors are evaluated, not decomposed,
  // so their variables are not binding occurrences.
  void CollectBindableVars(TermId id, std::set<Symbol>* out) const {
    const Term& t = prog_.term(id);
    switch (t.kind) {
      case Term::Kind::kVar:
        out->insert(t.name);
        return;
      case Term::Kind::kTuple:
        for (const auto& [attr, child] : t.fields) {
          CollectBindableVars(child, out);
        }
        return;
      default:
        return;
    }
  }

  // Semi-naive eligibility (see EvalOptions::enable_seminaive): relation
  // heads only, no invention/choose/deletion, Datalog-safe bodies (every
  // variable bound by a positive relation/class membership pattern, so the
  // extent fallback never runs and new constants cannot enlarge ranges),
  // and no negation over a relation derived in this stage.
  bool EligibleForSemiNaive() const {
    std::set<Symbol> derived;
    for (const Rule& rule : rules_) {
      if (rule.head_negative || rule.has_choose ||
          !rule.invented_vars.empty()) {
        return false;
      }
      if (rule.head.kind != Literal::Kind::kMembership) return false;
      const Term& lhs = prog_.term(rule.head.lhs);
      if (lhs.kind != Term::Kind::kRelName) return false;
      derived.insert(lhs.name);
    }
    for (const Rule& rule : rules_) {
      std::set<Symbol> bindable;
      for (const Literal& lit : rule.body) {
        if (lit.kind != Literal::Kind::kMembership || !lit.positive) {
          continue;
        }
        const Term& lhs = prog_.term(lit.lhs);
        if (lhs.kind == Term::Kind::kRelName ||
            lhs.kind == Term::Kind::kClassName) {
          CollectBindableVars(lit.rhs, &bindable);
        }
      }
      std::set<Symbol> body_vars;
      for (const Literal& lit : rule.body) {
        prog_.CollectVars(lit, &body_vars);
        if (lit.kind == Literal::Kind::kMembership && !lit.positive) {
          const Term& lhs = prog_.term(lit.lhs);
          if (lhs.kind == Term::Kind::kRelName && derived.count(lhs.name)) {
            return false;  // negation over an in-stage relation
          }
        }
      }
      for (Symbol v : body_vars) {
        if (!bindable.count(v)) return false;
      }
    }
    return true;
  }

  // One naive step: val-dom against the step-start instance, then every
  // derivation applied at once.
  Result<StepOutcome> NaiveStep(Instance* work) {
    IQL_ASSIGN_OR_RETURN(std::vector<Derivation> derivations,
                         ValuationDomain(*work));
    coordinator_.reset();  // application needs no enumeration machinery
    if (derivations.empty()) return StepOutcome{};
    // Snapshot for net-change detection: with deletions in play, a step
    // whose insertions and deletions cancel out (J = I) is a fixpoint
    // even though individual operations fired.
    std::optional<Instance> before;
    if (has_deletions_) before = *work;
    IQL_ASSIGN_OR_RETURN(bool changed, Apply(derivations, work));
    bool fixpoint =
        !changed || (before.has_value() && work->EqualGroundFacts(*before));
    return StepOutcome{true, fixpoint, derivations.size()};
  }

  Result<std::vector<Derivation>> ValuationDomain(const Instance& inst) {
    std::vector<Derivation> out;
    for (size_t r = 0; r < rules_.size(); ++r) {
      const Rule& rule = rules_[r];
      // val-dom is a *set* of (r, theta): deduplication matters only for
      // invention rules (a duplicate theta would mint extra oids); for
      // ordinary heads, firing twice derives the same fact.
      bool dedupe = !rule.invented_vars.empty();
      std::set<Bindings> seen;
      IQL_RETURN_IF_ERROR(ForEachValuation(
          inst, r, il::kNoDelta, nullptr, /*filter_head=*/true,
          [&](const Bindings& theta) {
            if (!dedupe || seen.insert(theta).second) {
              out.push_back({&rule, theta});
            }
          }));
    }
    return out;
  }

  // One semi-naive round. Round 0 evaluates every rule in full; a later
  // round evaluates each rule once per positive relation literal whose
  // relation gained facts in the previous round, with that literal ranging
  // over just the new facts. The round's new facts are applied at once and
  // become the next round's delta.
  Result<StepOutcome> SemiNaiveRound(uint64_t round, Instance* work,
                                     Delta* delta) {
    struct PendingFact {
      Symbol rel;
      ValueId v;
      RuleMetrics* rm;
    };
    std::vector<PendingFact> pending;
    for (auto& [rel, facts] : *delta) std::sort(facts.begin(), facts.end());
    for (size_t r = 0; r < rules_.size(); ++r) {
      const Rule& rule = rules_[r];
      RuleMetrics* rm = rule_metrics_.empty() ? nullptr : rule_metrics_[r];
      Symbol head_rel = prog_.term(rule.head.lhs).name;
      auto solve = [&](size_t delta_literal,
                       const std::vector<ValueId>* delta_facts) {
        return ForEachValuation(
            *work, r, delta_literal, delta_facts, /*filter_head=*/false,
            [&](const Bindings& theta) {
              auto v = EvalTerm(prog_, rule.head.rhs, theta, *work,
                                coordinator_->arena);
              if (v.has_value()) pending.push_back({head_rel, *v, rm});
            });
      };
      if (round == 0) {
        IQL_RETURN_IF_ERROR(solve(il::kNoDelta, nullptr));
        continue;
      }
      for (size_t d = 0; d < rule.body.size(); ++d) {
        const Literal& lit = rule.body[d];
        if (lit.kind != Literal::Kind::kMembership || !lit.positive) {
          continue;
        }
        const Term& lhs = prog_.term(lit.lhs);
        if (lhs.kind != Term::Kind::kRelName) continue;
        auto it = delta->find(lhs.name);
        if (it == delta->end() || it->second.empty()) continue;
        IQL_RETURN_IF_ERROR(solve(d, &it->second));
      }
    }
    auto apply_start = std::chrono::steady_clock::now();
    Delta next;
    for (const auto& [rel, v, rm] : pending) {
      if (work->RelationContains(rel, v)) continue;
      IQL_RETURN_IF_ERROR(work->AddToRelation(rel, v));
      ++stats_->facts_added;
      governor_->accountant()->Charge(kFactBytes);
      if (rm != nullptr) ++rm->facts_added;
      if (coordinator_->index.has_value()) {
        coordinator_->index->AddRelationFact(rel, v);
      }
      next[rel].push_back(v);
    }
    apply_seconds_ += Seconds(apply_start);
    *delta = std::move(next);
    return StepOutcome{true, delta->empty(), 0};
  }

  // Sets up the enumeration machinery of one slice against the frozen
  // `inst`: the one set-up for the coordinator and every worker. Extents
  // are rebuilt per call; an index or estimator the slice already holds is
  // kept (a semi-naive coordinator's is stage-long).
  void Equip(const Instance& inst, Slice* slice) {
    slice->extents.emplace(&inst, options_.limits.extent_budget,
                           &slice->arena);
    slice->extents->set_governor(governor_);
    if (options_.enable_indexing && !slice->index.has_value()) {
      slice->index.emplace(&inst, &slice->arena);
    }
    if (options_.enable_scheduling && !slice->estimator.has_value()) {
      slice->estimator.emplace(&inst);
    }
  }

  SolverContext ContextOf(Slice* slice, RuleMetrics* counters) const {
    SolverContext ctx;
    ctx.extents = &*slice->extents;
    ctx.index = slice->index.has_value() ? &*slice->index : nullptr;
    ctx.estimator =
        slice->estimator.has_value() ? &*slice->estimator : nullptr;
    ctx.rule_metrics = counters;
    ctx.values = &slice->arena;
    ctx.governor = governor_;
    ctx.schedule = options_.enable_scheduling;
    return ctx;
  }

  // Measures the width of the rule's first multi-way branch against the
  // frozen instance on the coordinator's machinery, without enumerating
  // past it. Zero when the enumeration dies, or never branches, before any
  // candidate list.
  Result<size_t> ProbeBranchWidth(const RuleSolve& solve) {
    size_t width = 0;
    AnySolver probe;
    // Probe work is not attributed to the rule.
    MakeSolver(&probe, solve, ContextOf(&*coordinator_, nullptr));
    probe.SetProbe(&width);
    IQL_RETURN_IF_ERROR(
        probe.Solve([](const Bindings&) { return Status::Ok(); }));
    return width;
  }

  // The enumeration driver: hands `emit` every satisfying valuation of rule
  // `r` against the frozen `inst` -- with the delta literal ranging over
  // `delta_facts` when one is given, and, with `filter_head`, only the
  // valuations in val-dom -- in the serial enumeration order.
  //
  // Without a pool, for an intersection-typed rule, or when the first
  // multi-way branch is narrower than parallel_min_candidates, one
  // unbounded slice runs inline on the coordinator and streams each theta
  // to `emit`. Otherwise the same per-slice body runs on contiguous chunks
  // of that branch, which the pool's workers claim dynamically, and the
  // merge emits the chunks' valuations in chunk order.
  Status ForEachValuation(const Instance& inst, size_t r,
                          size_t delta_literal,
                          const std::vector<ValueId>* delta_facts,
                          bool filter_head, const EmitFn& emit) {
    RuleMetrics* rm = rule_metrics_.empty() ? nullptr : rule_metrics_[r];
    RuleSolve solve{&inst, r, delta_literal, delta_facts, filter_head,
                    Compiled(r, delta_literal)};
    solve.prepared = Prepared(solve.compiled, inst);
    size_t width = 0;  // zero: run the one inline slice
    if (pool_ != nullptr && rule_parallel_[r]) {
      IQL_ASSIGN_OR_RETURN(width, ProbeBranchWidth(solve));
      if (width < options_.parallel_min_candidates) width = 0;
    }
    auto start = std::chrono::steady_clock::now();
    if (rm != nullptr) ++rm->invocations;
    derivations_.store(stats_->derivations, std::memory_order_relaxed);
    std::vector<std::optional<Slice>> workers;
    std::vector<Chunk> chunks;
    Status s = width == 0
                   ? SolveSlice(solve, &*coordinator_, rm, 0, kWholeBranch,
                                emit)
                   : Scatter(solve, width, &workers, &chunks);
    // Every exit, tripped or not, leaves the counters consistent: the
    // derivation count is written back, and every slice's index and rule
    // counters are folded.
    stats_->derivations = derivations_.load(std::memory_order_relaxed);
    std::vector<Slice*> slices = {&*coordinator_};
    for (std::optional<Slice>& worker : workers) slices.push_back(&*worker);
    for (Slice* slice : slices) FoldIndexCounters(slice, rm);
    if (s.ok() && width > 0) {
      // Canonical merge: rehome each valuation into the shared store, chunk
      // by chunk in chunk order -- exactly the serial enumeration order, so
      // invention, choose and weak assignment downstream see the canonical
      // derivation sequence.
      for (const Chunk& chunk : chunks) {
        ValueArena& arena = workers[chunk.worker]->arena;
        for (const Bindings& theta : chunk.thetas) {
          Bindings rehomed;
          for (const auto& [var, v] : theta) {
            rehomed.emplace(var, arena.RehomeInto(&u_->values(), v));
          }
          emit(rehomed);
        }
      }
      if (rm != nullptr) rm->parallel_partitions += chunks.size();
      step_partitions_ += chunks.size();
    }
    if (rm != nullptr) rm->seconds += Seconds(start);
    return s;
  }

  // The per-slice body of every rule solve: enumerates candidates [begin,
  // end) of the rule's first multi-way branch on `slice`'s machinery,
  // counts each valuation against max_derivations (into `counters` too,
  // when set), applies the val-dom head filter and hands the survivors to
  // `sink`.
  Status SolveSlice(const RuleSolve& solve, Slice* slice,
                    RuleMetrics* counters, size_t begin, size_t end,
                    const EmitFn& sink) {
    const Rule& rule = rules_[solve.rule];
    // The "no extension satisfies the head" filter applies to inflationary
    // heads only; a deletion rule (IQL*) is applicable whenever its body is
    // satisfied (deleting an absent fact is a no-op caught by net-change
    // detection).
    std::optional<HeadSatisfiability> head;
    if (solve.filter_head && !rule.head_negative) {
      head.emplace(prog_, rule, *solve.inst, &slice->arena,
                   !options_.disable_head_fast_path);
    }
    AnySolver solver;
    MakeSolver(&solver, solve, ContextOf(slice, counters));
    solver.SetSlice(begin, end);
    return solver.Solve([&](const Bindings& theta) -> Status {
      if (derivations_.fetch_add(1, std::memory_order_relaxed) >=
          options_.limits.max_derivations) {
        return governor_->TripNow(TripReason::kDerivations);
      }
      if (counters != nullptr) ++counters->derivations;
      if (head.has_value() && head->Satisfiable(theta)) {
        return Status::Ok();  // not in val-dom
      }
      sink(theta);
      return Status::Ok();
    });
  }

  // Runs the per-slice body on the pool over contiguous chunks of the
  // rule's first branch (`width` candidates, as probed). Each worker
  // equips a slice over a private snapshot arena, so new o-values intern
  // into its side store, and buffers each chunk's valuations; `workers`
  // and `chunks` are left for the caller's fold and merge. Estimates and
  // extents are deterministic functions of the frozen instance, so every
  // worker (and the coordinator's probe) makes the same generator choices
  // and sees the same candidate lists.
  Status Scatter(const RuleSolve& solve, size_t width,
                 std::vector<std::optional<Slice>>* workers,
                 std::vector<Chunk>* chunks) {
    // More chunks than workers smooths skew from uneven subtree sizes;
    // chunk *order*, not assignment, determines the merged output.
    size_t chunk_count = std::min(width, pool_->workers() * 4);
    chunks->resize(chunk_count);
    *workers = std::vector<std::optional<Slice>>(
        std::min(pool_->workers(), chunk_count));
    std::atomic<size_t> next_chunk{0};
    std::atomic<bool> abort{false};
    pool_->ParallelRun(workers->size(), [&](size_t w) {
      Slice& slice =
          (*workers)[w].emplace(ValueArena::Snapshot(&u_->values()));
      slice.arena.set_accountant(governor_->accountant());
      Equip(*solve.inst, &slice);
      for (;;) {
        // A sticky governor trip on any thread drains the whole pool: every
        // worker observes it either here or at its solver's next poll.
        if (abort.load(std::memory_order_relaxed) || governor_->tripped()) {
          return;
        }
        size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= chunk_count) return;
        Chunk& chunk = (*chunks)[c];
        chunk.worker = w;
        if (FaultInjector::Global().ShouldFail(FaultSite::kWorkerTask)) {
          // An injected worker-task fault is reported through the governor
          // so the step aborts with the standard rollback guarantee.
          chunk.status = governor_->TripNow(TripReason::kFault);
        } else {
          chunk.status = SolveSlice(
              solve, &slice, &slice.shard, c * width / chunk_count,
              (c + 1) * width / chunk_count,
              [&chunk](const Bindings& theta) {
                chunk.thetas.push_back(theta);
              });
        }
        if (!chunk.status.ok()) {
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    // Any failed chunk fails the step (the one inline slice would have
    // surfaced the same class of error within the same enumeration).
    for (const Chunk& chunk : *chunks) {
      IQL_RETURN_IF_ERROR(chunk.status);
    }
    // Belt and braces: a sticky trip always fails the step even if every
    // chunk drained before storing the error.
    return governor_->Poll();
  }

  // Folds one slice's counters into the run's: what its index counted
  // since the last fold into EvalMetrics (a semi-naive coordinator's index
  // is stage-long), and a worker's rule counters into `rm`.
  void FoldIndexCounters(Slice* slice, RuleMetrics* rm) {
    if (rm != nullptr) {
      rm->derivations += slice->shard.derivations;
      rm->index_probes += slice->shard.index_probes;
      rm->index_scans += slice->shard.index_scans;
      rm->vm_instructions += slice->shard.vm_instructions;
    }
    if (metrics_ == nullptr || !slice->index.has_value()) return;
    const RelationIndex::Counters& c = slice->index->counters();
    metrics_->index_builds += c.builds - slice->folded.builds;
    metrics_->index_probes += c.probes - slice->folded.probes;
    metrics_->index_hits += c.hits - slice->folded.hits;
    slice->folded = c;
  }

  // Applies all derivations "in parallel": inventions first (the
  // valuation-map), then fact derivation, then weak assignment per (*),
  // then IQL* deletions. Returns whether the instance changed.
  Result<bool> Apply(const std::vector<Derivation>& derivations,
                     Instance* work) {
    ValueStore& values = u_->values();
    // Application always runs on the coordinator against the shared store.
    ValueArena arena = ValueArena::Passthrough(&values);
    struct PendingAssignment {
      std::set<ValueId> candidates;
      RuleMetrics* rm = nullptr;
    };
    // Inflationary adds carry the deriving rule's metrics slot so that
    // facts_added can be attributed per rule at insertion time.
    struct RelAdd {
      Symbol rel;
      ValueId v;
      RuleMetrics* rm;
    };
    struct OidAdd {
      Symbol cls;
      Oid o;
      RuleMetrics* rm;
    };
    struct SetInsert {
      Oid o;
      ValueId v;
      RuleMetrics* rm;
    };
    std::vector<RelAdd> rel_adds;
    std::vector<OidAdd> oid_adds;  // invented oids + class heads
    std::vector<SetInsert> set_inserts;
    std::map<Oid, PendingAssignment> assignments;
    std::set<Oid> invented_this_step;
    std::vector<std::pair<Symbol, ValueId>> rel_dels;
    std::vector<Oid> oid_dels;
    std::vector<std::pair<Oid, ValueId>> set_removals;
    std::vector<std::pair<Oid, ValueId>> value_retractions;

    for (const Derivation& d : derivations) {
      const Rule& rule = *d.rule;
      RuleMetrics* rm =
          rule_metrics_.empty()
              ? nullptr
              : rule_metrics_[static_cast<size_t>(d.rule - rules_.data())];
      Bindings b = d.theta;
      // Valuation-map: bind head-only variables.
      bool skip = false;
      for (Symbol var : rule.invented_vars) {
        const TypeNode& vt = u_->types().node(rule.var_types.at(var));
        IQL_CHECK(vt.kind == TypeKind::kClass);
        if (rule.has_choose) {
          // IQL+ (§4.4): bind to an *existing* oid of the class, chosen
          // by policy. No candidates: nothing to choose. kRandom is the
          // N-IQL variant (choice may violate genericity).
          const auto& extent = work->ClassExtent(vt.class_name);
          if (extent.empty()) {
            skip = true;
            break;
          }
          Oid o;
          switch (options_.choose_policy) {
            case EvalOptions::ChoosePolicy::kMinOid:
              o = *extent.begin();
              break;
            case EvalOptions::ChoosePolicy::kMaxOid:
              o = *extent.rbegin();
              break;
            case EvalOptions::ChoosePolicy::kRandom: {
              choose_rng_ = Mix64(choose_rng_ + 0x9e3779b9);
              size_t index = choose_rng_ % extent.size();
              auto it = extent.begin();
              std::advance(it, index);
              o = *it;
              break;
            }
          }
          b[var] = values.OfOid(o);
        } else {
          // Fires during the collection phase, before any commit loop has
          // touched `work`, so the trip is transactional.
          if (++stats_->invented_oids > options_.limits.max_invented_oids) {
            return governor_->TripNow(TripReason::kInventedOids);
          }
          Oid o = u_->MintOid();
          oid_adds.push_back({vt.class_name, o, rm});
          invented_this_step.insert(o);
          b[var] = values.OfOid(o);
        }
      }
      if (skip) continue;
      // Derive the head fact.
      const Literal& head = rule.head;
      const Term& lhs = prog_.term(head.lhs);
      if (head.kind == Literal::Kind::kEquality) {
        // x^ = t (or its retraction).
        auto xv = EvalTerm(prog_, head.lhs, b, *work, arena);
        auto ov = b.at(lhs.name);
        Oid o = values.node(ov).oid;
        auto v = EvalTerm(prog_, head.rhs, b, *work, arena);
        if (!v.has_value()) continue;  // rhs mentions an undefined x^
        if (rule.head_negative) {
          if (xv.has_value() && *xv == *v) value_retractions.emplace_back(o, *v);
        } else {
          PendingAssignment& pa = assignments[o];
          pa.candidates.insert(*v);
          pa.rm = rm;
        }
        continue;
      }
      auto v = EvalTerm(prog_, head.rhs, b, *work, arena);
      if (!v.has_value()) continue;  // rhs mentions an undefined x^
      switch (lhs.kind) {
        case Term::Kind::kRelName:
          if (rule.head_negative) {
            rel_dels.emplace_back(lhs.name, *v);
          } else {
            rel_adds.push_back({lhs.name, *v, rm});
          }
          break;
        case Term::Kind::kClassName: {
          const ValueNode& n = values.node(*v);
          if (n.kind != ValueKind::kOid) {
            return TypeError("class head derived a non-oid value");
          }
          if (rule.head_negative) {
            oid_dels.push_back(n.oid);
          } else {
            oid_adds.push_back({lhs.name, n.oid, rm});
          }
          break;
        }
        case Term::Kind::kDeref: {
          Oid o = values.node(b.at(lhs.name)).oid;
          if (rule.head_negative) {
            set_removals.emplace_back(o, *v);
          } else {
            set_inserts.push_back({o, *v, rm});
          }
          break;
        }
        default:
          return InternalError("illegal head shape survived type checking");
      }
    }

    // Weak assignment filter (*): only oids with nu undefined at the start
    // of the step, and a unique candidate value, are assigned.
    std::vector<std::tuple<Oid, ValueId, RuleMetrics*>>
        applicable_assignments;
    for (const auto& [o, pending] : assignments) {
      bool defined_at_start =
          !invented_this_step.count(o) && work->ValueOf(o).has_value();
      if (defined_at_start) continue;
      if (pending.candidates.size() != 1) continue;
      applicable_assignments.emplace_back(o, *pending.candidates.begin(),
                                          pending.rm);
    }

    auto apply_start = std::chrono::steady_clock::now();
    bool changed = false;
    uint64_t committed_before = stats_->facts_added;
    for (const auto& [cls, o, rm] : oid_adds) {
      if (!work->HasOid(o)) {
        IQL_RETURN_IF_ERROR(work->AddOid(cls, o));
        changed = true;
        ++stats_->facts_added;
        if (rm != nullptr) ++rm->facts_added;
      }
    }
    for (const auto& [rel, v, rm] : rel_adds) {
      if (!work->RelationContains(rel, v)) {
        IQL_RETURN_IF_ERROR(work->AddToRelation(rel, v));
        changed = true;
        ++stats_->facts_added;
        if (rm != nullptr) ++rm->facts_added;
      }
    }
    for (const auto& [o, v, rm] : set_inserts) {
      auto current = work->ValueOf(o);
      if (current.has_value() && values.SetContains(*current, v)) continue;
      IQL_RETURN_IF_ERROR(work->AddToSetOid(o, v));
      changed = true;
      ++stats_->facts_added;
      if (rm != nullptr) ++rm->facts_added;
    }
    for (const auto& [o, v, rm] : applicable_assignments) {
      IQL_RETURN_IF_ERROR(work->SetOidValue(o, v));
      changed = true;
      ++stats_->facts_added;
      if (rm != nullptr) ++rm->facts_added;
    }
    // IQL* deletions apply last within the step: a fact both derived and
    // deleted in the same step ends up deleted.
    for (const auto& [rel, v] : rel_dels) {
      if (work->RemoveFromRelation(rel, v)) {
        changed = true;
        ++stats_->facts_deleted;
      }
    }
    for (const auto& [o, v] : set_removals) {
      if (work->RemoveFromSetOid(o, v)) {
        changed = true;
        ++stats_->facts_deleted;
      }
    }
    for (const auto& [o, v] : value_retractions) {
      auto current = work->ValueOf(o);
      if (current.has_value() && *current == v && work->ClearOidValue(o)) {
        changed = true;
        ++stats_->facts_deleted;
      }
    }
    for (Oid o : oid_dels) {
      size_t n = work->DeleteOidCascade(o);
      if (n > 0) {
        changed = true;
        stats_->facts_deleted += n;
      }
    }
    // Charge the committed growth; the commit loops themselves never poll
    // (and never fail on a governor trip), so a trip between here and the
    // next step boundary still observes a completed step.
    governor_->accountant()->Charge(
        (stats_->facts_added - committed_before) * kFactBytes);
    apply_seconds_ += Seconds(apply_start);
    return changed;
  }

  // Publishes a completed fixpoint step to the durability sink, if any. The
  // journal installed on `work` holds exactly this step's operations; it is
  // cleared once the sink accepts the frame, so the next step starts empty.
  // A sink failure ends the stage with the sink's status -- the governor
  // has not tripped, so no partial is handed out and the caller retries
  // from the durable prefix.
  Status CommitDurable(uint64_t step, Instance* work) {
    StepCommitSink* sink = options_.durability.sink;
    if (sink == nullptr) return Status::Ok();
    StepCommit commit{stage_index_, step, u_->next_oid_raw(), work->journal(),
                      work};
    IQL_RETURN_IF_ERROR(sink->OnStepCommit(commit));
    if (work->journal() != nullptr) work->journal()->clear();
    return Status::Ok();
  }

  Universe* u_;
  const Schema& schema_;
  const Program& prog_;
  const std::vector<Rule>& rules_;
  const EvalOptions& options_;
  EvalStats* stats_;
  EvalMetrics* metrics_ = nullptr;
  // Parallel to rules_ (empty when metrics are off): pointers into
  // metrics_->rules, stable because all of this stage's entries are
  // appended before any pointer is taken.
  std::vector<RuleMetrics*> rule_metrics_;
  ThreadPool* pool_ = nullptr;
  Governor* governor_ = nullptr;  // owned by EvaluateProgram, never null
  std::vector<bool> rule_parallel_;  // per rule: may its solver fan out?
  uint64_t step_partitions_ = 0;     // partitions used by the current step
  double apply_seconds_ = 0;         // the current step's commit time
  // The coordinator's enumeration machinery: per naive step, stage-long
  // for a semi-naive stage.
  std::optional<Slice> coordinator_;
  // The run's derivation count while a rule solve enumerates, shared by
  // its slices; written back to stats_ when the solve ends.
  std::atomic<uint64_t> derivations_{0};
  uint64_t choose_rng_ = 0;
  bool has_deletions_ = false;
  // Per-rule compiled IL (nullopt = tree-walk fallback; empty under
  // tree_walk_oracle), plus lazily compiled semi-naive (rule,
  // delta-literal) variants. The map's node stability keeps CompiledRule
  // addresses valid across inserts.
  std::vector<std::optional<il::CompiledRule>> compiled_;
  std::map<std::pair<size_t, size_t>, std::optional<il::CompiledRule>>
      delta_compiled_;
  // Prepared-scan cache (see Prepared()): per compiled rule, the epoch it
  // was prepared at and the prepared state. Commits bump the epoch.
  std::map<const il::CompiledRule*, std::pair<uint64_t, vm::PreparedRule>>
      prepared_;
  uint64_t prepared_epoch_ = 0;

 public:
  int stage_index_ = 0;
  // First naive step this stage executes (non-zero only for the resumed
  // stage of a recovered run; `work` then already holds that prefix).
  uint64_t start_step_ = 0;
};

}  // namespace

Result<Instance> EvaluateProgram(Universe* universe, const Schema& schema,
                                 Program* program, const Instance& input,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  if (!program->type_checked) {
    IQL_RETURN_IF_ERROR(TypeCheck(universe, schema, program));
  }
  if (!options.allow_deletions) {
    for (const Rule* rule : program->AllRules()) {
      if (rule->head_negative) {
        return FailedPreconditionError(
            "deletion rules require EvalOptions::allow_deletions (IQL*, "
            "§4.5); plain IQL is inflationary");
      }
    }
  }
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  size_t threads = ResolveThreadCount(options.num_threads);
  if (options.metrics != nullptr) {
    options.metrics->threads = static_cast<uint32_t>(threads);
  }
  // The governor is either owned by this call or lent by a scheduler
  // (EvalOptions::governor). With an external governor, its construction
  // limits are the single source of truth for the counter budgets, so the
  // local options copy below mirrors them -- otherwise a scheduler-built
  // governor and a caller-filled options.limits could silently disagree.
  std::optional<Governor> owned_governor;
  Governor* governor = options.governor;
  EvalOptions local_options = options;
  if (governor == nullptr) {
    owned_governor.emplace(options.limits, options.cancel);
    governor = &*owned_governor;
  } else {
    local_options.limits = governor->limits();
  }
  // Hook byte accounting into the shared store for the duration of the
  // run: only nodes interned by this evaluation are charged. The guard
  // unhooks on every return path (stores must not outlive the accountant).
  universe->values().set_accountant(governor->accountant());
  struct AccountantGuard {
    ValueStore* store;
    ~AccountantGuard() { store->set_accountant(nullptr); }
  } unhook{&universe->values()};
  // One pool for the whole program; stages borrow it. threads == 1 keeps
  // the pool (and every probe/merge code path) entirely out of the run.
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  Instance work(&schema, universe);
  IQL_RETURN_IF_ERROR(work.Absorb(input));
  // Durable runs journal each step's fact operations on the work instance.
  // The journal attaches *after* Absorb -- the input is already covered by
  // the run's base snapshot, so its facts must not land in any WAL frame.
  // Instance moves and copies drop the pointer, so the partial handed out
  // on a trip (and the returned fixpoint) never dangle into this frame.
  std::vector<FactOp> journal;
  const EvalOptions::Durability& durability = local_options.durability;
  if (durability.sink != nullptr) work.set_journal(&journal);
  Status run_status = Status::Ok();
  int stage_index = 0;
  for (const auto& stage : program->stages) {
    int this_stage = stage_index++;
    if (durability.resume &&
        this_stage < static_cast<int>(durability.resume_stage)) {
      // Fully evaluated before the crash; its fixpoint is part of `input`.
      continue;
    }
    StageRunner runner(universe, schema, *program, stage, local_options,
                       stats, pool.has_value() ? &*pool : nullptr, governor);
    runner.stage_index_ = this_stage;
    if (durability.resume &&
        this_stage == static_cast<int>(durability.resume_stage)) {
      runner.start_step_ = durability.resume_step;
    }
    run_status = runner.Run(&work);
    if (!run_status.ok()) break;
  }
  stats->elapsed_seconds = governor->elapsed_seconds();
  stats->peak_memory_bytes = governor->accountant()->peak_bytes();
  stats->trip = governor->trip_reason();
  if (options.metrics != nullptr) {
    options.metrics->elapsed_seconds = stats->elapsed_seconds;
    options.metrics->peak_memory_bytes = stats->peak_memory_bytes;
    options.metrics->trip = stats->trip;
  }
  if (!run_status.ok()) {
    if (governor->tripped()) {
      // Attach the full resource report (the governor alone cannot see the
      // evaluator's counters) and hand out the rolled-back instance: every
      // trip is raised during enumeration or at a step boundary, never
      // mid-commit, so `work` equals the last completed fixpoint step.
      ResourceReport report = governor->Report();
      report.steps = stats->steps;
      report.derivations = stats->derivations;
      report.invented_oids = stats->invented_oids;
      run_status = Status(run_status.code(),
                          run_status.message() + " [resource report: " +
                              report.ToString() + "]");
      if (options.partial != nullptr) *options.partial = std::move(work);
    }
    return run_status;
  }
  return work;
}

Result<Instance> RunUnit(Universe* universe, ParsedUnit* unit,
                         const Instance& input, const EvalOptions& options,
                         EvalStats* stats) {
  IQL_ASSIGN_OR_RETURN(
      Instance full, EvaluateProgram(universe, unit->schema, &unit->program,
                                     input, options, stats));
  if (unit->output_names.empty()) return full;
  IQL_ASSIGN_OR_RETURN(Schema out, unit->schema.Project(unit->output_names));
  return full.Project(std::make_shared<const Schema>(std::move(out)));
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

}  // namespace

std::string EvalMetrics::ToJson() const {
  std::ostringstream os;
  os << "{\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleMetrics& r = rules[i];
    if (i > 0) os << ",";
    os << "{\"stage\":" << r.stage << ",\"index\":" << r.index
       << ",\"text\":\"" << JsonEscape(r.text) << "\""
       << ",\"invocations\":" << r.invocations
       << ",\"derivations\":" << r.derivations
       << ",\"facts_added\":" << r.facts_added
       << ",\"index_probes\":" << r.index_probes
       << ",\"index_scans\":" << r.index_scans
       << ",\"parallel_partitions\":" << r.parallel_partitions
       << ",\"vm_instructions\":" << r.vm_instructions
       << ",\"seconds\":" << r.seconds << "}";
  }
  os << "],\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundMetrics& r = rounds[i];
    if (i > 0) os << ",";
    os << "{\"stage\":" << r.stage << ",\"round\":" << r.round
       << ",\"seminaive\":" << (r.seminaive ? "true" : "false")
       << ",\"delta_facts\":" << r.delta_facts
       << ",\"total_facts\":" << r.total_facts << ",\"seconds\":" << r.seconds
       << ",\"apply_seconds\":" << r.apply_seconds << "}";
  }
  os << "],\"index_builds\":" << index_builds
     << ",\"index_probes\":" << index_probes
     << ",\"index_hits\":" << index_hits << ",\"threads\":" << threads
     << ",\"elapsed_seconds\":" << elapsed_seconds
     << ",\"peak_memory_bytes\":" << peak_memory_bytes << ",\"trip\":\""
     << TripReasonName(trip) << "\"}";
  return os.str();
}

Result<std::string> ExplainSchedule(Universe* universe, const Schema& schema,
                                    Program* program, const Instance& input) {
  if (!program->type_checked) {
    IQL_RETURN_IF_ERROR(TypeCheck(universe, schema, program));
  }
  const Program& prog = *program;
  const SymbolTable& syms = universe->symbols();
  CardinalityEstimator estimator(&input);
  // The container a membership literal ranges over, the key fields a probe
  // fixes, and the input's size figures as annotations.
  auto describe = [&](const Term& lhs, const std::vector<Symbol>& keys) {
    std::ostringstream d;
    if (lhs.kind == Term::Kind::kRelName) {
      d << "relation " << universe->Name(lhs.name);
    } else if (lhs.kind == Term::Kind::kClassName) {
      d << "class " << universe->Name(lhs.name);
    } else {
      d << "set value";
    }
    for (size_t k = 0; k < keys.size(); ++k) {
      d << (k == 0 ? " on {" : ", ") << universe->Name(keys[k]);
    }
    if (!keys.empty()) d << "}";
    if (lhs.kind == Term::Kind::kRelName) {
      d << " (|extent| " << estimator.RelationSize(lhs.name);
      if (!keys.empty()) {
        d << ", est. " << estimator.EstimateMatches(lhs.name, keys)
          << " per probe";
      }
      d << ")";
    } else if (lhs.kind == Term::Kind::kClassName) {
      d << " (|extent| " << estimator.ClassSize(lhs.name) << ")";
    } else {
      d << " (size unknown)";
    }
    return d.str();
  };
  std::ostringstream os;
  for (const Rule* rule_ptr : program->AllRules()) {
    const Rule& rule = *rule_ptr;
    os << "rule " << rule.stage << "." << rule.index << ": "
       << prog.RuleToString(rule, syms) << "\n";
    std::optional<il::CompiledRule> cr = il::CompileRule(prog, rule);
    if (cr.has_value()) {
      // The VM runs the compiled full variant: one step per loop head or
      // check, in code order. A literal lowered to neither (an equality
      // that binds) is one step at its first instruction.
      os << "  engine: VM, full variant in compiled order\n";
      std::vector<bool> stepped(rule.body.size(), false);
      for (const il::Instr& in : cr->code) {
        // The kCheck* and kScan* ops are contiguous in il::Op.
        if (in.src != il::kNoSrc && in.op >= il::Op::kCheckRel &&
            in.op <= il::Op::kScanExtent) {
          stepped[in.src] = true;
        }
      }
      int step = 0;
      for (const il::Instr& in : cr->code) {
        const Literal* lit =
            in.src == il::kNoSrc ? nullptr : &rule.body[in.src];
        switch (in.op) {
          case il::Op::kScanRel:
          case il::Op::kScanClass:
          case il::Op::kScanSet:
          case il::Op::kScanDelta: {
            std::vector<Symbol> keys;
            for (uint32_t k = 0; k + 1 < in.naux; k += 2) {
              keys.push_back(static_cast<Symbol>(cr->aux[in.aux + k]));
            }
            os << "  " << ++step << ". " << (keys.empty() ? "scan" : "probe")
               << " literal #" << (in.src + 1) << ": "
               << describe(prog.term(lit->lhs), keys) << "\n";
            break;
          }
          case il::Op::kScanExtent: {
            Symbol var = kInvalidSymbol;
            for (const auto& [v, reg] : cr->theta) {
              if (reg == in.dst) var = v;
            }
            os << "  " << ++step << ". range " << universe->Name(var)
               << " over the extent of " << universe->types().ToString(in.imm)
               << "\n";
            break;
          }
          case il::Op::kCheckRel:
          case il::Op::kCheckClass:
          case il::Op::kCheckIn:
          case il::Op::kCheckEq:
          case il::Op::kCheckDelta:
            os << "  " << ++step << ". check literal #" << (in.src + 1)
               << ": " << prog.LiteralToString(*lit, syms) << "\n";
            break;
          default:
            if (lit == nullptr || stepped[in.src]) break;
            stepped[in.src] = true;
            os << "  " << ++step << ". bind literal #" << (in.src + 1)
               << " through equality: " << prog.LiteralToString(*lit, syms)
               << "\n";
        }
      }
    } else {
      // The tree-walker plans again at every choice point, from the values
      // bound so far, so there is no static order to print.
      os << "  engine: tree-walk (" << il::FallbackReason(rule) << ")\n";
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& lit = rule.body[i];
        if (!lit.positive) continue;
        if (lit.kind == Literal::Kind::kEquality) {
          os << "  generator literal #" << (i + 1)
             << ": equality " << prog.LiteralToString(lit, syms) << "\n";
        } else if (lit.kind == Literal::Kind::kMembership) {
          const Term& lhs = prog.term(lit.lhs);
          if (lhs.kind == Term::Kind::kTuple || lhs.kind == Term::Kind::kSet ||
              lhs.kind == Term::Kind::kConst) {
            continue;  // constructed containers never generate
          }
          os << "  generator literal #" << (i + 1) << ": "
             << describe(lhs, {}) << "\n";
        }
      }
      os << "  order: chosen at run time; the tree-walker picks among the "
            "generators at each choice point\n";
    }
    // Parallel eligibility (EvalOptions::num_threads): with workers
    // available, step 1's candidate list is partitioned across them when
    // it is wide enough; partition counts for an actual run appear in the
    // metrics (parallel_partitions).
    bool parallel_ok = true;
    for (const auto& [var, t] : rule.var_types) {
      if (!universe->types().IsIntersectionFree(t)) {
        parallel_ok = false;
        break;
      }
    }
    os << "  parallel: "
       << (parallel_ok ? "eligible (first generator partitions across "
                         "workers when wide enough)"
                       : "serial only (intersection type in rule scope)")
       << "\n";
  }
  return os.str();
}

}  // namespace iqlkit
