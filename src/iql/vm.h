// Register VM for the flat rule IL (iql/il.h). One VmSolver enumerates
// the satisfying valuations of one compiled rule body against a frozen
// instance, through exactly the machinery the tree-walking RuleSolver
// uses -- RelationIndex probes and scans, ExtentEnumerator extents, the
// (possibly per-worker) ValueArena, governor Poll once per candidate --
// so the two engines are byte-for-byte interchangeable wherever the
// evaluator consumes valuations.
//
// The VM also mirrors the solver's parallel protocol: SetProbe makes the
// first executed scan report its candidate-list width and stop (the
// coordinator's probe-then-slice sizing pass), SetSlice clamps that scan
// to [begin, end) so each worker enumerates a contiguous chunk of the
// top-level candidates.

#ifndef IQLKIT_IQL_VM_H_
#define IQLKIT_IQL_VM_H_

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "base/governor.h"
#include "base/interner.h"
#include "base/status.h"
#include "iql/eval.h"
#include "iql/extent.h"
#include "iql/il.h"
#include "iql/index.h"
#include "model/instance.h"
#include "model/type_algebra.h"
#include "model/value.h"

namespace iqlkit::vm {

// Per-rule prepared state: the pure-function-of-the-frozen-instance work
// a Solve call repays on every invocation within a fixpoint round --
// kLoadRel / kLoadClass set materialization, and index-off container-scan
// candidate lists. The coordinator prepares once per (rule, round) before
// forking workers (so side-store-aware arenas resolve the same hash-
// consed ids) and shares the result read-only; the cache is invalidated
// at commit, exactly the stage boundaries the semi-naive delta machinery
// tracks. Probe buckets and kScanSet / kScanDelta lists are not
// cacheable: their inputs vary per outer candidate or per round.
struct PreparedRule {
  struct Entry {
    bool has_value = false;
    ValueId value = kInvalidValue;  // kLoadRel / kLoadClass result
    bool has_elems = false;
    std::vector<ValueId> elems;     // index-off scan candidate list
  };
  std::vector<Entry> at;  // indexed by pc, sized to the rule's code
};

// Builds the prepared state for `cr` against the frozen `inst`. Set
// values are always prepared; candidate lists only when
// `indexing_enabled` is false (with an index, scans borrow the index's
// lists and materialize nothing).
PreparedRule PrepareRule(const il::CompiledRule& cr, const Instance& inst,
                         ValueArena& values, bool indexing_enabled);

// The evaluator-owned machinery one VM run executes against; mirrors the
// tree-walker's SolverContext field for field.
struct VmContext {
  ExtentEnumerator* extents = nullptr;   // required
  RelationIndex* index = nullptr;        // null: indexing disabled
  RuleMetrics* rule_metrics = nullptr;   // null: metrics disabled
  ValueArena* values = nullptr;          // required (worker side store aware)
  Governor* governor = nullptr;          // polled once per candidate
  // Prepared state for the executed rule (must match it pc for pc), or
  // null to materialize per call.
  const PreparedRule* prepared = nullptr;
};

class VmSolver {
 public:
  using Valuation = std::map<Symbol, ValueId>;
  using Callback = std::function<Status(const Valuation&)>;

  // `cr` and `delta_facts` must outlive the solver. `delta_facts` is the
  // sorted new-facts vector of the rule's delta literal (required exactly
  // when cr.delta_literal is set).
  VmSolver(const il::CompiledRule& cr, const Instance& inst,
           const VmContext& ctx,
           const std::vector<ValueId>* delta_facts = nullptr);

  VmSolver(const VmSolver&) = delete;
  VmSolver& operator=(const VmSolver&) = delete;

  // Runs the compiled body to exhaustion, firing `cb` once per satisfying
  // valuation. A non-ok callback or governor status aborts and propagates.
  Status Solve(const Callback& cb);

  // Probe mode: the first executed scan records its candidate count into
  // `width` and enumeration stops (mirrors RuleSolver::SetProbe).
  void SetProbe(size_t* width) { probe_width_ = width; }

  // Restricts the first executed scan to candidates [begin, end).
  void SetSlice(size_t begin, size_t end) {
    slice_begin_ = begin;
    slice_end_ = end;
  }

 private:
  struct Frame {
    uint32_t pc = 0;    // the scan instruction this frame belongs to
    uint16_t dst = 0;   // register iterated over the candidates
    const std::vector<ValueId>* elems = nullptr;  // null: use `owned`
    std::vector<ValueId> owned;
    size_t idx = 0;
    size_t end = 0;
    ValueId Current() const {
      return elems != nullptr ? (*elems)[idx] : owned[idx];
    }
  };

  const il::CompiledRule& cr_;
  const Instance& inst_;
  VmContext ctx_;
  const std::vector<ValueId>* delta_facts_;
  TypeMembership membership_;

  // By pc: the index a keyed scan resolved on its first execution (null
  // until then, and always for kScanSet), so later probes only hash the
  // key registers and look up.
  std::vector<RelationIndex::Index*> resolved_;
  std::vector<Symbol> attrs_;  // Resolve argument, reused across scans

  std::vector<ValueId> regs_;
  std::vector<Frame> frames_;
  Valuation theta_;

  size_t* probe_width_ = nullptr;
  size_t slice_begin_ = 0;
  size_t slice_end_ = static_cast<size_t>(-1);
  bool at_first_branch_ = true;
};

}  // namespace iqlkit::vm

#endif  // IQLKIT_IQL_VM_H_
