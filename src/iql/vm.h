// Register VM for the flat rule IL (iql/il.h). One VmSolver enumerates
// the satisfying valuations of one compiled rule body against a frozen
// instance, through exactly the machinery the tree-walking RuleSolver
// uses -- RelationIndex probes and scans, ExtentEnumerator extents, the
// universe's ValueStore, governor Poll once per candidate -- so the two
// engines are byte-for-byte interchangeable wherever the evaluator
// consumes valuations.

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
// candidate lists. The evaluator prepares once per (rule, round) and
// reuses the result across that round's solves; the cache is invalidated
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
                         ValueStore& values, bool indexing_enabled);

// The evaluator-owned machinery one VM run executes against; mirrors the
// tree-walker's SolverContext field for field.
struct VmContext {
  ExtentEnumerator* extents = nullptr;   // required
  RelationIndex* index = nullptr;        // null: indexing disabled
  RuleMetrics* rule_metrics = nullptr;   // null: metrics disabled
  ValueStore* values = nullptr;          // required
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

 private:
  struct Frame {
    uint32_t pc = 0;    // the scan instruction this frame belongs to
    uint16_t dst = 0;   // register iterated over the candidates
    const std::vector<ValueId>* elems = nullptr;  // null: use `owned`
    std::vector<ValueId> owned;
    size_t idx = 0;
    size_t end = 0;  // candidate count
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
};

}  // namespace iqlkit::vm

#endif  // IQLKIT_IQL_VM_H_
