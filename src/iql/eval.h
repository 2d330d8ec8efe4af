#ifndef IQLKIT_IQL_EVAL_H_
#define IQLKIT_IQL_EVAL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "base/governor.h"
#include "base/result.h"
#include "iql/ast.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/schema.h"
#include "model/universe.h"

namespace iqlkit {

// Per-rule evaluation counters (see EvalMetrics).
struct RuleMetrics {
  int stage = 0;
  int index = 0;        // rule index within its stage
  std::string text;     // the rule, rendered in the concrete syntax
  uint64_t invocations = 0;   // solver runs (one per step, or per delta)
  uint64_t derivations = 0;   // satisfying body valuations enumerated
  uint64_t facts_added = 0;   // new facts this rule actually contributed
  uint64_t index_probes = 0;  // generator visits served by an index bucket
  uint64_t index_scans = 0;   // generator visits that fell back to a scan
  // IL instructions the register VM dispatched for this rule (0 under the
  // tree-walker): every instruction executed, re-executions after a
  // backtrack included.
  uint64_t vm_instructions = 0;
  double seconds = 0.0;       // wall time spent inside this rule's solver
};

// Per-fixpoint-round counters (see EvalMetrics).
struct RoundMetrics {
  int stage = 0;
  uint64_t round = 0;
  bool seminaive = false;
  uint64_t delta_facts = 0;  // facts added by this round
  uint64_t total_facts = 0;  // ground facts after the round
  double seconds = 0.0;
  // The part of `seconds` spent committing the round's derived facts:
  // membership tests, inserts and index upkeep.
  double apply_seconds = 0.0;
};

// Where fixpoint time goes: filled when EvalOptions::metrics is set.
// Per-rule entries appear in program order (all stages); per-round entries
// in execution order. Index counters aggregate over the whole run.
struct EvalMetrics {
  std::vector<RuleMetrics> rules;
  std::vector<RoundMetrics> rounds;
  uint64_t index_builds = 0;  // (container, attrs) indexes built
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;  // probes that returned a non-empty bucket
  double elapsed_seconds = 0;       // governor wall clock for the run
  uint64_t peak_memory_bytes = 0;   // MemoryAccountant high-water mark
  // Governor trip that ended the run, or kNone on a clean fixpoint.
  // Rendered in ToJson as the stable TripReasonName string.
  TripReason trip = TripReason::kNone;

  // Renders the metrics as a JSON object (stable key order), for --metrics
  // dumps and the benchmark harness.
  std::string ToJson() const;
};

// Budgets and policies for the naive inflationary evaluator (§3.2). IQL is
// computationally complete, so programs can legitimately diverge
// (Example 3.4.2's R3(y,z) :- R3(x,y)); budgets turn divergence into a
// RESOURCE_EXHAUSTED error instead of a hang.
struct EvalOptions {
  // Unified resource limits (counters, wall-clock deadline, memory ceiling)
  // enforced by the evaluation governor. See base/governor.h; the counter
  // fields keep the defaults of the former ad-hoc EvalOptions budgets.
  ResourceLimits limits;

  // Optional cooperative cancellation: when set and Cancel()ed (from any
  // thread, or a signal handler), evaluation stops at the next governor
  // poll with a kCancelled Status and a rolled-back instance.
  CancellationToken* cancel = nullptr;

  // Externally owned governor: when set, the evaluation runs under *this*
  // governor instead of constructing its own -- the handle a concurrent-
  // query scheduler keeps so it can tighten limits (TightenSteps/Memory/
  // Deadline) or Preempt() the run from another thread while it executes.
  // `limits` and `cancel` above are then ignored; every budget comes from
  // the governor (its construction limits for the counters, its effective
  // limits for deadline/memory/steps). The governor must outlive the call
  // and must not be reused across evaluations (its clock and accountant
  // are per-run).
  Governor* governor = nullptr;

  // When set and a governor trip ends the run, receives the instance as of
  // the last completed fixpoint step (the transactional-rollback state).
  // Untouched on success and on non-trip errors (e.g. type errors).
  std::optional<Instance>* partial = nullptr;

  // IQL+ choose policy: which existing oid a choose-rule's head-only
  // variable is bound to. kMinOid/kMaxOid are deterministic; running a
  // program under both and checking O-isomorphism of the results is an
  // effective genericity test (§4.4). kRandom implements N-IQL (the
  // Remark after Thm 4.4.1): choice may violate genericity, yielding the
  // nondeterministic-complete language; seeded for reproducibility.
  enum class ChoosePolicy { kMinOid, kMaxOid, kRandom };
  ChoosePolicy choose_policy = ChoosePolicy::kMinOid;
  uint64_t choose_seed = 0;

  // Ablation switch for bench_ablation: disables the bound-head O(1)
  // membership fast path in the valuation-domain filter, falling back to
  // the literal scan-and-match formulation. Semantics are identical.
  bool disable_head_fast_path = false;

  // Semi-naive (delta-driven) evaluation for *eligible* stages: every rule
  // head is a positive relation fact, no invention, no choose, no
  // deletions, and no negation over a relation derived in the same stage.
  // On such stages new derivations must use at least one fact added in the
  // previous round, so ranging one body literal over the delta is
  // complete, and relation inserts are idempotent, so over-derivation is
  // harmless -- the fixpoint is bit-for-bit the naive one (the
  // differential test suite cross-checks this). Ineligible stages always
  // run the paper's naive operator.
  bool enable_seminaive = true;

  // Hash-indexed generators: when a positive membership literal ranges
  // over a relation (or a bound set value) with a tuple pattern whose
  // fields are partially bound, the solver probes a per-step hash index on
  // the bound fields instead of scanning the full extent (iql/index.h).
  // Pure optimization -- every candidate is still pattern-matched -- so
  // results are identical with it off; the differential tests check this.
  bool enable_indexing = true;

  // Greedy selectivity-aware generator scheduling: at each choice point the
  // solver picks the eligible generator with the smallest estimated result
  // (bound-field selectivity via model/stats, extent cardinality) instead
  // of the first eligible literal in body order. Join order never changes
  // the set of satisfying valuations, only the work to enumerate them.
  bool enable_scheduling = true;

  // When set, per-rule and per-round evaluation metrics are accumulated
  // here (appended; zero-initialize to measure one run).
  EvalMetrics* metrics = nullptr;

  // Permit negative heads (IQL*, §4.5). Off by default: plain IQL is
  // inflationary, and a deletion rule is rejected at evaluation time.
  bool allow_deletions = false;

  // When set, a one-line summary of every one-step-operator application
  // is streamed here: per naive step (stage, step, |val-dom|, ground
  // facts, invented oids), per semi-naive round, round 0 included (stage,
  // round, ground facts). Trace lines are emitted after each step's
  // commit, in step order.
  std::ostream* trace = nullptr;

  // Read by nothing: evaluation is serial. The field stays declared only
  // because the end-to-end benchmark (bench/e2e) still assigns it; the
  // next change to that benchmark removes the assignments and the field.
  uint32_t num_threads = 0;

  // Rule enumeration. Every rule that il::CompileRule accepts -- the
  // invention-free, choose-free fragment -- is lowered to the flat IL of
  // iql/il.h once per stage (semi-naive delta variants on first use) and
  // runs on the register VM of iql/vm.h, under durability and resume too.
  // The backtracking tree-walker runs exactly the rules CompileRule
  // declines: invention, choose, and anything else outside the IL
  // fragment, whose minting / choose order is enumeration-order
  // sensitive. Both executors drive the same index,
  // extent, value store and governor machinery and produce byte-identical
  // output.
  //
  // Test and benchmark use only: when set, every rule runs on the
  // tree-walker, which makes it the oracle the differential suites and
  // bench_vm compare the VM against. No tool or server path sets it.
  bool tree_walk_oracle = false;

  // Durable evaluation. When `sink` is set the work instance keeps a
  // per-step journal of fact operations, and after every committed fixpoint
  // step -- the same boundary at which a governor trip would roll back --
  // the sink receives a StepCommit carrying the stage, step, post-step oid
  // counter, the journal, and the post-step instance. A non-OK sink status
  // ends the run with that status and, when `partial` is set, the state as
  // of the last *successfully sunk* step (so on-disk and in-memory agree).
  //
  // When `resume` is set, evaluation continues a recovered partial: `input`
  // must already hold the state as of (resume_stage, resume_step), stages
  // before resume_stage are skipped outright, and the resume stage starts
  // counting at resume_step. A resumed stage always runs the naive
  // operator -- WAL frames are defined over naive step boundaries, and the
  // differential suites prove naive and semi-naive reach bit-identical
  // fixpoints -- and later stages evaluate exactly as in a fresh run. The
  // naive one-step operator is a deterministic function of (instance,
  // rules, choose policy, oid counter), so a resumed run reproduces the
  // uninterrupted run byte-for-byte (kRandom choose excepted).
  struct Durability {
    StepCommitSink* sink = nullptr;
    bool resume = false;
    uint32_t resume_stage = 0;
    uint64_t resume_step = 0;
  };
  Durability durability;
};

struct EvalStats {
  uint64_t steps = 0;         // one-step operator applications
  uint64_t derivations = 0;   // satisfying (rule, valuation) pairs fired
  uint64_t invented_oids = 0;
  uint64_t facts_added = 0;
  uint64_t facts_deleted = 0;
  double elapsed_seconds = 0;      // governor wall clock
  uint64_t peak_memory_bytes = 0;  // accountant high-water mark
  TripReason trip = TripReason::kNone;  // kNone on a clean fixpoint
};

// Evaluates `program` on `input` under the paper's semantics: per stage,
// repeat the one-step inflationary operator gamma_1 -- compute the
// valuation-domain against the step's start instance, pick the (canonical)
// valuation-map, fire all derivations in parallel, apply weak assignment
// per condition (*) -- until a fixpoint. Stages (';') compose sequentially.
//
// `input` must be an instance over a projection of `schema` sharing
// `universe`. The result is the fixpoint instance over the full `schema`;
// project it onto the output schema with Instance::Project.
//
// The program is type checked first (its rules' var_types are filled in).
// Invented oids come from the universe's counter: running the same program
// from universes with different oid seeds yields O-isomorphic outputs
// (Theorem 4.1.3), which the test suite verifies.
Result<Instance> EvaluateProgram(Universe* universe, const Schema& schema,
                                 Program* program, const Instance& input,
                                 const EvalOptions& options = {},
                                 EvalStats* stats = nullptr);

// Convenience wrapper: parse, type check, evaluate, and project a full
// source unit (schema + input/output + program). The input instance must
// be over the unit's input projection.
Result<Instance> RunUnit(Universe* universe, ParsedUnit* unit,
                         const Instance& input,
                         const EvalOptions& options = {},
                         EvalStats* stats = nullptr);

// The `:explain` view: for each rule, the plan evaluation runs. A rule
// il::CompileRule accepts runs on the VM in its compiled order; the report
// lists one step per loop head or check of the full variant, in code order,
// each naming the body literal it lowers (scan, keyed probe, binding
// equality) or the variable a synthesized extent range binds. A rule the
// compiler declines is listed with the fallback reason and its generator
// literals but no order: the tree-walker picks among them at every choice
// point. Extent sizes and probe estimates come from `input`, so they
// describe the first round only. Type checks the program if needed.
Result<std::string> ExplainSchedule(Universe* universe, const Schema& schema,
                                    Program* program, const Instance& input);

}  // namespace iqlkit

#endif  // IQLKIT_IQL_EVAL_H_
