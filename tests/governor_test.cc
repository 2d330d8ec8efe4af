#include "base/governor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/datalog.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

// Exercises the evaluation governor end to end: every trip reason, across
// the naive and semi-naive pipelines, asserting the
// transactional-rollback contract -- a tripped run's instance byte-compares
// (via WriteFacts) equal to the last completed fixpoint step, reproducible
// by re-running with the observed step count as the budget.
namespace iqlkit {
namespace {

// The paper's canonical divergent program (Example 3.4.2 shape): each step
// invents a fresh oid, so the fixpoint never terminates and every limit is
// reachable deterministically.
constexpr const char* kDivergent = R"(
  schema { relation R3 : [P, P]; class P : D; }
  instance {
    P(@a); P(@b);
    R3([@a, @b]);
  }
  program {
    R3(y, z) :- R3(x, y).
  }
)";

// A converging program, for clean-run metrics and overhead checks.
constexpr const char* kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

struct RunOutcome {
  Status status = Status::Ok();
  EvalStats stats;
  EvalMetrics metrics;
  // WriteFacts of the rolled-back instance on a trip, of the output on
  // success; empty if the run failed without a partial (e.g. type error).
  std::string facts;
  bool tripped = false;
};

// Parses and runs `source` in a fresh universe. Each call is fully
// independent, so two outcomes can be byte-compared without sharing any
// interning state.
RunOutcome RunSource(const char* source, EvalOptions options) {
  RunOutcome out;
  Universe u;
  auto unit = ParseUnit(&u, source);
  if (!unit.ok()) {
    out.status = unit.status();
    return out;
  }
  Instance input(&unit->schema, &u);
  out.status = ApplyFacts(*unit, &input);
  if (!out.status.ok()) return out;
  std::optional<Instance> partial;
  options.partial = &partial;
  options.metrics = &out.metrics;
  auto result = RunUnit(&u, &*unit, input, options, &out.stats);
  if (result.ok()) {
    out.facts = WriteFacts(*result);
    return out;
  }
  out.status = result.status();
  out.tripped = out.stats.trip != TripReason::kNone;
  if (partial.has_value()) out.facts = WriteFacts(*partial);
  return out;
}

EvalOptions ModeOptions(bool seminaive) {
  EvalOptions options;
  options.enable_seminaive = seminaive;
  return options;
}

// The two pipelines the rollback contract must hold for: naive and
// semi-naive.
struct Mode {
  const char* name;
  bool seminaive;
};
const Mode kModes[] = {
    {"naive", false},
    {"seminaive", true},
};

TEST(GovernorTest, StepTripRollsBackToLastCompletedStep) {
  // All pipelines commit bit-identical steps, so with the same step budget
  // every mode's partial must byte-compare equal -- and equal to a
  // *smaller-budget* reference plus the extra steps, i.e. the partial is
  // exactly the last completed step, not some mid-step state.
  std::string reference;
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.max_steps_per_stage = 4;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kSteps) << mode.name;
    EXPECT_EQ(out.stats.steps, 4u) << mode.name;
    EXPECT_NE(out.status.message().find("resource report"),
              std::string::npos)
        << mode.name;
    ASSERT_FALSE(out.facts.empty()) << mode.name;
    if (reference.empty()) {
      reference = out.facts;
    } else {
      EXPECT_EQ(out.facts, reference) << mode.name;
    }
  }
}

TEST(GovernorTest, DerivationTripIsTransactional) {
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.max_derivations = 5;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kDerivations) << mode.name;
    // Reproduce the tripped state in the same mode by step budget: the
    // partial must equal the last completed step.
    EvalOptions ref = ModeOptions(mode.seminaive);
    ref.limits.max_steps_per_stage = out.stats.steps;
    RunOutcome reference = RunSource(kDivergent, ref);
    EXPECT_EQ(reference.stats.trip, TripReason::kSteps) << mode.name;
    EXPECT_EQ(out.facts, reference.facts) << mode.name;
  }
}

TEST(GovernorTest, InventedOidTripIsTransactional) {
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.max_invented_oids = 6;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kInventedOids) << mode.name;
    EvalOptions ref = ModeOptions(mode.seminaive);
    ref.limits.max_steps_per_stage = out.stats.steps;
    RunOutcome reference = RunSource(kDivergent, ref);
    EXPECT_EQ(out.facts, reference.facts) << mode.name;
  }
}

TEST(GovernorTest, MemoryTripIsTransactional) {
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.max_memory_bytes = 4096;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kMemory) << mode.name;
    EXPECT_GT(out.stats.peak_memory_bytes, 4096u) << mode.name;
    EvalOptions ref = ModeOptions(mode.seminaive);
    ref.limits.max_steps_per_stage = out.stats.steps;
    RunOutcome reference = RunSource(kDivergent, ref);
    EXPECT_EQ(out.facts, reference.facts) << mode.name;
  }
}

TEST(GovernorTest, DeadlineTripIsTransactional) {
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.deadline_seconds = 0.02;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kDeadline) << mode.name;
    EXPECT_GE(out.stats.elapsed_seconds, 0.02) << mode.name;
    // The step count at which the deadline fired is nondeterministic, but
    // the committed state is not: re-run with that count as the budget.
    EvalOptions ref = ModeOptions(mode.seminaive);
    ref.limits.max_steps_per_stage = out.stats.steps;
    RunOutcome reference = RunSource(kDivergent, ref);
    EXPECT_EQ(out.facts, reference.facts) << mode.name;
  }
}

TEST(GovernorTest, CancellationTripIsTransactional) {
  for (const Mode& mode : kModes) {
    // A pre-fired token: evaluation must stop at the very first governor
    // check, before any step commits -- the partial is the input closure
    // at step 0 for the round-0 check.
    CancellationToken token;
    token.Cancel();
    EvalOptions options = ModeOptions(mode.seminaive);
    options.cancel = &token;
    RunOutcome out = RunSource(kDivergent, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kCancelled) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kCancelled) << mode.name;
    EXPECT_EQ(out.stats.steps, 0u) << mode.name;
  }
}

TEST(GovernorTest, ExtentTripCarriesReason) {
  // An unrestricted set-typed variable ranges over a powerset extent; a
  // tiny extent budget trips with kExtent during enumeration.
  constexpr const char* kPowerset = R"(
    schema { relation In : D; relation Out : {D}; }
    instance {
      In("a"); In("b"); In("c"); In("d"); In("e");
    }
    program {
      var X : {D};
      Out(X) :- X = X.
    }
  )";
  for (const Mode& mode : kModes) {
    EvalOptions options = ModeOptions(mode.seminaive);
    options.limits.extent_budget = 8;
    RunOutcome out = RunSource(kPowerset, options);
    ASSERT_FALSE(out.status.ok()) << mode.name;
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted) << mode.name;
    EXPECT_EQ(out.stats.trip, TripReason::kExtent) << mode.name;
    EXPECT_EQ(out.stats.steps, 0u) << mode.name;
  }
}

TEST(GovernorTest, CleanRunReportsMetricsAndNoTrip) {
  RunOutcome out = RunSource(kTransitiveClosure, ModeOptions(true));
  ASSERT_TRUE(out.status.ok()) << out.status;
  EXPECT_EQ(out.stats.trip, TripReason::kNone);
  EXPECT_GT(out.stats.elapsed_seconds, 0.0);
  EXPECT_GT(out.stats.peak_memory_bytes, 0u);
  std::string json = out.metrics.ToJson();
  EXPECT_NE(json.find("\"trip\":\"NONE\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_seconds\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"peak_memory_bytes\":"), std::string::npos) << json;
}

TEST(GovernorTest, TrippedMetricsNameTheReason) {
  EvalOptions options = ModeOptions(true);
  options.limits.max_steps_per_stage = 2;
  RunOutcome out = RunSource(kDivergent, options);
  ASSERT_FALSE(out.status.ok());
  std::string json = out.metrics.ToJson();
  EXPECT_NE(json.find("\"trip\":\"STEPS\""), std::string::npos) << json;
}

TEST(GovernorTest, TripReasonNamesAreStable) {
  EXPECT_STREQ(TripReasonName(TripReason::kNone), "NONE");
  EXPECT_STREQ(TripReasonName(TripReason::kDeadline), "DEADLINE");
  EXPECT_STREQ(TripReasonName(TripReason::kCancelled), "CANCELLED");
  EXPECT_STREQ(TripReasonName(TripReason::kMemory), "MEMORY");
  EXPECT_STREQ(TripReasonName(TripReason::kSteps), "STEPS");
  EXPECT_STREQ(TripReasonName(TripReason::kDerivations), "DERIVATIONS");
  EXPECT_STREQ(TripReasonName(TripReason::kInventedOids), "INVENTED_OIDS");
  EXPECT_STREQ(TripReasonName(TripReason::kExtent), "EXTENT");
  EXPECT_STREQ(TripReasonName(TripReason::kFault), "FAULT");
}

TEST(GovernorTest, FirstTripWinsAndIsSticky) {
  Governor governor(ResourceLimits{});
  EXPECT_FALSE(governor.tripped());
  EXPECT_TRUE(governor.Poll().ok());
  Status first = governor.TripNow(TripReason::kDerivations);
  EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
  // A later trip with a different reason does not overwrite the first.
  Status second = governor.TripNow(TripReason::kDeadline);
  EXPECT_EQ(governor.trip_reason(), TripReason::kDerivations);
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(governor.Poll().ok());
}

TEST(GovernorTest, CancellationTokenResets) {
  CancellationToken token;
  ResourceLimits limits;
  {
    Governor governor(limits, &token);
    token.Cancel();
    Status status = governor.CheckNow();
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
  }
  token.Reset();
  Governor fresh(limits, &token);
  EXPECT_TRUE(fresh.CheckNow().ok());
}

TEST(GovernorTest, MemoryAccountantTracksPeak) {
  MemoryAccountant accountant;
  accountant.Charge(1000);
  accountant.Charge(500);
  accountant.Release(800);
  EXPECT_EQ(accountant.bytes(), 700u);
  EXPECT_EQ(accountant.peak_bytes(), 1500u);
}

// ---- scheduler hooks: tightening, preemption, poll stride -----------------

TEST(GovernorTest, PreemptTripsStickyWithOverloadedStatus) {
  Governor governor(ResourceLimits{});
  Status status = governor.Preempt();
  EXPECT_EQ(status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(governor.trip_reason(), TripReason::kPreempted);
  // Sticky trips bypass the poll stride: the very next Poll observes it.
  EXPECT_FALSE(governor.Poll().ok());
  EXPECT_STREQ(TripReasonName(TripReason::kPreempted), "PREEMPTED");
}

TEST(GovernorTest, TightenOnlyEverLowersEffectiveLimits) {
  ResourceLimits limits;
  limits.max_steps_per_stage = 100;
  limits.max_memory_bytes = 1000;
  limits.deadline_seconds = 60;
  Governor governor(limits);
  EXPECT_FALSE(governor.tightened());
  // Loosening attempts are ignored: effective limits are monotone.
  governor.TightenSteps(200);
  governor.TightenMemory(2000);
  governor.TightenDeadline(120);
  EXPECT_EQ(governor.max_steps(), 100u);
  EXPECT_EQ(governor.max_memory_bytes(), 1000u);
  EXPECT_FALSE(governor.tightened());
  governor.TightenSteps(10);
  governor.TightenMemory(500);
  governor.TightenDeadline(30);
  EXPECT_EQ(governor.max_steps(), 10u);
  EXPECT_EQ(governor.max_memory_bytes(), 500u);
  EXPECT_NEAR(governor.deadline_seconds(), 30.0, 1e-6);
  EXPECT_TRUE(governor.tightened());
}

TEST(GovernorTest, TightenedMemoryCeilingTripsAtTheLowerBound) {
  ResourceLimits limits;
  limits.max_memory_bytes = 1 << 20;
  Governor governor(limits);
  governor.accountant()->Charge(4096);
  EXPECT_TRUE(governor.CheckNow().ok());
  governor.TightenMemory(1024);
  Status status = governor.CheckNow();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.trip_reason(), TripReason::kMemory);
  // The tightened() flag lets a scheduler classify this trip as transient
  // (its own doing) rather than the query hitting an organic ceiling.
  EXPECT_TRUE(governor.tightened());
}

TEST(GovernorTest, TightenedDeadlineExpiresImmediately) {
  ResourceLimits limits;
  limits.deadline_seconds = 3600;
  Governor governor(limits);
  EXPECT_TRUE(governor.CheckNow().ok());
  governor.TightenDeadline(0.0000001);
  Status status = governor.CheckNow();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governor.trip_reason(), TripReason::kDeadline);
}

TEST(GovernorTest, PollStrideBoundsExternalObservationLatency) {
  // A memory overrun is an *external* condition: Poll only notices it on a
  // full check, which the stride gates. The trip must land within one
  // stride's worth of polls -- and with stride 1, on the very first.
  for (uint64_t stride : {uint64_t{1}, uint64_t{4}}) {
    ResourceLimits limits;
    limits.max_memory_bytes = 100;
    limits.poll_stride = stride;
    Governor governor(limits);
    governor.accountant()->Charge(1000);
    uint64_t polls = 0;
    while (governor.Poll().ok()) {
      ASSERT_LT(++polls, stride + 1) << "stride " << stride;
    }
    EXPECT_LE(polls, stride) << "stride " << stride;
    if (stride == 1) {
      EXPECT_EQ(polls, 0u);
    }
    EXPECT_EQ(governor.trip_reason(), TripReason::kMemory);
  }
}

TEST(GovernorTest, PressureHookRunsOnEveryFullCheck) {
  ResourceLimits limits;
  limits.poll_stride = 1;
  Governor governor(limits);
  int calls = 0;
  governor.set_pressure_hook([&] { ++calls; });
  EXPECT_TRUE(governor.CheckNow().ok());
  EXPECT_TRUE(governor.Poll().ok());
  EXPECT_EQ(calls, 2);
  // The hook may trip the governor it is attached to; the same check
  // observes the trip (this is how scheduler preemption lands in-band).
  governor.set_pressure_hook([&governor] {
    governor.Preempt();
  });
  EXPECT_EQ(governor.CheckNow().code(), StatusCode::kOverloaded);
}

// ---- register VM vs tree-walker -------------------------------------------

// A longer converging chain than kTransitiveClosure, so tight budgets trip
// mid-run with several committed steps to compare. Both rules are
// VM-eligible (no invention, no choose), so the default options actually
// run the register VM rather than falling back.
std::string ChainTc(int n) {
  std::ostringstream source;
  source << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
            "instance {\n";
  for (int i = 0; i < n; ++i) {
    source << "  E([\"n" << i << "\", \"n" << i + 1 << "\"]);\n";
  }
  source << "}\nprogram {\n"
            "  TC(x, y) :- E(x, y).\n"
            "  TC(x, z) :- TC(x, y), E(y, z).\n"
            "}\n";
  return source.str();
}

// The tree-walker oracle the VM runs below are compared against.
EvalOptions TreeWalkOptions(bool seminaive) {
  EvalOptions options = ModeOptions(seminaive);
  options.tree_walk_oracle = true;
  return options;
}

TEST(GovernorTest, VmStepTripMatchesTreeWalkerPartial) {
  // Committed steps are bit-identical across engines, so with the same
  // step budget the VM's rolled-back partial must byte-compare equal to
  // the tree-walker's, in every pipeline.
  std::string source = ChainTc(24);
  for (const Mode& mode : kModes) {
    EvalOptions tree = TreeWalkOptions(mode.seminaive);
    tree.limits.max_steps_per_stage = 3;
    RunOutcome tw = RunSource(source.c_str(), tree);
    ASSERT_FALSE(tw.status.ok()) << mode.name;
    EXPECT_EQ(tw.stats.trip, TripReason::kSteps) << mode.name;
    ASSERT_FALSE(tw.facts.empty()) << mode.name;

    EvalOptions vm = ModeOptions(mode.seminaive);
    vm.limits.max_steps_per_stage = 3;
    RunOutcome vo = RunSource(source.c_str(), vm);
    ASSERT_FALSE(vo.status.ok()) << mode.name;
    EXPECT_EQ(vo.stats.trip, TripReason::kSteps) << mode.name;
    EXPECT_EQ(vo.stats.steps, tw.stats.steps) << mode.name;
    EXPECT_EQ(vo.facts, tw.facts) << mode.name;
  }
}

TEST(GovernorTest, VmDerivationTripFiresAtTheSameStep) {
  // The per-step derivation count is plan-independent (each satisfying
  // valuation is enumerated exactly once under any join order), so the
  // kDerivations budget crosses its threshold during the same step under
  // both engines: equal committed-step counts, byte-equal partials.
  std::string source = ChainTc(24);
  for (const Mode& mode : kModes) {
    EvalOptions tree = TreeWalkOptions(mode.seminaive);
    tree.limits.max_derivations = 40;
    RunOutcome tw = RunSource(source.c_str(), tree);
    ASSERT_FALSE(tw.status.ok()) << mode.name;
    EXPECT_EQ(tw.stats.trip, TripReason::kDerivations) << mode.name;

    EvalOptions vm = ModeOptions(mode.seminaive);
    vm.limits.max_derivations = 40;
    RunOutcome vo = RunSource(source.c_str(), vm);
    ASSERT_FALSE(vo.status.ok()) << mode.name;
    EXPECT_EQ(vo.stats.trip, TripReason::kDerivations) << mode.name;
    EXPECT_EQ(vo.stats.steps, tw.stats.steps) << mode.name;
    EXPECT_EQ(vo.facts, tw.facts) << mode.name;
  }
}

TEST(GovernorTest, VmMemoryTripRollsBackToAStepBoundary) {
  // Allocation patterns legitimately differ between engines (the VM skips
  // the tree-walker's per-visit scratch), so the memory trip may land in a
  // different step; the contract is rollback to a completed-step boundary,
  // checked by budget-matching the observed step count on the tree-walker.
  std::string source = ChainTc(32);
  for (const Mode& mode : kModes) {
    EvalOptions vm = ModeOptions(mode.seminaive);
    vm.limits.max_memory_bytes = 8192;
    RunOutcome vo = RunSource(source.c_str(), vm);
    ASSERT_FALSE(vo.status.ok()) << mode.name;
    EXPECT_EQ(vo.stats.trip, TripReason::kMemory) << mode.name;

    EvalOptions ref = TreeWalkOptions(mode.seminaive);
    ref.limits.max_steps_per_stage = vo.stats.steps;
    RunOutcome reference = RunSource(source.c_str(), ref);
    EXPECT_EQ(reference.stats.trip, TripReason::kSteps) << mode.name;
    EXPECT_EQ(vo.facts, reference.facts) << mode.name;
  }
}

TEST(GovernorTest, VmDeadlineTripRollsBackToAStepBoundary) {
  std::string source = ChainTc(220);
  EvalOptions vm = ModeOptions(true);
  vm.limits.deadline_seconds = 0.005;
  RunOutcome vo = RunSource(source.c_str(), vm);
  if (vo.status.ok()) GTEST_SKIP() << "machine finished under the deadline";
  EXPECT_EQ(vo.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(vo.stats.trip, TripReason::kDeadline);
  EvalOptions ref = TreeWalkOptions(true);
  ref.limits.max_steps_per_stage = vo.stats.steps;
  RunOutcome reference = RunSource(source.c_str(), ref);
  EXPECT_EQ(vo.facts, reference.facts);
}

TEST(GovernorTest, VmPreemptionRollsBackToAStepBoundary) {
  // Scheduler-style preemption from the pressure hook while the VM is
  // enumerating: the run ends kPreempted/kOverloaded, and the partial is
  // the last completed step, reproduced by a budget-matched tree-walk run.
  std::string source = ChainTc(24);
  ResourceLimits limits;
  limits.poll_stride = 1;
  Governor governor(limits);
  int calls = 0;
  governor.set_pressure_hook([&] {
    if (++calls == 400) governor.Preempt();
  });
  EvalOptions options;
  options.governor = &governor;
  RunOutcome out = RunSource(source.c_str(), options);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(out.stats.trip, TripReason::kPreempted);
  EXPECT_GT(out.stats.steps, 0u);

  EvalOptions ref = TreeWalkOptions(true);
  ref.limits.max_steps_per_stage = out.stats.steps;
  RunOutcome reference = RunSource(source.c_str(), ref);
  EXPECT_EQ(out.facts, reference.facts);
}

// ---- datalog engine -------------------------------------------------------

datalog::Program TcProgram(datalog::Database* db, int chain) {
  using datalog::Term;
  auto e = db->AddRelation("e", 2);
  auto tc = db->AddRelation("tc", 2);
  EXPECT_TRUE(e.ok() && tc.ok());
  for (int i = 0; i < chain; ++i) {
    db->AddFact(*e, {db->InternConstant(i), db->InternConstant(i + 1)});
  }
  datalog::Program program;
  program.rules.push_back(
      {{*tc, {Term::Var(0), Term::Var(1)}},
       {{*e, {Term::Var(0), Term::Var(1)}}},
       {}});
  program.rules.push_back(
      {{*tc, {Term::Var(0), Term::Var(2)}},
       {{*tc, {Term::Var(0), Term::Var(1)}},
        {*e, {Term::Var(1), Term::Var(2)}}},
       {}});
  return program;
}

TEST(GovernorTest, DatalogStepTripRollsBackAcrossModes) {
  // Facts are append-only and a trip aborts before the round's pending
  // facts are applied, so a tripped run's database is the state after its
  // last completed round: a proper prefix of a clean full run's facts.
  for (auto mode : {datalog::EvalMode::kNaive, datalog::EvalMode::kSemiNaive,
                    datalog::EvalMode::kSemiNaiveIndexed}) {
    datalog::Database clean_db;
    datalog::Program clean_program = TcProgram(&clean_db, 64);
    ASSERT_TRUE(datalog::Evaluate(clean_program, &clean_db, mode).ok());

    datalog::Database tripped_db;
    datalog::Program program = TcProgram(&tripped_db, 64);
    ResourceLimits limits;
    limits.max_steps_per_stage = 3;
    Governor governor(limits);
    datalog::Stats stats;
    Status status =
        datalog::Evaluate(program, &tripped_db, mode, &stats, &governor);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(governor.trip_reason(), TripReason::kSteps);
    EXPECT_EQ(stats.iterations, 3u);
    EXPECT_NE(status.message().find("resource report"), std::string::npos);

    ASSERT_EQ(tripped_db.relation_count(), clean_db.relation_count());
    for (int r = 0; r < tripped_db.relation_count(); ++r) {
      const std::vector<datalog::Tuple>& got = tripped_db.Facts(r);
      const std::vector<datalog::Tuple>& full = clean_db.Facts(r);
      ASSERT_LE(got.size(), full.size()) << "relation " << r;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), full.begin()))
          << "relation " << r;
    }
    auto tc = tripped_db.FindRelation("tc");
    ASSERT_TRUE(tc.ok());
    EXPECT_GT(tripped_db.FactCount(*tc), 0u);
    EXPECT_LT(tripped_db.FactCount(*tc), clean_db.FactCount(*tc));
  }
}

TEST(GovernorTest, DatalogCancellationStopsBeforeDeriving) {
  datalog::Database db;
  datalog::Program program = TcProgram(&db, 256);
  CancellationToken token;
  token.Cancel();
  ResourceLimits limits;
  Governor governor(limits, &token);
  Status status = datalog::Evaluate(program, &db, datalog::EvalMode::kSemiNaive,
                                    nullptr, &governor);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // Round-0 check fires before anything derives: only the EDB remains.
  auto tc = db.FindRelation("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(db.FactCount(*tc), 0u);
}

TEST(GovernorTest, DatalogWithoutGovernorIsUnchanged) {
  datalog::Database db;
  datalog::Program program = TcProgram(&db, 16);
  Status status =
      datalog::Evaluate(program, &db, datalog::EvalMode::kSemiNaive);
  ASSERT_TRUE(status.ok()) << status;
  auto tc = db.FindRelation("tc");
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(db.FactCount(*tc), 16u * 17u / 2u);
}

}  // namespace
}  // namespace iqlkit
