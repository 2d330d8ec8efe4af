// EvalMetrics: per-rule and per-round counters on small fixed programs
// where every number is checkable by hand.

#include <memory>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

constexpr std::string_view kTcSource = R"(
schema {
  relation E  : [D, D];
  relation TC : [D, D];
}
input E;
output TC;
program {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
)";

// A parsed TC unit with E = the chain 1 -> 2 -> ... -> `nodes`, closed
// into a cycle by the edge `nodes` -> 1 when `cycle` is set.
struct ChainRun {
  explicit ChainRun(int nodes = 5, bool cycle = false) {
    auto parsed = ParseUnit(&universe, kTcSource);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    unit = std::make_unique<ParsedUnit>(std::move(*parsed));
    auto in = unit->schema.Project(unit->input_names);
    EXPECT_TRUE(in.ok());
    input_schema = std::make_shared<const Schema>(std::move(*in));
    input = std::make_unique<Instance>(input_schema, &universe);
    ValueStore& v = universe.values();
    int edges = cycle ? nodes : nodes - 1;
    for (int a = 1; a <= edges; ++a) {
      ValueId t = v.Tuple(
          {{PositionalAttr(&universe, 1), v.ConstInt(a)},
           {PositionalAttr(&universe, 2), v.ConstInt(a % nodes + 1)}});
      EXPECT_TRUE(input->AddToRelation("E", t).ok());
    }
  }

  Universe universe;
  std::unique_ptr<ParsedUnit> unit;
  std::shared_ptr<const Schema> input_schema;
  std::unique_ptr<Instance> input;
};

TEST(EvalMetricsTest, SemiNaiveRoundsAndPerRuleCounts) {
  ChainRun run;
  EvalMetrics metrics;
  EvalOptions options;
  options.metrics = &metrics;
  EvalStats stats;
  auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options,
                     &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  // The 5-chain closes to C(5,2) = 10 TC facts.
  EXPECT_EQ(out->Relation(run.universe.Intern("TC")).size(), 10u);

  // Rounds: the initial full round derives the 4 base facts, then deltas
  // of 3, 2, 1, and an empty round that detects the fixpoint.
  ASSERT_EQ(metrics.rounds.size(), 5u);
  uint64_t expected_delta[] = {4, 3, 2, 1, 0};
  for (size_t i = 0; i < metrics.rounds.size(); ++i) {
    EXPECT_TRUE(metrics.rounds[i].seminaive);
    EXPECT_EQ(metrics.rounds[i].round, i);
    EXPECT_EQ(metrics.rounds[i].delta_facts, expected_delta[i]) << i;
  }
  // Final instance: 4 E facts + 10 TC facts.
  EXPECT_EQ(metrics.rounds.back().total_facts, 14u);
  EXPECT_EQ(stats.steps, 5u);

  // Per rule: the base rule fires once (its body never appears in a
  // delta); the recursive rule runs in every round.
  ASSERT_EQ(metrics.rules.size(), 2u);
  EXPECT_EQ(metrics.rules[0].invocations, 1u);
  EXPECT_EQ(metrics.rules[0].derivations, 4u);
  EXPECT_EQ(metrics.rules[0].facts_added, 4u);
  EXPECT_EQ(metrics.rules[1].invocations, 5u);
  EXPECT_EQ(metrics.rules[1].derivations, 6u);
  EXPECT_EQ(metrics.rules[1].facts_added, 6u);
  EXPECT_NE(metrics.rules[1].text.find(":-"), std::string::npos);

  // The recursive rule's E lookup is served by the hash index.
  EXPECT_GT(metrics.index_probes, 0u);
  EXPECT_GT(metrics.index_hits, 0u);
  EXPECT_GT(metrics.index_builds, 0u);

  std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"rules\":["), std::string::npos);
  EXPECT_NE(json.find("\"delta_facts\":4"), std::string::npos);
}

TEST(EvalMetricsTest, NaiveRoundsWhenSemiNaiveDisabled) {
  ChainRun run;
  EvalMetrics metrics;
  EvalOptions options;
  options.metrics = &metrics;
  options.enable_seminaive = false;
  auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->Relation(run.universe.Intern("TC")).size(), 10u);
  // Naive steps add 4, 3, 2, 1 facts; the empty fifth val-dom returns
  // before a round is recorded.
  ASSERT_EQ(metrics.rounds.size(), 4u);
  uint64_t expected_delta[] = {4, 3, 2, 1};
  for (size_t i = 0; i < metrics.rounds.size(); ++i) {
    EXPECT_FALSE(metrics.rounds[i].seminaive);
    EXPECT_EQ(metrics.rounds[i].delta_facts, expected_delta[i]) << i;
  }
}

// A derivation-budget trip leaves the counters as consistent as a
// completed run, naive and semi-naive, at every thread count: the run's
// index probes equal the rules' summed probes, exactly the budget's worth
// of derivations is attributed to rules, and the run's derivation count
// shows the overrun that tripped it.
TEST(EvalMetricsTest, CountersStayConsistentOnADerivationTrip) {
  constexpr uint64_t kBudget = 500;
  for (bool seminaive : {false, true}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(seminaive ? "semi-naive" : "naive") +
                   " threads=" + std::to_string(threads));
      ChainRun run(/*nodes=*/40, /*cycle=*/true);
      EvalMetrics metrics;
      EvalOptions options;
      options.metrics = &metrics;
      options.enable_seminaive = seminaive;
      options.num_threads = threads;
      options.parallel_min_candidates = 1;
      options.limits.max_derivations = kBudget;
      EvalStats stats;
      auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options,
                         &stats);
      ASSERT_FALSE(out.ok());
      EXPECT_EQ(stats.trip, TripReason::kDerivations);
      uint64_t rule_probes = 0;
      uint64_t rule_derivations = 0;
      for (const RuleMetrics& rule : metrics.rules) {
        rule_probes += rule.index_probes;
        rule_derivations += rule.derivations;
      }
      EXPECT_GT(rule_probes, 0u);
      EXPECT_EQ(metrics.index_probes, rule_probes);
      EXPECT_EQ(rule_derivations, kBudget);
      EXPECT_GT(stats.derivations, kBudget);
    }
  }
}

TEST(EvalMetricsTest, TogglesDoNotChangeResults) {
  // {indexing, scheduling} off in every combination: identical facts (the
  // program is invention-free, so bit-for-bit equality is required).
  ChainRun base;
  EvalOptions plain;
  plain.enable_indexing = false;
  plain.enable_scheduling = false;
  auto reference = RunUnit(&base.universe, base.unit.get(), *base.input,
                           plain);
  ASSERT_TRUE(reference.ok());
  for (bool indexing : {false, true}) {
    for (bool scheduling : {false, true}) {
      for (bool seminaive : {false, true}) {
        EvalOptions options;
        options.enable_indexing = indexing;
        options.enable_scheduling = scheduling;
        options.enable_seminaive = seminaive;
        auto out = RunUnit(&base.universe, base.unit.get(), *base.input,
                           options);
        ASSERT_TRUE(out.ok());
        EXPECT_TRUE(out->EqualGroundFacts(*reference))
            << "indexing=" << indexing << " scheduling=" << scheduling
            << " seminaive=" << seminaive;
      }
    }
  }
}

TEST(EvalMetricsTest, IndexCountersZeroWhenDisabled) {
  ChainRun run;
  EvalMetrics metrics;
  EvalOptions options;
  options.metrics = &metrics;
  options.enable_indexing = false;
  auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(metrics.index_builds, 0u);
  EXPECT_EQ(metrics.index_probes, 0u);
  EXPECT_EQ(metrics.index_hits, 0u);
  for (const RuleMetrics& r : metrics.rules) {
    EXPECT_EQ(r.index_probes, 0u);
  }
}

}  // namespace
}  // namespace iqlkit
