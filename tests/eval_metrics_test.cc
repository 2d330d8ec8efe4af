// EvalMetrics: per-rule and per-round counters on small fixed programs
// where every number is checkable by hand.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "iql/eval.h"
#include "iql/il.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"

#ifndef IQLKIT_SOURCE_DIR
#error "IQLKIT_SOURCE_DIR must point at the source tree"
#endif

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

// The run-wide index counters and each rule's probe/derivation/fact counts.
struct PinnedCounters {
  uint64_t index_builds = 0;  // 0: not pinned (see ExpectCounters)
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;
  std::vector<uint64_t> rule_probes;
  std::vector<uint64_t> rule_derivations;
  std::vector<uint64_t> rule_facts;
};

PinnedCounters CountersOf(const EvalMetrics& m) {
  PinnedCounters c{m.index_builds, m.index_probes, m.index_hits, {}, {}, {}};
  for (const RuleMetrics& r : m.rules) {
    c.rule_probes.push_back(r.index_probes);
    c.rule_derivations.push_back(r.derivations);
    c.rule_facts.push_back(r.facts_added);
  }
  return c;
}

void ExpectCounters(const EvalMetrics& m, const PinnedCounters& want) {
  PinnedCounters got = CountersOf(m);
  if (want.index_builds != 0) {
    EXPECT_EQ(got.index_builds, want.index_builds);
  }
  EXPECT_EQ(got.index_probes, want.index_probes);
  EXPECT_EQ(got.index_hits, want.index_hits);
  EXPECT_EQ(got.rule_probes, want.rule_probes);
  EXPECT_EQ(got.rule_derivations, want.rule_derivations);
  EXPECT_EQ(got.rule_facts, want.rule_facts);
}

// Exact counters for examples/iql/tc.iql at one and two threads. The index
// is an optimization, so these numbers are what tells a change to its
// lookup path (resolve a (container, attrs) index once, then look keys up)
// from a change to what is looked up: the former must keep every count.
TEST(EvalMetricsTest, TcExampleCountersArePinned) {
  std::ifstream in(std::string(IQLKIT_SOURCE_DIR) + "/examples/iql/tc.iql");
  ASSERT_TRUE(in.good());
  std::stringstream source;
  source << in.rdbuf();
  for (uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Universe universe;
    auto unit = ParseUnit(&universe, source.str());
    ASSERT_TRUE(unit.ok()) << unit.status();
    auto in_schema = unit->schema.Project(unit->input_names);
    ASSERT_TRUE(in_schema.ok());
    Instance input(std::make_shared<const Schema>(std::move(*in_schema)),
                   &universe);
    ASSERT_TRUE(ApplyFacts(*unit, &input).ok());
    EvalMetrics metrics;
    EvalOptions options;
    options.metrics = &metrics;
    options.num_threads = threads;
    auto out = RunUnit(&universe, &*unit, input, options);
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectCounters(metrics, {1, 6, 3, {0, 6}, {3, 3}, {3, 3}});
  }
}

// The same pin on a 24-node cycle split into partitions of one candidate.
// At two threads each worker that claims a chunk of a solve builds its own
// index, so the build count depends on scheduling and is only bounded;
// probes, hits and per-rule counts match the serial run exactly.
TEST(EvalMetricsTest, PartitionedCycleCountersArePinned) {
  for (uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ChainRun run(/*nodes=*/24, /*cycle=*/true);
    EvalMetrics metrics;
    EvalOptions options;
    options.metrics = &metrics;
    options.num_threads = threads;
    options.parallel_min_candidates = 1;
    auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->Relation(run.universe.Intern("TC")).size(), 576u);
    ExpectCounters(metrics, {threads == 1 ? 1u : 0u, 576, 576, {0, 576},
                             {24, 576}, {24, 552}});
    if (threads == 2) {
      // 24 partitioned solves of the recursive rule, one or two workers
      // each.
      EXPECT_GE(metrics.index_builds, 24u);
      EXPECT_LE(metrics.index_builds, 48u);
    }
  }
}

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
  EXPECT_NE(json.find("\"apply_seconds\":"), std::string::npos);
}

// A round that adds facts spends part of its time committing them; that
// part is timed on its own, naive and semi-naive.
TEST(EvalMetricsTest, ApplySecondsIsPositiveAndWithinTheRound) {
  for (bool seminaive : {false, true}) {
    SCOPED_TRACE(seminaive ? "semi-naive" : "naive");
    ChainRun run(/*nodes=*/16);
    EvalMetrics metrics;
    EvalOptions options;
    options.metrics = &metrics;
    options.enable_seminaive = seminaive;
    auto out = RunUnit(&run.universe, run.unit.get(), *run.input, options);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_FALSE(metrics.rounds.empty());
    for (const RoundMetrics& round : metrics.rounds) {
      SCOPED_TRACE("round " + std::to_string(round.round));
      EXPECT_LE(round.apply_seconds, round.seconds);
      if (round.delta_facts > 0) {
        EXPECT_GT(round.apply_seconds, 0.0);
      }
    }
  }
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

// `:explain` names the plan the VM runs: for every rule CompileRule
// accepts, the literals its steps name are the distinct Instr::src values
// of the compiled code, in code order.
TEST(EvalMetricsTest, ExplainFollowsTheCompiledOrderOnEveryExample) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(
           fs::path(IQLKIT_SOURCE_DIR) / "examples" / "iql")) {
    if (entry.path().extension() == ".iql") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  size_t compiled_rules = 0;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    std::stringstream source;
    source << in.rdbuf();
    Universe universe;
    auto unit = ParseUnit(&universe, source.str());
    ASSERT_TRUE(unit.ok()) << unit.status();
    std::shared_ptr<const Schema> schema(&unit->schema, [](const Schema*) {});
    if (!unit->input_names.empty()) {
      auto projected = unit->schema.Project(unit->input_names);
      ASSERT_TRUE(projected.ok());
      schema = std::make_shared<const Schema>(std::move(*projected));
    }
    Instance input(schema, &universe);
    ASSERT_TRUE(ApplyFacts(*unit, &input).ok());
    auto explained =
        ExplainSchedule(&universe, unit->schema, &unit->program, input);
    ASSERT_TRUE(explained.ok()) << explained.status();

    // The literal numbers of each rule's steps, rules in output order.
    std::vector<std::vector<uint32_t>> steps;
    std::istringstream lines(*explained);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("rule ", 0) == 0) steps.emplace_back();
      // A step is "  <n>. ..."; range steps name no literal.
      size_t lit = line.find("literal #");
      if (line.size() < 3 || line.compare(0, 2, "  ") != 0 ||
          !std::isdigit(static_cast<unsigned char>(line[2])) ||
          lit == std::string::npos) {
        continue;
      }
      ASSERT_FALSE(steps.empty());
      steps.back().push_back(
          static_cast<uint32_t>(std::stoul(line.substr(lit + 9))));
    }
    std::vector<const Rule*> rules = unit->program.AllRules();
    ASSERT_EQ(steps.size(), rules.size()) << *explained;
    for (size_t r = 0; r < rules.size(); ++r) {
      auto cr = il::CompileRule(unit->program, *rules[r]);
      if (!cr.has_value()) continue;
      ++compiled_rules;
      std::vector<uint32_t> order;
      for (const il::Instr& instr : cr->code) {
        if (instr.src == il::kNoSrc) continue;
        if (std::find(order.begin(), order.end(), instr.src + 1) ==
            order.end()) {
          order.push_back(instr.src + 1);
        }
      }
      EXPECT_EQ(steps[r], order) << "rule " << r << " of\n" << *explained;
    }
  }
  EXPECT_GT(compiled_rules, 0u);
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
