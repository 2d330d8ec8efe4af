// The query shapes iqlserve is benchmarked on -- transitive closure, the
// triangle join, Example 1.2 graph encoding, Example 3.4.1 nest and
// Example 3.4.2 powerset -- evaluated with default options, where every
// VM-eligible rule runs on the register VM, against the all-tree-walk
// oracle (EvalOptions::tree_walk_oracle). Inputs are seeded and spread over
// each shape's served size range. Every run must give byte-identical
// WriteFacts and the same step, derivation and invented-oid counts:
// standalone, and through the Scheduler with and without durable storage.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "iql/eval.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"
#include "server/scheduler.h"

namespace iqlkit {
namespace {

using server::QueryOutcome;
using server::QueryRequest;
using server::QueryResult;
using server::Scheduler;
using server::SchedulerOptions;

constexpr const char* kTcHead =
    "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
    "input E;\noutput TC;\n";
constexpr const char* kTcRules =
    "program {\n"
    "  TC(x, y) :- E(x, y).\n"
    "  TC(x, z) :- TC(x, y), E(y, z).\n"
    "}\n";

constexpr const char* kTriangleHead =
    "schema { relation E : [D, D]; relation T : [D, D]; }\n"
    "input E;\noutput T;\n";
constexpr const char* kTriangleRules =
    "program {\n"
    "  T(x, z) :- E(x, y), E(y, z), E(z, x).\n"
    "}\n";

// Example 1.2: flat edges re-encoded as cyclic objects.
constexpr const char* kGraphEncodingHead =
    "schema {\n"
    "  relation R : [D, D];\n  relation R0 : D;\n  relation R9 : [D, P, P'];\n"
    "  class P : [D, {P}];\n  class P' : {P};\n"
    "}\n"
    "input R;\noutput P, P';\n";
constexpr const char* kGraphEncodingRules =
    "program {\n"
    "  R0(x) :- R(x, y).\n"
    "  R0(x) :- R(y, x).\n"
    "  R9(x, p, p') :- R0(x).\n"
    "  p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).\n"
    "  ;\n"
    "  p^ = [x, p'^] :- R9(x, p, p').\n"
    "}\n";

// Example 3.4.1: nest through invented set-valued oids.
constexpr const char* kNestHead =
    "schema {\n"
    "  relation R2 : [D, D];\n  relation R3 : [D, {D}];\n  relation R4 : D;\n"
    "  relation R5 : [D, P];\n  class P : {D};\n"
    "}\n"
    "input R2;\noutput R3;\n";
constexpr const char* kNestRules =
    "program {\n"
    "  R4(x) :- R2(x, y).\n"
    "  R5(x, z) :- R4(x).\n"
    "  z^(y) :- R2(x, y), R5(x, z).\n"
    "  ;\n"
    "  R3(x, z^) :- R5(x, z).\n"
    "}\n";

// Example 3.4.2: the range-restricted powerset via invented oids.
constexpr const char* kPowersetHead =
    "schema {\n"
    "  relation R : D;\n  relation R1 : {D};\n  relation R2 : [{D}, {D}, P];\n"
    "  class P : {D};\n"
    "}\n"
    "input R;\noutput R1;\n";
constexpr const char* kPowersetRules =
    "program {\n"
    "  R1({}).\n"
    "  R1({x}) :- R(x).\n"
    "  R2(X, Y, z) :- R1(X), R1(Y).\n"
    "  z^(x) :- R2(X, Y, z), X(x).\n"
    "  z^(y) :- R2(X, Y, z), Y(y).\n"
    "  R1(z^) :- P(z).\n"
    "}\n";

struct Unit {
  std::string name;  // shape and size, for failure messages
  std::string source;
};

std::string Assemble(const char* head, const std::string& facts,
                     const char* rules) {
  return std::string(head) + "instance {\n" + facts + "}\n" + rules;
}

// `m` random edges over `n` nodes as binary facts of `rel`.
std::string EdgeFacts(const char* rel, int n, int m, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> node(0, n - 1);
  std::ostringstream out;
  for (int i = 0; i < m; ++i) {
    out << "  " << rel << "(\"" << node(rng) << "\", \"" << node(rng)
        << "\");\n";
  }
  return out.str();
}

// Units over each shape's served size range: TC from the small pool's
// n in [8, 24] to the large pool's [40, 64], triangles n in [8, 16], graph
// encoding n in [16, 48], nest 16 to 64 keys of 4 to 16 values, powerset
// of 3 and 4 elements.
std::vector<Unit> ServedUnits() {
  std::mt19937_64 rng(20260417);
  std::vector<Unit> units;
  for (int n : {8, 16, 24, 40, 52, 64}) {
    units.push_back({"tc n=" + std::to_string(n),
                     Assemble(kTcHead, EdgeFacts("E", n, 2 * n, rng),
                              kTcRules)});
  }
  for (int n : {8, 12, 16}) {
    units.push_back({"triangle n=" + std::to_string(n),
                     Assemble(kTriangleHead, EdgeFacts("E", n, 3 * n, rng),
                              kTriangleRules)});
  }
  for (int n : {16, 32, 48}) {
    units.push_back({"graph-encoding n=" + std::to_string(n),
                     Assemble(kGraphEncodingHead,
                              EdgeFacts("R", n, 2 * n, rng),
                              kGraphEncodingRules)});
  }
  for (auto [keys, fanout] : {std::pair{16, 16}, {40, 10}, {64, 4}}) {
    std::uniform_int_distribution<int> value(0, 4 * keys * fanout);
    std::ostringstream facts;
    for (int key = 0; key < keys; ++key) {
      for (int v = 0; v < fanout; ++v) {
        facts << "  R2(\"k" << key << "\", \"" << value(rng) << "\");\n";
      }
    }
    units.push_back({"nest keys=" + std::to_string(keys),
                     Assemble(kNestHead, facts.str(), kNestRules)});
  }
  for (int n : {3, 4}) {
    std::uniform_int_distribution<int> label(0, 1 << 20);
    std::set<int> elements;
    while (elements.size() < static_cast<size_t>(n)) {
      elements.insert(label(rng));
    }
    std::ostringstream facts;
    for (int e : elements) facts << "  R(\"e" << e << "\");\n";
    units.push_back({"powerset n=" + std::to_string(n),
                     Assemble(kPowersetHead, facts.str(), kPowersetRules)});
  }
  return units;
}

struct Outcome {
  std::string facts;
  EvalStats stats;
  uint64_t vm_instructions = 0;  // summed over the run's rules
};

// Evaluates `source` standalone, the way the scheduler does: a fresh
// universe, the unit's facts applied to its full schema, RunUnit, and
// WriteFacts of the projected output.
Outcome Evaluate(const std::string& source, const EvalOptions& options) {
  Universe universe;
  auto unit = ParseUnit(&universe, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return {};
  Instance input(&unit->schema, &universe);
  Status loaded = ApplyFacts(*unit, &input);
  EXPECT_TRUE(loaded.ok()) << loaded;
  Outcome run;
  EvalMetrics metrics;
  EvalOptions measured = options;
  measured.metrics = &metrics;
  auto out = RunUnit(&universe, &*unit, input, measured, &run.stats);
  EXPECT_TRUE(out.ok()) << out.status();
  if (out.ok()) run.facts = WriteFacts(*out);
  for (const RuleMetrics& rule : metrics.rules) {
    run.vm_instructions += rule.vm_instructions;
  }
  return run;
}

Outcome Oracle(const std::string& source) {
  EvalOptions options;
  options.tree_walk_oracle = true;
  return Evaluate(source, options);
}

void ExpectSameRun(const Outcome& got, const Outcome& oracle,
                   const std::string& where) {
  EXPECT_FALSE(oracle.facts.empty()) << where;
  EXPECT_EQ(got.facts, oracle.facts) << where;
  EXPECT_EQ(got.stats.steps, oracle.stats.steps) << where;
  EXPECT_EQ(got.stats.derivations, oracle.stats.derivations) << where;
  EXPECT_EQ(got.stats.invented_oids, oracle.stats.invented_oids) << where;
}

TEST(ServedOracleTest, DefaultRunsTheVmAndTheOracleDoesNot) {
  // Every shape has VM-eligible rules, so a default run executes VM
  // instructions while the oracle executes none. The units mix
  // invention-free shapes (TC, triangles) with shapes whose invention rules
  // stay on the tree-walker; both kinds must be present.
  uint64_t invented = 0;
  uint64_t invention_free = 0;
  for (const Unit& unit : ServedUnits()) {
    EXPECT_GT(Evaluate(unit.source, EvalOptions{}).vm_instructions, 0u)
        << unit.name;
    Outcome oracle = Oracle(unit.source);
    EXPECT_EQ(oracle.vm_instructions, 0u) << unit.name;
    (oracle.stats.invented_oids > 0 ? invented : invention_free) += 1;
  }
  EXPECT_EQ(invented, 8u);
  EXPECT_EQ(invention_free, 9u);
}

TEST(ServedOracleTest, DefaultMatchesTheTreeWalkOracle) {
  for (const Unit& unit : ServedUnits()) {
    ExpectSameRun(Evaluate(unit.source, EvalOptions{}), Oracle(unit.source),
                  unit.name);
  }
}

// Submits every unit to one scheduler, then compares each collected result
// with the serial oracle (the scheduler evaluates serially).
void ExpectSchedulerMatchesOracle(const SchedulerOptions& options) {
  std::vector<Unit> units = ServedUnits();
  Scheduler scheduler(options);
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < units.size(); ++i) {
    QueryRequest request;
    request.id = "q" + std::to_string(i);
    request.source = units[i].source;
    auto ticket = scheduler.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
  }
  for (size_t i = 0; i < units.size(); ++i) {
    QueryResult result = scheduler.Wait(tickets[i]);
    ASSERT_EQ(result.outcome, QueryOutcome::kCompleted)
        << units[i].name << ": " << result.status;
    EXPECT_EQ(result.attempts, 1) << units[i].name;
    EXPECT_FALSE(result.resumed) << units[i].name;
    EXPECT_EQ(result.storage_warning, "") << units[i].name;
    ExpectSameRun({result.facts, result.stats}, Oracle(units[i].source),
                  units[i].name + ", scheduler");
  }
}

TEST(ServedOracleTest, SchedulerMatchesTheTreeWalkOracle) {
  SchedulerOptions options;
  options.workers = 2;
  ExpectSchedulerMatchesOracle(options);
}

TEST(ServedOracleTest, DurableSchedulerMatchesTheTreeWalkOracle) {
  std::string dir = ::testing::TempDir() + "/iqlkit_served_oracle";
  std::filesystem::remove_all(dir);
  SchedulerOptions options;
  options.workers = 2;
  options.data_dir = dir;
  options.durability.fsync = false;
  ExpectSchedulerMatchesOracle(options);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace iqlkit
