// Differential and parameterized property tests: the IQL evaluator checked
// against the independent flat Datalog engine on the shared relational
// fragment, the register VM against the tree-walker on the example corpus,
// determinacy/genericity sweeps, and phi/psi round trips on random cyclic
// instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "datalog/datalog.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"
#include "transform/isomorphism.h"
#include "vmodel/encode.h"

namespace iqlkit {
namespace {

std::vector<std::pair<int, int>> RandomEdges(int n, int m, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < m; ++i) edges.emplace_back(node(rng), node(rng));
  return edges;
}

// ---- IQL vs Datalog on transitive closure ---------------------------------

class TcDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TcDifferentialTest, IqlAndDatalogAgree) {
  uint32_t seed = GetParam();
  int n = 8 + seed % 8;
  auto edges = RandomEdges(n, 2 * n, seed);

  // Datalog reference result.
  datalog::Database db;
  int e = *db.AddRelation("E", 2);
  int tc = *db.AddRelation("TC", 2);
  datalog::Program dprog;
  using datalog::Atom;
  using datalog::Term;
  dprog.rules.push_back(datalog::Rule{
      Atom{tc, {Term::Var(0), Term::Var(1)}},
      {Atom{e, {Term::Var(0), Term::Var(1)}}},
      {}});
  dprog.rules.push_back(datalog::Rule{
      Atom{tc, {Term::Var(0), Term::Var(2)}},
      {Atom{tc, {Term::Var(0), Term::Var(1)}},
       Atom{e, {Term::Var(1), Term::Var(2)}}},
      {}});
  for (auto [a, b] : edges) {
    db.AddFact(e, {db.InternConstant(a), db.InternConstant(b)});
  }
  ASSERT_TRUE(
      datalog::Evaluate(dprog, &db, datalog::EvalMode::kSemiNaive).ok());

  // IQL result.
  Universe u;
  auto unit = ParseUnit(&u, R"(
    schema { relation E : [D, D]; relation TC : [D, D]; }
    input E;
    output TC;
    program {
      TC(x, y) :- E(x, y).
      TC(x, z) :- TC(x, y), E(y, z).
    }
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto in_schema = unit->schema.Project({"E"});
  ASSERT_TRUE(in_schema.ok());
  Instance input(std::make_shared<const Schema>(std::move(*in_schema)), &u);
  ValueStore& v = u.values();
  for (auto [a, b] : edges) {
    ASSERT_TRUE(
        input
            .AddToRelation(
                "E", v.Tuple({{PositionalAttr(&u, 1), v.ConstInt(a)},
                              {PositionalAttr(&u, 2), v.ConstInt(b)}}))
            .ok());
  }
  // Three evaluator configurations -- naive, semi-naive without indexes,
  // semi-naive with indexing and scheduling -- must all reproduce the
  // reference result.
  struct ModeConfig {
    const char* name;
    bool seminaive;
    bool indexing;
    bool scheduling;
  };
  constexpr ModeConfig kModes[] = {
      {"naive", false, false, false},
      {"seminaive", true, false, false},
      {"seminaive+indexed", true, true, true},
  };
  for (const ModeConfig& mode : kModes) {
    EvalOptions options;
    options.enable_seminaive = mode.seminaive;
    options.enable_indexing = mode.indexing;
    options.enable_scheduling = mode.scheduling;
    auto out = RunUnit(&u, &*unit, input, options);
    ASSERT_TRUE(out.ok()) << out.status();

    // Same cardinality and same pairs.
    const auto& iql_tc = out->Relation(u.Intern("TC"));
    ASSERT_EQ(iql_tc.size(), db.FactCount(tc))
        << "seed " << seed << " mode " << mode.name;
    for (ValueId t2 : iql_tc) {
      const ValueNode& node = v.node(t2);
      ASSERT_EQ(node.fields.size(), 2u);
      datalog::Tuple key = {
          db.InternConstant(
              std::string(u.Name(v.node(node.fields[0].second).atom))),
          db.InternConstant(
              std::string(u.Name(v.node(node.fields[1].second).atom)))};
      EXPECT_TRUE(db.Contains(tc, key))
          << "seed " << seed << " mode " << mode.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcDifferentialTest,
                         ::testing::Range<uint32_t>(0, 12));

// ---- determinacy sweep (Theorem 4.1.3) -------------------------------------

class DeterminacySweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DeterminacySweepTest, GraphEncodingDeterminateUpToIsomorphism) {
  uint32_t seed = GetParam();
  constexpr std::string_view kSource = R"(
    schema {
      relation R  : [D, D];
      relation R0 : D;
      relation R9 : [D, P, P'];
      class P  : [D, {P}];
      class P' : {P};
    }
    input R;
    output P, P';
    program {
      R0(x) :- R(x, y).
      R0(x) :- R(y, x).
      R9(x, p, p') :- R0(x).
      p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).
      ;
      p^ = [x, p'^] :- R9(x, p, p').
    }
  )";
  Universe u;
  int n = 4 + seed % 5;
  auto edges = RandomEdges(n, n + 2, seed * 31 + 1);
  auto run_once = [&](const EvalOptions& options) {
    auto unit = ParseUnit(&u, kSource);
    EXPECT_TRUE(unit.ok());
    auto in_schema = unit->schema.Project({"R"});
    EXPECT_TRUE(in_schema.ok());
    Instance input(std::make_shared<const Schema>(std::move(*in_schema)),
                   &u);
    ValueStore& v = u.values();
    for (auto [a, b] : edges) {
      EXPECT_TRUE(
          input
              .AddToRelation(
                  "R", v.Tuple({{PositionalAttr(&u, 1), v.ConstInt(a)},
                                {PositionalAttr(&u, 2), v.ConstInt(b)}}))
              .ok());
    }
    auto out = RunUnit(&u, &*unit, input, options);
    EXPECT_TRUE(out.ok()) << out.status();
    auto out_schema = unit->schema.Project({"P", "P'"});
    EXPECT_TRUE(out_schema.ok());
    return out->Project(
        std::make_shared<const Schema>(std::move(*out_schema)));
  };
  Instance out1 = run_once(EvalOptions{});
  Instance out2 = run_once(EvalOptions{});
  EXPECT_TRUE(OIsomorphic(out1, out2)) << "seed " << seed;
  // An invention program under each evaluator configuration: join order
  // and indexing may renumber invented oids, but the result must stay
  // O-isomorphic (Theorem 4.1.3).
  EvalOptions naive;
  naive.enable_seminaive = false;
  naive.enable_indexing = false;
  naive.enable_scheduling = false;
  Instance out_naive = run_once(naive);
  EXPECT_TRUE(OIsomorphic(out1, out_naive)) << "seed " << seed;
  EvalOptions unindexed;
  unindexed.enable_indexing = false;
  Instance out_unindexed = run_once(unindexed);
  EXPECT_TRUE(OIsomorphic(out1, out_unindexed)) << "seed " << seed;
  EvalOptions unscheduled;
  unscheduled.enable_scheduling = false;
  Instance out_unscheduled = run_once(unscheduled);
  EXPECT_TRUE(OIsomorphic(out1, out_unscheduled)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminacySweepTest,
                         ::testing::Range<uint32_t>(0, 8));

// ---- psi/phi round trips on random cyclic object graphs --------------------

class PsiPhiSweepTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PsiPhiSweepTest, PsiOfPhiIsIdentity) {
  uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  Universe u;
  TypePool& t = u.types();
  auto schema = std::make_shared<Schema>(&u);
  ASSERT_TRUE(schema
                  ->DeclareClass("Node",
                                 t.Tuple({{u.Intern("name"), t.Base()},
                                          {u.Intern("succ"),
                                           t.Set(t.ClassNamed("Node"))}}))
                  .ok());
  // Random object graph with a small label alphabet (forces some
  // collapses) and random successor sets.
  int n = 3 + seed % 6;
  Instance inst(schema.get(), &u);
  ValueStore& v = u.values();
  std::vector<Oid> oids;
  for (int i = 0; i < n; ++i) {
    auto o = inst.CreateOid("Node");
    ASSERT_TRUE(o.ok());
    oids.push_back(*o);
  }
  std::uniform_int_distribution<int> label(0, 1);
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (int i = 0; i < n; ++i) {
    std::vector<ValueId> succ;
    int degree = static_cast<int>(rng() % 3);
    for (int k = 0; k < degree; ++k) {
      succ.push_back(v.OfOid(oids[pick(rng)]));
    }
    ASSERT_TRUE(
        inst.SetOidValue(oids[i],
                         v.Tuple({{u.Intern("name"),
                                   v.ConstInt(label(rng))},
                                  {u.Intern("succ"),
                                   v.Set(std::move(succ))}}))
            .ok());
  }
  auto pure = Psi(inst);
  ASSERT_TRUE(pure.ok()) << pure.status();
  auto objects = Phi(&u, schema, *pure);
  ASSERT_TRUE(objects.ok()) << objects.status();
  EXPECT_TRUE(objects->Validate().ok());
  auto pure2 = Psi(*objects);
  ASSERT_TRUE(pure2.ok()) << pure2.status();
  EXPECT_TRUE(VInstanceEqual(*pure, *pure2)) << "seed " << seed;
  // phi(psi(.)) never grows the instance (duplicate elimination only).
  EXPECT_LE(objects->ClassExtent(u.Intern("Node")).size(),
            inst.ClassExtent(u.Intern("Node")).size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsiPhiSweepTest,
                         ::testing::Range<uint32_t>(0, 16));

// ---- register VM vs tree-walker, naive vs semi-naive ----------------------
//
// Every example program and a few inline invention / choose / deletion
// programs must serialize to byte-identical facts -- not merely
// O-isomorphic ones -- on the register VM as on the all-tree-walk oracle,
// under both the naive operator (scans only) and the semi-naive one
// (indexing and scheduling on). Each run uses a fresh universe, so invented
// oids only coincide if both executors fire every derivation in the same
// order.

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<fs::path> ExamplePaths() {
  std::vector<fs::path> out;
  for (const auto& entry :
       fs::directory_iterator(fs::path(IQLKIT_SOURCE_DIR) / "examples" /
                              "iql")) {
    if (entry.path().extension() == ".iql") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Parses `source` into a fresh universe, applies its embedded instance
// block over the declared input projection, evaluates, and serializes the
// result. Everything oid-related restarts from zero, so two calls agree
// byte-for-byte only if evaluation is fully deterministic.
std::string RunToFacts(const std::string& source, const EvalOptions& options) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return "<parse error>";
  std::shared_ptr<const Schema> input_schema;
  if (unit->input_names.empty()) {
    input_schema = std::make_shared<const Schema>(unit->schema);
  } else {
    auto projected = unit->schema.Project(unit->input_names);
    EXPECT_TRUE(projected.ok()) << projected.status();
    if (!projected.ok()) return "<projection error>";
    input_schema = std::make_shared<const Schema>(std::move(*projected));
  }
  Instance input(input_schema, &u);
  EXPECT_TRUE(ApplyFacts(*unit, &input).ok());
  auto out = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return "<eval error>";
  return WriteFacts(*out);
}

// `options` with the all-tree-walk oracle on (`oracle`) or off.
EvalOptions OnExecutor(EvalOptions options, bool oracle) {
  options.tree_walk_oracle = oracle;
  return options;
}

void ExpectExecutorsAgree(const std::string& source) {
  for (bool seminaive : {false, true}) {
    EvalOptions options;
    options.enable_seminaive = seminaive;
    options.enable_indexing = seminaive;
    options.enable_scheduling = seminaive;
    options.allow_deletions = true;
    std::string oracle = RunToFacts(source, OnExecutor(options, true));
    EXPECT_EQ(RunToFacts(source, OnExecutor(options, false)), oracle)
        << (seminaive ? "semi-naive" : "naive");
  }
}

class ExampleExecutorTest : public ::testing::TestWithParam<int> {};

TEST_P(ExampleExecutorTest, VmMatchesTheTreeWalkOracle) {
  std::vector<fs::path> paths = ExamplePaths();
  ASSERT_LT(static_cast<size_t>(GetParam()), paths.size());
  const fs::path& path = paths[GetParam()];
  SCOPED_TRACE(path.filename().string());
  ExpectExecutorsAgree(ReadFile(path));
}

// One instantiation per examples/iql/*.iql (sorted): genesis,
// graph_encoding (invention + weak assignment), powerset (set-type
// extents), tc, updates (IQL* deletions).
INSTANTIATE_TEST_SUITE_P(Examples, ExampleExecutorTest,
                         ::testing::Range(0, 5));

TEST(ExecutorDifferentialTest, ExampleCorpusIsWhatWeExpect) {
  // If examples are added, widen the Range above so they are covered.
  EXPECT_EQ(ExamplePaths().size(), 5u);
}

// A relational workload with wide candidate lists every round.
TEST(ExecutorDifferentialTest, WideTransitiveClosure) {
  std::ostringstream source;
  source << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
            "input E;\noutput TC;\ninstance {\n";
  uint64_t x = 7;
  for (int i = 0; i < 120; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source << "  E(" << (x >> 33) % 40 << ", " << (x >> 13) % 40 << ");\n";
  }
  source << "}\nprogram {\n"
            "  TC(x, y) :- E(x, y).\n"
            "  TC(x, z) :- TC(x, y), E(y, z).\n"
            "}\n";
  ExpectExecutorsAgree(source.str());
}

// Invention after a VM stage: one oid minted per satisfying valuation, in
// canonical order, plus weak assignment of its nu-value.
TEST(ExecutorDifferentialTest, InventionOrderIsCanonical) {
  std::ostringstream source;
  source << "schema {\n"
            "  relation E : [D, D];\n"
            "  class P : [D, D];\n"
            "  relation Tag : [D, P];\n"
            "}\n"
            "input E;\noutput Tag, P;\ninstance {\n";
  uint64_t x = 3;
  for (int i = 0; i < 60; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
    source << "  E(" << (x >> 33) % 24 << ", " << (x >> 13) % 24 << ");\n";
  }
  source << "}\nprogram {\n"
            "  Tag(a, p) :- E(a, b).\n"
            "  ;\n"
            "  p^ = [a, a] :- Tag(a, p).\n"
            "}\n";
  ExpectExecutorsAgree(source.str());
}

// Choose (IQL+) after a VM stage: the choose rule itself runs on the
// tree-walker (its pick is enumeration-order sensitive), and the
// composition must match the all-tree-walk oracle under every policy,
// including the seeded kRandom one.
TEST(ExecutorDifferentialTest, ChooseSeesCanonicalOrder) {
  std::string source = R"(
    schema {
      relation R : D;
      class M : D;
      relation Mark : [D, M];
      relation Picked : M;
    }
    input R;
    output Picked, M;
    instance {
      R("a"); R("b"); R("c"); R("d"); R("e"); R("f"); R("g"); R("h");
    }
    program {
      Mark(x, m) :- R(x).
      ;
      Picked(m) :- choose.
    }
  )";
  for (auto policy : {EvalOptions::ChoosePolicy::kMinOid,
                      EvalOptions::ChoosePolicy::kMaxOid,
                      EvalOptions::ChoosePolicy::kRandom}) {
    EvalOptions options;
    options.choose_policy = policy;
    options.choose_seed = 42;
    EXPECT_EQ(RunToFacts(source, OnExecutor(options, false)),
              RunToFacts(source, OnExecutor(options, true)))
        << "policy " << static_cast<int>(policy);
  }
}

// Deletions (IQL*) mixed with inserts: the derivation order must also
// drive the deletion application order.
TEST(ExecutorDifferentialTest, DeletionsStayDeterministic) {
  std::ostringstream source;
  source << "schema {\n"
            "  relation Active : D;\n"
            "  relation Flagged : D;\n"
            "  relation Alumni : D;\n"
            "}\ninstance {\n";
  for (int i = 0; i < 30; ++i) {
    source << "  Active(" << i << ");\n";
    if (i % 3 == 0) source << "  Flagged(" << i << ");\n";
  }
  source << "}\nprogram {\n"
            "  Alumni(x)  :- Active(x), Flagged(x).\n"
            "  !Active(x) :- Flagged(x).\n"
            "}\n";
  ExpectExecutorsAgree(source.str());
}

// A rule whose enumeration never branches over a candidate list still
// derives its fact on both executors.
TEST(ExecutorDifferentialTest, NonBranchingRuleDerivesItsFact) {
  std::string source =
      "schema { relation S : D; relation R : D; }\n"
      "input S;\noutput R;\ninstance { S(\"b\"); }\n"
      "program {\n  R(x) :- x = \"a\".\n}\n";
  for (bool oracle : {false, true}) {
    EXPECT_NE(RunToFacts(source, OnExecutor(EvalOptions{}, oracle))
                  .find("R(\"a\");"),
              std::string::npos)
        << (oracle ? "tree-walk oracle" : "vm");
  }
}

// ---- naive vs semi-naive Datalog sweep -------------------------------------

class DatalogModesTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DatalogModesTest, SameGenerationAgrees) {
  uint32_t seed = GetParam();
  int n = 6 + seed % 6;
  auto edges = RandomEdges(n, n, seed * 7 + 3);
  auto build = [&](datalog::EvalMode mode, size_t* count,
                   std::set<datalog::Tuple>* result) {
    datalog::Database db;
    int par = *db.AddRelation("Par", 2);
    int sg = *db.AddRelation("SG", 2);
    datalog::Program p;
    using datalog::Atom;
    using datalog::Term;
    p.rules.push_back(datalog::Rule{
        Atom{sg, {Term::Var(0), Term::Var(1)}},
        {Atom{par, {Term::Var(0), Term::Var(2)}},
         Atom{par, {Term::Var(1), Term::Var(2)}}},
        {}});
    p.rules.push_back(datalog::Rule{
        Atom{sg, {Term::Var(0), Term::Var(1)}},
        {Atom{par, {Term::Var(0), Term::Var(2)}},
         Atom{sg, {Term::Var(2), Term::Var(3)}},
         Atom{par, {Term::Var(1), Term::Var(3)}}},
        {}});
    for (auto [a, b] : edges) {
      db.AddFact(par, {db.InternConstant(a), db.InternConstant(b)});
    }
    ASSERT_TRUE(datalog::Evaluate(p, &db, mode).ok());
    *count = db.FactCount(sg);
    for (const auto& tuple : db.Facts(sg)) result->insert(tuple);
  };
  size_t naive_count = 0, semi_count = 0, indexed_count = 0;
  std::set<datalog::Tuple> naive_result, semi_result, indexed_result;
  build(datalog::EvalMode::kNaive, &naive_count, &naive_result);
  build(datalog::EvalMode::kSemiNaive, &semi_count, &semi_result);
  build(datalog::EvalMode::kSemiNaiveIndexed, &indexed_count,
        &indexed_result);
  EXPECT_EQ(naive_count, semi_count) << "seed " << seed;
  EXPECT_EQ(naive_result, semi_result) << "seed " << seed;
  EXPECT_EQ(naive_count, indexed_count) << "seed " << seed;
  EXPECT_EQ(naive_result, indexed_result) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogModesTest,
                         ::testing::Range<uint32_t>(0, 12));

}  // namespace
}  // namespace iqlkit
