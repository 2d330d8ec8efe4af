// Experiment E10 (§3.4, "each Datalog program can be viewed as a valid IQL
// program"): transitive closure on the same random graphs under
//   (a) the flat relational Datalog engine, naive evaluation,
//   (b) the same engine, semi-naive evaluation,
//   (c) the IQL naive inflationary evaluator (objects, typed terms).
// Expected shape: semi-naive < naive < IQL-naive, with all three
// polynomial; the gap (a)->(c) is the price of the object machinery, the
// gap (b)->(a) the classic semi-naive win.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datalog/datalog.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kIqlTC = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E;
  output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

void BM_Datalog_TC(benchmark::State& state, datalog::EvalMode mode) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 11);
  size_t closure = 0;
  for (auto _ : state) {
    datalog::Database db;
    int e = *db.AddRelation("E", 2);
    int tc = *db.AddRelation("TC", 2);
    datalog::Program prog;
    using datalog::Atom;
    using datalog::Term;
    prog.rules.push_back(datalog::Rule{
        Atom{tc, {Term::Var(0), Term::Var(1)}},
        {Atom{e, {Term::Var(0), Term::Var(1)}}},
        {}});
    prog.rules.push_back(datalog::Rule{
        Atom{tc, {Term::Var(0), Term::Var(2)}},
        {Atom{tc, {Term::Var(0), Term::Var(1)}},
         Atom{e, {Term::Var(1), Term::Var(2)}}},
        {}});
    for (auto [a, b] : edges) {
      db.AddFact(e, {db.InternConstant(a), db.InternConstant(b)});
    }
    auto start = std::chrono::steady_clock::now();
    Status s = datalog::Evaluate(prog, &db, mode);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(s.ok()) << s;
    closure = db.FactCount(tc);
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["tc_facts"] = static_cast<double>(closure);
}

void BM_Datalog_TC_Naive(benchmark::State& state) {
  BM_Datalog_TC(state, datalog::EvalMode::kNaive);
}
BENCHMARK(BM_Datalog_TC_Naive)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Datalog_TC_SemiNaive(benchmark::State& state) {
  BM_Datalog_TC(state, datalog::EvalMode::kSemiNaive);
}
BENCHMARK(BM_Datalog_TC_SemiNaive)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Delta joins answered by the per-(relation, bound-positions) hash
// indexes instead of full scans.
void BM_Datalog_TC_SemiNaiveIndexed(benchmark::State& state) {
  BM_Datalog_TC(state, datalog::EvalMode::kSemiNaiveIndexed);
}
BENCHMARK(BM_Datalog_TC_SemiNaiveIndexed)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Iql_TC(benchmark::State& state, bool seminaive, bool indexed) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 11);
  size_t closure = 0;
  EvalMetrics metrics;
  for (auto _ : state) {
    metrics = EvalMetrics{};
    PreparedRun run(kIqlTC);
    for (auto [a, b] : edges) run.AddEdge("E", a, b);
    EvalOptions options;
    options.enable_seminaive = seminaive;
    options.enable_indexing = indexed;
    options.enable_scheduling = indexed;
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    closure = out->Relation(run.universe.Intern("TC")).size();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["tc_facts"] = static_cast<double>(closure);
  ExportMetrics(state, metrics);
}

void BM_Iql_TC_Naive(benchmark::State& state) {
  BM_Iql_TC(state, /*seminaive=*/false, /*indexed=*/false);
}
BENCHMARK(BM_Iql_TC_Naive)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The engine's delta-driven mode on the same eligible stage: the IQL
// counterpart of the classical semi-naive optimization.
void BM_Iql_TC_SemiNaive(benchmark::State& state) {
  BM_Iql_TC(state, /*seminaive=*/true, /*indexed=*/false);
}
BENCHMARK(BM_Iql_TC_SemiNaive)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Semi-naive deltas + hash-indexed generators + greedy scheduling: the
// full pipeline, directly comparable to the flat engine's indexed mode.
void BM_Iql_TC_SemiNaiveIndexed(benchmark::State& state) {
  BM_Iql_TC(state, /*seminaive=*/true, /*indexed=*/true);
}
BENCHMARK(BM_Iql_TC_SemiNaiveIndexed)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
