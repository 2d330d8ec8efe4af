// Experiment E9 (Theorem 5.4): IQLrr/IQLpr programs have PTIME data
// complexity. The series below sweep input size for three programs the §5
// classifier admits; their running time must grow polynomially (contrast
// with bench_powerset's exponential curves for programs the classifier
// rejects).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "iql/restrict.h"
#include "iql/typecheck.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E;
  output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// Invention, one stage per phase: in IQLrr by the staged classification.
constexpr std::string_view kInventPerNode = R"(
  schema {
    relation E  : [D, D];
    relation R0 : D;
    relation R9 : [D, P];
    class P : {D};
  }
  input E;
  output R9, P;
  program {
    R0(x) :- E(x, y).
    R0(x) :- E(y, x).
    ;
    R9(x, p) :- R0(x).
    ;
    p^(y) :- R9(x, p), E(x, y).
  }
)";

// Negation + composition: nodes with no outgoing edge.
constexpr std::string_view kSinks = R"(
  schema {
    relation E : [D, D];
    relation Node : D;
    relation HasOut : D;
    relation Sink : D;
  }
  input E;
  output Sink;
  program {
    Node(x) :- E(x, y).
    Node(x) :- E(y, x).
    HasOut(x) :- E(x, y).
    ;
    Sink(x) :- Node(x), !HasOut(x).
  }
)";

void RunScaling(benchmark::State& state, std::string_view source,
                bool expect_rr, bool indexed) {
  int n = static_cast<int>(state.range(0));
  EvalStats stats;
  EvalMetrics metrics;
  for (auto _ : state) {
    stats = EvalStats{};
    metrics = EvalMetrics{};
    PreparedRun run(source);
    // Verify the classifier's verdict once (cheap).
    Status tc = TypeCheck(&run.universe, run.unit->schema,
                          &run.unit->program);
    IQL_CHECK(tc.ok()) << tc;
    RestrictionReport report =
        AnalyzeRestrictions(&run.universe, run.unit->program);
    IQL_CHECK(report.in_iql_pr);
    IQL_CHECK(report.in_iql_rr == expect_rr);
    for (auto [a, b] : RandomGraph(n, 2 * n, 7)) run.AddEdge("E", a, b);
    EvalOptions options;
    options.enable_seminaive = false;  // Theorem 5.4 is about the naive
                                       // operator; see bench_datalog_baseline
                                       // for the semi-naive optimization
    options.enable_indexing = indexed;
    options.enable_scheduling = indexed;
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options, &stats);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["derivations"] = static_cast<double>(stats.derivations);
  ExportMetrics(state, metrics);
  state.SetComplexityN(n);
}

void BM_IqlRr_TransitiveClosure(benchmark::State& state) {
  RunScaling(state, kTransitiveClosure, /*expect_rr=*/true,
             /*indexed=*/false);
}
BENCHMARK(BM_IqlRr_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// Same naive operator, but generators probe hash indexes and the greedy
// scheduler orders the body literals: the tentpole's win on this workload.
void BM_IqlRr_TransitiveClosure_Indexed(benchmark::State& state) {
  RunScaling(state, kTransitiveClosure, /*expect_rr=*/true,
             /*indexed=*/true);
}
BENCHMARK(BM_IqlRr_TransitiveClosure_Indexed)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IqlRr_InventPerNode(benchmark::State& state) {
  RunScaling(state, kInventPerNode, /*expect_rr=*/true, /*indexed=*/false);
}
BENCHMARK(BM_IqlRr_InventPerNode)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IqlRr_InventPerNode_Indexed(benchmark::State& state) {
  RunScaling(state, kInventPerNode, /*expect_rr=*/true, /*indexed=*/true);
}
BENCHMARK(BM_IqlRr_InventPerNode_Indexed)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IqlPr_NegationSinks(benchmark::State& state) {
  RunScaling(state, kSinks, /*expect_rr=*/true, /*indexed=*/false);
}
BENCHMARK(BM_IqlPr_NegationSinks)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_IqlPr_NegationSinks_Indexed(benchmark::State& state) {
  RunScaling(state, kSinks, /*expect_rr=*/true, /*indexed=*/true);
}
BENCHMARK(BM_IqlPr_NegationSinks_Indexed)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace iqlkit::bench
