// Experiment E2 (Example 1.2): re-encoding a flat edge relation into a
// cyclic class-based representation -- the paper's flagship IQL program
// (invention, set accretion through temporary oids, weak assignment,
// composition). Measures end-to-end evaluation vs graph size; the oid
// count must equal the node count (one node oid + one set oid per node).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

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

void BM_GraphEncoding(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 13);
  EvalStats stats;
  size_t nodes = 0;
  for (auto _ : state) {
    stats = EvalStats{};
    PreparedRun run(kSource);
    for (auto [a, b] : edges) run.AddEdge("R", a, b);
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(EvalOptions{}, &stats);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    nodes = out->ClassExtent(run.universe.Intern("P")).size();
    IQL_CHECK(nodes ==
              out->ClassExtent(run.universe.Intern("P'")).size());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["node_oids"] = static_cast<double>(nodes);
  state.counters["invented"] = static_cast<double>(stats.invented_oids);
  state.SetComplexityN(n);
}
BENCHMARK(BM_GraphEncoding)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// Cycle graph: worst case sharing structure (every node reachable).
void BM_GraphEncoding_Cycle(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PreparedRun run(kSource);
    for (int i = 0; i < n; ++i) run.AddEdge("R", i, (i + 1) % n);
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(EvalOptions{});
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GraphEncoding_Cycle)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace iqlkit::bench
