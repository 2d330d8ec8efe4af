// Ablation: the valuation-domain head filter. The paper's semantics asks,
// per candidate valuation, whether *some extension* satisfies the head
// (§3.2); implemented literally that is a scan-and-match over the head
// predicate's extent, but for fully-bound heads (every rule without
// invention) it collapses to a single membership lookup. This benchmark
// quantifies the difference the fast path makes on transitive closure --
// the design note DESIGN.md calls out.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kTC = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E;
  output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

void RunTC(benchmark::State& state, bool disable_fast_path) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 11);
  for (auto _ : state) {
    PreparedRun run(kTC);
    for (auto [a, b] : edges) run.AddEdge("E", a, b);
    EvalOptions options;
    options.enable_seminaive = false;  // measure the naive operator
    options.disable_head_fast_path = disable_fast_path;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}

void BM_HeadFilter_FastPath(benchmark::State& state) {
  RunTC(state, /*disable_fast_path=*/false);
}
BENCHMARK(BM_HeadFilter_FastPath)
    ->RangeMultiplier(2)
    ->Range(16, 64)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_HeadFilter_LiteralScan(benchmark::State& state) {
  RunTC(state, /*disable_fast_path=*/true);
}
BENCHMARK(BM_HeadFilter_LiteralScan)
    ->RangeMultiplier(2)
    ->Range(16, 64)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
