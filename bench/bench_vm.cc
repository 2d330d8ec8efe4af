// Register VM vs the tree-walking solver on matched workloads.
//
// Every series below runs the same program on the same input twice: the
// _Vm series with default options, where every VM-eligible rule runs on
// the register VM (what every tool and the server run), and the _TreeWalk
// series with `EvalOptions::tree_walk_oracle`, the test/bench-only switch
// that keeps every rule on the tree-walker. The pairs therefore differ
// only in how rule bodies are executed: recursive Solver descent vs the
// flat IL interpreted by vm::VmSolver. The outputs are byte-identical by
// the differential suites; this file measures the cost of that
// equivalence. `bench/run_all.sh` matches the pairs by name and records
// the mean speedup under `.vm` in BENCH_RESULTS.json. The powerset series
// keeps its invention rules on the tree-walker (IL compilation declines
// them), so it bounds the win when only part of a program is VM-eligible.

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

// Three-way cyclic join: every body is a pure scan/probe/compare chain,
// the best case for the flat IL.
constexpr std::string_view kTriangles = R"(
  schema { relation E : [D, D]; relation T : [D, D]; }
  input E;
  output T;
  program {
    T(x, z) :- E(x, y), E(y, z), E(z, x).
  }
)";

constexpr std::string_view kPowerset = R"(
  schema {
    relation R  : D;
    relation R1 : {D};
    relation R2 : [{D}, {D}, P];
    class P : {D};
  }
  input R;
  output R1;
  program {
    R1({}).
    R1({x}) :- R(x).
    R2(X, Y, z) :- R1(X), R1(Y).
    z^(x) :- R2(X, Y, z), X(x).
    z^(y) :- R2(X, Y, z), Y(y).
    R1(z^) :- P(z).
  }
)";

// Values of the `tree_walk_oracle` argument below.
constexpr bool kTreeWalk = true;
constexpr bool kVm = false;

void RunGraphProgram(benchmark::State& state, std::string_view source,
                     std::string_view out_rel, bool tree_walk_oracle) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 17);
  size_t result_size = 0;
  EvalMetrics metrics;
  for (auto _ : state) {
    metrics = EvalMetrics{};
    PreparedRun run(source);
    for (auto [a, b] : edges) run.AddEdge("E", a, b);
    EvalOptions options;
    options.tree_walk_oracle = tree_walk_oracle;
    options.metrics = &metrics;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    result_size = out->Relation(run.universe.Intern(out_rel)).size();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["output_facts"] = static_cast<double>(result_size);
  ExportMetrics(state, metrics);
}

void BM_Vm_Tc_TreeWalk(benchmark::State& state) {
  RunGraphProgram(state, kTC, "TC", kTreeWalk);
}
BENCHMARK(BM_Vm_Tc_TreeWalk)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Tc_Vm(benchmark::State& state) {
  RunGraphProgram(state, kTC, "TC", kVm);
}
BENCHMARK(BM_Vm_Tc_Vm)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Join_TreeWalk(benchmark::State& state) {
  RunGraphProgram(state, kTriangles, "T", kTreeWalk);
}
BENCHMARK(BM_Vm_Join_TreeWalk)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Join_Vm(benchmark::State& state) {
  RunGraphProgram(state, kTriangles, "T", kVm);
}
BENCHMARK(BM_Vm_Join_Vm)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void RunPowerset(benchmark::State& state, bool tree_walk_oracle) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PreparedRun run(kPowerset);
    for (int i = 0; i < n; ++i) run.AddUnary("R", i);
    EvalOptions options;
    options.tree_walk_oracle = tree_walk_oracle;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    size_t subsets = out->Relation(run.universe.Intern("R1")).size();
    IQL_CHECK(subsets == (size_t{1} << n));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}

void BM_Vm_Powerset_TreeWalk(benchmark::State& state) {
  RunPowerset(state, kTreeWalk);
}
BENCHMARK(BM_Vm_Powerset_TreeWalk)
    ->DenseRange(3, 5, 1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Vm_Powerset_Vm(benchmark::State& state) {
  RunPowerset(state, kVm);
}
BENCHMARK(BM_Vm_Powerset_Vm)
    ->DenseRange(3, 5, 1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
