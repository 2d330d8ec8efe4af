// Experiment E4 (Example 3.4.2): the powerset in IQL, two ways.
//
// Paper claim: powerset "is expensive: it is exponential in the input
// size", whether written with an unrestricted set variable or in the
// range-restricted style with invented oids. Both series below must grow
// ~2^n in output size and time; the oid version additionally pays ~4^n
// invented pair-oids (one per pair of subsets).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kUnrestricted = R"(
  schema { relation R : D; relation R1 : {D}; }
  input R;
  output R1;
  program {
    var X : {D};
    R1(X) :- X = X.
  }
)";

constexpr std::string_view kViaOids = R"(
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

void RunPowerset(benchmark::State& state, std::string_view source) {
  int n = static_cast<int>(state.range(0));
  size_t result_size = 0;
  for (auto _ : state) {
    PreparedRun run(source);
    for (int i = 0; i < n; ++i) run.AddUnary("R", i);
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(EvalOptions{});
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    result_size = out->Relation(run.universe.Intern("R1")).size();
    IQL_CHECK(result_size == (size_t{1} << n));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["subsets"] = static_cast<double>(result_size);
}

void BM_Powerset_Unrestricted(benchmark::State& state) {
  RunPowerset(state, kUnrestricted);
}
BENCHMARK(BM_Powerset_Unrestricted)
    ->DenseRange(2, 10, 2)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Powerset_ViaInventedOids(benchmark::State& state) {
  RunPowerset(state, kViaOids);
}
BENCHMARK(BM_Powerset_ViaInventedOids)
    ->DenseRange(2, 6, 1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
