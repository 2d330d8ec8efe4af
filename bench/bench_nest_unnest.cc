// Experiment E3 (Example 3.4.1): nest/unnest throughput. Unnest flattens a
// [D, {D}] relation through a set variable; nest rebuilds it via invented
// set-valued oids (the COL data-function simulated with invention, §3.4).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kUnnest = R"(
  schema { relation R1 : [D, {D}]; relation R2 : [D, D]; }
  input R1;
  output R2;
  program { R2(x, y) :- R1(x, Y), Y(y). }
)";

constexpr std::string_view kNest = R"(
  schema {
    relation R2 : [D, D];
    relation R3 : [D, {D}];
    relation R4 : D;
    relation R5 : [D, P];
    class P : {D};
  }
  input R2;
  output R3;
  program {
    R4(x) :- R2(x, y).
    R5(x, z) :- R4(x).
    z^(y) :- R2(x, y), R5(x, z).
    ;
    R3(x, z^) :- R5(x, z).
  }
)";

// groups * fanout facts.
void BM_Unnest(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  int fanout = static_cast<int>(state.range(1));
  ExportEvalThreads(state, SerialOptions());
  for (auto _ : state) {
    PreparedRun run(kUnnest);
    ValueStore& v = run.universe.values();
    for (int g = 0; g < groups; ++g) {
      std::vector<ValueId> elems;
      for (int k = 0; k < fanout; ++k) {
        elems.push_back(v.ConstInt(g * fanout + k));
      }
      ValueId t = v.Tuple(
          {{PositionalAttr(&run.universe, 1), v.ConstInt(g)},
           {PositionalAttr(&run.universe, 2), v.Set(std::move(elems))}});
      IQL_CHECK(run.input->AddToRelation("R1", t).ok());
    }
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(SerialOptions());
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    IQL_CHECK(out->Relation(run.universe.Intern("R2")).size() ==
              static_cast<size_t>(groups * fanout));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}
BENCHMARK(BM_Unnest)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({16, 16})
    ->Args({64, 16})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Nest(benchmark::State& state) {
  int groups = static_cast<int>(state.range(0));
  int fanout = static_cast<int>(state.range(1));
  EvalStats stats;
  ExportEvalThreads(state, SerialOptions());
  for (auto _ : state) {
    stats = EvalStats{};
    PreparedRun run(kNest);
    for (int g = 0; g < groups; ++g) {
      for (int k = 0; k < fanout; ++k) {
        run.AddEdge("R2", g, g * fanout + k);
      }
    }
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(SerialOptions(), &stats);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    IQL_CHECK(out->Relation(run.universe.Intern("R3")).size() ==
              static_cast<size_t>(groups));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["invented"] = static_cast<double>(stats.invented_oids);
}
BENCHMARK(BM_Nest)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({16, 16})
    ->Args({64, 16})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
