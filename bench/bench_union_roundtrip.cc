// Experiment E5 (Example 3.4.3): the lossless union-type encode/decode
// pair. Sweeps the number of objects in the union-typed class P; encode
// and decode each invent one oid per object and assign one tuple value, so
// the curve must stay near-linear (the joins are over the pairing
// relation R).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kEncode = R"(
  schema {
    class P  : (P | [P, P]);
    class P' : [{P'}, {[P', P']}];
    relation R : [P, P'];
  }
  input P;
  output P';
  program {
    R(x, x') :- P(x).
    ;
    x'^ = [{y'}, {}] :- R(x, x'), R(y, y'), y = x^.
    x'^ = [{}, {[y', z']}] :- R(x, x'), R(y, y'), R(z, z'), [y, z] = x^.
  }
)";

void BM_UnionEncode(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PreparedRun run(kEncode);
    ValueStore& v = run.universe.values();
    // Build n objects: even ones point at a successor (class branch), odd
    // ones pair their two neighbours (tuple branch).
    std::vector<Oid> oids;
    for (int i = 0; i < n; ++i) {
      auto o = run.input->CreateOid("P");
      IQL_CHECK(o.ok());
      oids.push_back(*o);
    }
    for (int i = 0; i < n; ++i) {
      if (i % 2 == 0) {
        IQL_CHECK(run.input
                      ->SetOidValue(oids[i], v.OfOid(oids[(i + 1) % n]))
                      .ok());
      } else {
        IQL_CHECK(
            run.input
                ->SetOidValue(
                    oids[i],
                    v.Tuple({{PositionalAttr(&run.universe, 1),
                              v.OfOid(oids[(i + 1) % n])},
                             {PositionalAttr(&run.universe, 2),
                              v.OfOid(oids[(i + n - 1) % n])}}))
                .ok());
      }
    }
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(EvalOptions{});
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    IQL_CHECK(out->ClassExtent(run.universe.Intern("P'")).size() ==
              static_cast<size_t>(n));
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UnionEncode)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace iqlkit::bench
