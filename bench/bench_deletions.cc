// Experiment E8 (§4.5, IQL*): deletion workloads -- bulk retraction of
// relation facts and cascading oid deletion, the operations the paper
// notes "require more involved evaluation mechanisms, e.g. with reference
// counts or garbage collection".

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace iqlkit::bench {
namespace {

constexpr std::string_view kBulkDelete = R"(
  schema { relation R : [D, D]; relation Kill : D; }
  input R, Kill;
  program { !R(x, y) :- R(x, y), Kill(x). }
)";

void BM_BulkFactDeletion(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ExportEvalThreads(state, SerialOptions());
  for (auto _ : state) {
    PreparedRun run(kBulkDelete);
    for (auto [a, b] : RandomGraph(n, 4 * n, 17)) run.AddEdge("R", a, b);
    for (int i = 0; i < n / 2; ++i) run.AddUnary("Kill", i);
    EvalOptions options = SerialOptions();
    options.allow_deletions = true;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BulkFactDeletion)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// Cascade: deleting the head of a chain of wrapper objects erases the
// whole chain (update propagation).
void BM_CascadeOidDeletion(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  constexpr std::string_view kSource = R"(
    schema {
      class Node : (D | Node);
      relation Kill : Node;
    }
    input Node, Kill;
    program { !Node(x) :- Kill(x). }
  )";
  ExportEvalThreads(state, SerialOptions());
  for (auto _ : state) {
    PreparedRun run(kSource);
    ValueStore& v = run.universe.values();
    // Chain: node_i's value mentions node_{i-1}; deleting node_0 cascades
    // through all n.
    Oid prev{};
    for (int i = 0; i < n; ++i) {
      auto o = run.input->CreateOid("Node");
      IQL_CHECK(o.ok());
      IQL_CHECK(run.input
                    ->SetOidValue(*o, i == 0 ? v.Const("base")
                                             : v.OfOid(prev))
                    .ok());
      prev = *o;
      if (i == 0) {
        IQL_CHECK(run.input->AddToRelation("Kill", v.OfOid(*o)).ok());
      }
    }
    EvalOptions options = SerialOptions();
    options.allow_deletions = true;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    IQL_CHECK(out->ClassExtent(run.universe.Intern("Node")).empty());
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_CascadeOidDeletion)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace
}  // namespace iqlkit::bench
