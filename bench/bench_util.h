#ifndef IQLKIT_BENCH_BENCH_UTIL_H_
#define IQLKIT_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/thread_pool.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"

namespace iqlkit::bench {

// Publishes the evaluator-internal counters of a run into the benchmark's
// counter set. Every bench binary emits machine-readable results with
// `--benchmark_format=json`; `bench/run_all.sh` drives all of them that
// way and merges the outputs (wall times, these counters, thread counts)
// into BENCH_RESULTS.json at the repository root.
inline void ExportMetrics(benchmark::State& state,
                          const EvalMetrics& metrics) {
  state.counters["rounds"] = static_cast<double>(metrics.rounds.size());
  state.counters["index_builds"] =
      static_cast<double>(metrics.index_builds);
  state.counters["index_probes"] =
      static_cast<double>(metrics.index_probes);
  state.counters["index_hits"] = static_cast<double>(metrics.index_hits);
  uint64_t derivations = 0;
  uint64_t scans = 0;
  uint64_t vm_instructions = 0;
  for (const RuleMetrics& r : metrics.rules) {
    derivations += r.derivations;
    scans += r.index_scans;
    vm_instructions += r.vm_instructions;
  }
  state.counters["rule_derivations"] = static_cast<double>(derivations);
  // kIsRate divides by elapsed time, recording derivations per second.
  state.counters["derivations_per_sec"] = benchmark::Counter(
      static_cast<double>(derivations), benchmark::Counter::kIsRate);
  state.counters["extent_scans"] = static_cast<double>(scans);
  // Zero for tree-walked rules; on the VM, the instructions it dispatched
  // (divide by rule_derivations for instructions per emitted fact).
  state.counters["vm_instructions"] =
      static_cast<double>(vm_instructions);
  // "threads" would collide with google-benchmark's own field of that
  // name in the JSON output.
  state.counters["eval_threads"] = static_cast<double>(metrics.threads);
}

// The options every single-mechanism bench starts from: one evaluation
// thread, so a series measures its mechanism and not the worker pool
// (bench_parallel_scaling sweeps the thread count itself).
inline EvalOptions SerialOptions() {
  EvalOptions options;
  options.num_threads = 1;
  return options;
}

// Records the evaluation thread count a series ran at, for benches that
// do not collect EvalMetrics (ExportMetrics records it for those that do).
inline void ExportEvalThreads(benchmark::State& state,
                              const EvalOptions& options) {
  state.counters["eval_threads"] =
      static_cast<double>(ResolveThreadCount(options.num_threads));
}

// Deterministic random digraph: `n` nodes, `m` edges (duplicates collapse).
inline std::vector<std::pair<int, int>> RandomGraph(int n, int m,
                                                    uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(m);
  for (int i = 0; i < m; ++i) edges.emplace_back(node(rng), node(rng));
  return edges;
}

// Parses a unit and loads edge facts into its input projection of a binary
// relation named `rel`.
struct PreparedRun {
  explicit PreparedRun(std::string_view source) {
    auto parsed = ParseUnit(&universe, source);
    IQL_CHECK(parsed.ok()) << parsed.status();
    unit = std::make_unique<ParsedUnit>(std::move(*parsed));
    auto in = unit->schema.Project(unit->input_names);
    IQL_CHECK(in.ok()) << in.status();
    input_schema = std::make_shared<const Schema>(std::move(*in));
    input = std::make_unique<Instance>(input_schema, &universe);
  }

  void AddEdge(std::string_view rel, int a, int b) {
    ValueStore& v = universe.values();
    ValueId t = v.Tuple({{PositionalAttr(&universe, 1), v.ConstInt(a)},
                         {PositionalAttr(&universe, 2), v.ConstInt(b)}});
    IQL_CHECK(input->AddToRelation(rel, t).ok());
  }

  void AddUnary(std::string_view rel, int a) {
    IQL_CHECK(
        input->AddToRelation(rel, universe.values().ConstInt(a)).ok());
  }

  Result<Instance> Run(const EvalOptions& options = {},
                       EvalStats* stats = nullptr) {
    return RunUnit(&universe, unit.get(), *input, options, stats);
  }

  Universe universe;
  std::unique_ptr<ParsedUnit> unit;
  std::shared_ptr<const Schema> input_schema;
  std::unique_ptr<Instance> input;
};

}  // namespace iqlkit::bench

#endif  // IQLKIT_BENCH_BENCH_UTIL_H_
