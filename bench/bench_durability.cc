// Durability overhead: the same serial transitive-closure evaluation with
// no durability, with its one-file log (the input as the base, a frame
// per step, then the output as the base; fsync off: the process-crash
// guarantee, the mode benchmarks and tests run), and with full fsync (the
// power-failure guarantee). bench/run_all.sh records the
// mean Durable(no-fsync)/Plain real-time ratio into BENCH_RESULTS.json as
// `.durability` (target: < 1.5x on these small fixpoints -- one frame
// encode + append per committed step); the fsync series is reported for
// the absolute numbers but kept out of the ratio, since it measures the
// disk, not the encoder. The recovery series times Recover itself: decode
// the input base and replay every frame of a crashed run.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "storage/durable.h"

namespace iqlkit::bench {
namespace {

using storage::DurabilityConfig;
using storage::QueryDurability;

constexpr std::string_view kTcSource = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  input E;
  output TC;
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// PreparedRun owns a Universe and is not movable, so populate in place.
void AddGraph(PreparedRun& run, int nodes) {
  for (auto [a, b] : RandomGraph(nodes, 2 * nodes, 17)) {
    run.AddEdge("E", a, b);
  }
}

std::string ScratchDir() {
  std::string dir =
      std::filesystem::temp_directory_path() / "iqlkit_bench_durability";
  std::filesystem::remove_all(dir);
  return dir;
}

void BM_Durability_Plain(benchmark::State& state) {
  PreparedRun run(kTcSource);
  AddGraph(run, static_cast<int>(state.range(0)));
  uint64_t steps = 0;
  for (auto _ : state) {
    EvalStats stats;
    auto out = run.Run(EvalOptions{}, &stats);
    IQL_CHECK(out.ok()) << out.status();
    benchmark::DoNotOptimize(out->GroundFactCount());
    steps = stats.steps;
  }
  state.counters["steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_Durability_Plain)->Arg(32)->Arg(128)->Arg(512);

void DurableRun(benchmark::State& state, bool fsync) {
  PreparedRun run(kTcSource);
  AddGraph(run, static_cast<int>(state.range(0)));
  std::string dir = ScratchDir();
  DurabilityConfig config;
  config.fsync = fsync;
  uint64_t frames = 0;
  for (auto _ : state) {
    QueryDurability durable = QueryDurability::Open(dir, config);
    IQL_CHECK(durable.active()) << durable.warning();
    // The full durable lifecycle one scheduler attempt pays: a log with
    // the input as its base, one frame per committed step, then the log
    // replaced by one with the output as its base.
    Instance base(&run.unit->schema, &run.universe);
    IQL_CHECK(base.Absorb(*run.input).ok());
    IQL_CHECK(durable.BeginRun(base).ok());
    EvalOptions options;
    options.durability.sink = &durable;
    EvalStats stats;
    auto out = run.Run(options, &stats);
    IQL_CHECK(out.ok()) << out.status();
    IQL_CHECK(durable.Finalize(*out).ok());
    benchmark::DoNotOptimize(out->GroundFactCount());
    frames = stats.steps;
  }
  state.counters["wal_frames"] = static_cast<double>(frames);
  std::filesystem::remove_all(dir);
}

void BM_Durability_Durable(benchmark::State& state) {
  DurableRun(state, /*fsync=*/false);
}
BENCHMARK(BM_Durability_Durable)->Arg(32)->Arg(128)->Arg(512);

void BM_Durability_DurableFsync(benchmark::State& state) {
  DurableRun(state, /*fsync=*/true);
}
BENCHMARK(BM_Durability_DurableFsync)->Arg(32)->Arg(128);

// Crash recovery cost: decode the input base and replay a full run's
// worth of frames. Setup runs one durable evaluation and keeps the
// directory; each iteration recovers from it into a fresh universe.
void BM_Durability_Recover(benchmark::State& state) {
  PreparedRun run(kTcSource);
  AddGraph(run, static_cast<int>(state.range(0)));
  std::string dir = ScratchDir();
  DurabilityConfig config;
  config.fsync = false;
  {
    QueryDurability durable = QueryDurability::Open(dir, config);
    IQL_CHECK(durable.active()) << durable.warning();
    Instance base(&run.unit->schema, &run.universe);
    IQL_CHECK(base.Absorb(*run.input).ok());
    IQL_CHECK(durable.BeginRun(base).ok());
    EvalOptions options;
    options.durability.sink = &durable;
    auto out = run.Run(options);
    IQL_CHECK(out.ok()) << out.status();
    // No Finalize: the log holds the input base plus every frame, the
    // state a crash at the last committed step leaves behind.
  }
  uint64_t frames = 0;
  for (auto _ : state) {
    Universe universe;
    auto unit = ParseUnit(&universe, kTcSource);
    IQL_CHECK(unit.ok()) << unit.status();
    std::shared_ptr<const Schema> schema(std::shared_ptr<const Schema>(),
                                         &unit->schema);
    QueryDurability durable = QueryDurability::Open(dir, config);
    auto recovered = durable.Recover(schema, schema, &universe);
    IQL_CHECK(recovered.ok()) << recovered.status();
    IQL_CHECK(recovered->has_value());
    frames = (*recovered)->frames_replayed;
    benchmark::DoNotOptimize((*recovered)->instance.GroundFactCount());
  }
  state.counters["wal_frames"] = static_cast<double>(frames);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Durability_Recover)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace iqlkit::bench
