// Scheduler overhead and multiplexing throughput. The scheduled path adds
// admission, a per-attempt governor with the pressure hook armed, and the
// task-pool handoff on top of the same parse+load+evaluate pipeline a
// direct call runs, so Scheduled(workers=1)/Direct on identical queries is
// the true cost of going through the scheduler: bench/run_all.sh records
// the mean ratio into BENCH_RESULTS.json as `.scheduler` (target: < 10%
// on these sub-millisecond queries; the absolute gap is a fixed few
// microseconds of bookkeeping per query). The throughput sweep records
// how a fixed 16-query batch scales with the worker count.

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/scheduler.h"

namespace iqlkit::bench {
namespace {

using server::QueryOutcome;
using server::QueryRequest;
using server::Scheduler;
using server::SchedulerOptions;

// A self-contained transitive-closure unit over a deterministic random
// graph: the scheduler re-parses per attempt, so the facts ride in the
// source text (exactly what iqlserve submits).
std::string TcSource(int nodes, int edges, uint32_t seed) {
  std::ostringstream source;
  source << "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
            "input E;\noutput TC;\ninstance {\n";
  for (auto [a, b] : RandomGraph(nodes, edges, seed)) {
    source << "  E([\"" << a << "\", \"" << b << "\"]);\n";
  }
  source << "}\nprogram {\n"
            "  TC(x, y) :- E(x, y).\n"
            "  TC(x, z) :- TC(x, y), E(y, z).\n"
            "}\n";
  return source.str();
}

// Baseline: the exact pipeline one scheduler attempt runs (fresh universe,
// parse, load, serial evaluation, serialization), with no scheduler.
void BM_Scheduler_Direct(benchmark::State& state) {
  std::string source = TcSource(static_cast<int>(state.range(0)),
                                2 * static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    Universe universe;
    auto unit = ParseUnit(&universe, source);
    IQL_CHECK(unit.ok()) << unit.status();
    Instance input(&unit->schema, &universe);
    IQL_CHECK(ApplyFacts(*unit, &input).ok());
    auto out = RunUnit(&universe, &*unit, input, EvalOptions{});
    IQL_CHECK(out.ok()) << out.status();
    std::string facts = WriteFacts(*out);
    benchmark::DoNotOptimize(facts);
  }
}
BENCHMARK(BM_Scheduler_Direct)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->Unit(benchmark::kMillisecond);

// One query at a time through a one-worker scheduler: admission + governor
// + pool handoff on top of the Direct pipeline. Scheduler construction and
// teardown stay outside the timed region (manual time).
void BM_Scheduler_Scheduled(benchmark::State& state) {
  std::string source = TcSource(static_cast<int>(state.range(0)),
                                2 * static_cast<int>(state.range(0)), 11);
  for (auto _ : state) {
    SchedulerOptions options;
    options.workers = 1;
    Scheduler scheduler(options);
    auto start = std::chrono::steady_clock::now();
    QueryRequest request;
    request.id = "q";
    request.source = source;
    auto ticket = scheduler.Submit(std::move(request));
    IQL_CHECK(ticket.ok()) << ticket.status();
    auto result = scheduler.Wait(*ticket);
    IQL_CHECK(result.outcome == QueryOutcome::kCompleted) << result.status;
    auto end = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}
BENCHMARK(BM_Scheduler_Scheduled)
    ->RangeMultiplier(2)
    ->Range(32, 128)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// A fixed 16-query batch against 1/2/4/8 workers: the multiplexing win of
// one shared pool across concurrent serial evaluations.
void BM_Scheduler_Throughput(benchmark::State& state) {
  std::string source = TcSource(64, 128, 11);
  constexpr int kBatch = 16;
  for (auto _ : state) {
    SchedulerOptions options;
    options.workers = static_cast<size_t>(state.range(0));
    options.queue_capacity = kBatch;
    Scheduler scheduler(options);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatch; ++i) {
      QueryRequest request;
      request.id = "q" + std::to_string(i);
      request.source = source;
      auto ticket = scheduler.Submit(std::move(request));
      IQL_CHECK(ticket.ok()) << ticket.status();
    }
    scheduler.RunUntilIdle();
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(scheduler.counters().completed == kBatch);
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["queries"] = kBatch;
}
BENCHMARK(BM_Scheduler_Throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Submit -> Wait on a long-lived scheduler that has already served
// range(0) queries (untimed warm-up, each collected). Per-query cost must
// not depend on that history: the 1k and 32k rows should read the same.
// A scheduler that kept terminal entries and scanned them per Submit and
// per dispatch would grow linearly with the argument.
void BM_Scheduler_SustainedLoad(benchmark::State& state) {
  std::string source = TcSource(8, 16, 11);
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(options);
  uint64_t served = 0;
  auto serve_one = [&] {
    QueryRequest request;
    request.id = "q" + std::to_string(served++);
    request.source = source;
    auto ticket = scheduler.Submit(std::move(request));
    IQL_CHECK(ticket.ok()) << ticket.status();
    auto result = scheduler.Wait(*ticket);
    IQL_CHECK(result.outcome == QueryOutcome::kCompleted) << result.status;
  };
  for (int64_t i = 0; i < state.range(0); ++i) serve_one();
  for (auto _ : state) serve_one();
  state.counters["live"] = static_cast<double>(scheduler.counters().live);
}
BENCHMARK(BM_Scheduler_SustainedLoad)
    ->Arg(1000)
    ->Arg(32000)
    ->Unit(benchmark::kMicrosecond);

// A backlog of range(0) queries admitted at once behind one worker, then
// collected in ticket order: every completion dispatches the next queued
// entry while up to range(0) entries are live. `us_per_query` should read
// the same at every depth; a dispatch that scanned the live entries would
// grow with it.
void BM_Scheduler_DeepBacklog(benchmark::State& state) {
  std::string source = TcSource(8, 16, 11);
  const int64_t backlog = state.range(0);
  double total_seconds = 0;
  for (auto _ : state) {
    SchedulerOptions options;
    options.workers = 1;
    options.queue_capacity = static_cast<size_t>(backlog);
    Scheduler scheduler(options);
    auto start = std::chrono::steady_clock::now();
    std::vector<uint64_t> tickets;
    tickets.reserve(static_cast<size_t>(backlog));
    for (int64_t i = 0; i < backlog; ++i) {
      QueryRequest request;
      request.id = "q" + std::to_string(i);
      request.source = source;
      auto ticket = scheduler.Submit(std::move(request));
      IQL_CHECK(ticket.ok()) << ticket.status();
      tickets.push_back(*ticket);
    }
    for (uint64_t ticket : tickets) {
      auto result = scheduler.Wait(ticket);
      IQL_CHECK(result.outcome == QueryOutcome::kCompleted) << result.status;
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    total_seconds += seconds;
    state.SetIterationTime(seconds);
  }
  state.counters["us_per_query"] =
      1e6 * total_seconds /
      (static_cast<double>(backlog) * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_Scheduler_DeepBacklog)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Admission-path cost under rejection pressure: a full queue turns every
// Submit into a structured QUEUE_FULL rejection; this is the hot shed path
// during overload, so it must stay trivially cheap.
void BM_Scheduler_RejectionPath(benchmark::State& state) {
  SchedulerOptions options;
  options.deterministic = true;  // nothing runs until RunUntilIdle
  options.queue_capacity = 4;
  Scheduler scheduler(options);
  std::string source = TcSource(8, 16, 11);
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.id = "fill" + std::to_string(i);
    request.source = source;
    IQL_CHECK(scheduler.Submit(std::move(request)).ok());
  }
  for (auto _ : state) {
    QueryRequest request;
    request.id = "reject";
    request.source = source;
    auto rejected = scheduler.Submit(std::move(request));
    IQL_CHECK(!rejected.ok());
    benchmark::DoNotOptimize(rejected);
  }
}
BENCHMARK(BM_Scheduler_RejectionPath);

}  // namespace
}  // namespace iqlkit::bench
