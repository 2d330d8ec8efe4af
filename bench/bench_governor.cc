// Governor overhead: the evaluation governor polls every enumeration loop
// (candidate scans, extent construction, datalog join inner loops), so its
// cost on a never-tripping run must stay in the noise. The datalog engine
// takes the governor as an optional parameter, giving a true
// with/without-polls comparison on the same binary:
// bench/run_all.sh computes the governed/ungoverned ratio into
// BENCH_RESULTS.json as `governor_overhead` (target: < 3%). The IQL pair
// records the governed evaluator's absolute numbers under generous vs
// tight-but-never-tripping limits for cross-release tracking.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "datalog/datalog.h"

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

void RunGovernedTC(benchmark::State& state, const ResourceLimits& limits) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 11);
  for (auto _ : state) {
    PreparedRun run(kTC);
    for (auto [a, b] : edges) run.AddEdge("E", a, b);
    EvalOptions options;
    options.limits = limits;
    auto start = std::chrono::steady_clock::now();
    auto out = run.Run(options);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(out.ok()) << out.status();
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}

void BM_Governor_IQL_DefaultLimits(benchmark::State& state) {
  RunGovernedTC(state, ResourceLimits{});
}
BENCHMARK(BM_Governor_IQL_DefaultLimits)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Governor_IQL_TightLimits(benchmark::State& state) {
  // Deadline + memory ceiling armed (so every CheckNow consults the clock
  // and the accountant) but generous enough to never trip.
  ResourceLimits limits;
  limits.deadline_seconds = 3600;
  limits.max_memory_bytes = uint64_t{1} << 40;
  RunGovernedTC(state, limits);
}
BENCHMARK(BM_Governor_IQL_TightLimits)
    ->RangeMultiplier(2)
    ->Range(64, 256)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

datalog::Program DatalogTC(datalog::Database* db,
                           const std::vector<std::pair<int, int>>& edges) {
  using datalog::Term;
  auto e = db->AddRelation("e", 2);
  auto tc = db->AddRelation("tc", 2);
  IQL_CHECK(e.ok() && tc.ok());
  for (auto [a, b] : edges) {
    db->AddFact(*e, {db->InternConstant(a), db->InternConstant(b)});
  }
  datalog::Program program;
  program.rules.push_back({{*tc, {Term::Var(0), Term::Var(1)}},
                           {{*e, {Term::Var(0), Term::Var(1)}}},
                           {}});
  program.rules.push_back({{*tc, {Term::Var(0), Term::Var(2)}},
                           {{*tc, {Term::Var(0), Term::Var(1)}},
                            {*e, {Term::Var(1), Term::Var(2)}}},
                           {}});
  return program;
}

void RunDatalogTC(benchmark::State& state, bool governed) {
  int n = static_cast<int>(state.range(0));
  auto edges = RandomGraph(n, 2 * n, 11);
  for (auto _ : state) {
    datalog::Database db;
    datalog::Program program = DatalogTC(&db, edges);
    ResourceLimits limits;
    limits.deadline_seconds = 3600;
    limits.max_memory_bytes = uint64_t{1} << 40;
    Governor governor(limits);
    auto start = std::chrono::steady_clock::now();
    Status status = datalog::Evaluate(
        program, &db, datalog::EvalMode::kSemiNaiveIndexed, nullptr,
        governed ? &governor : nullptr);
    auto end = std::chrono::steady_clock::now();
    IQL_CHECK(status.ok()) << status;
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
}

void BM_Governor_Datalog_Ungoverned(benchmark::State& state) {
  RunDatalogTC(state, /*governed=*/false);
}
BENCHMARK(BM_Governor_Datalog_Ungoverned)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_Governor_Datalog_Governed(benchmark::State& state) {
  RunDatalogTC(state, /*governed=*/true);
}
BENCHMARK(BM_Governor_Datalog_Governed)
    ->RangeMultiplier(2)
    ->Range(256, 1024)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iqlkit::bench
