#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

// Overload soak (the robustness acceptance test): dozens of queries whose
// combined ceilings exceed the global memory budget, under deterministic
// fault injection, across seeds x worker counts. The scheduler must never
// crash, every query must land in exactly one terminal state -- completed
// (possibly after retries), tripped-with-partial, failed on a persistent
// injected fault, or rejected at admission -- and every completed query's
// output must byte-compare equal to a standalone serial run. Run under
// TSan in CI (the scheduler-soak job) to sweep for data races.
namespace iqlkit {
namespace {

using server::QueryClass;
using server::QueryOutcome;
using server::QueryRequest;
using server::QueryResult;
using server::Scheduler;
using server::SchedulerOptions;

constexpr const char* kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
    E(["e", "f"]); E(["f", "g"]); E(["g", "h"]); E(["h", "i"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// Diverges by inventing an oid per step; its step ceiling ends it with an
// organic (non-retryable) trip and a rollback partial.
constexpr const char* kDivergent = R"(
  schema { relation R3 : [P, P]; class P : D; }
  instance {
    P(@a); P(@b);
    R3([@a, @b]);
  }
  program {
    R3(y, z) :- R3(x, y).
  }
)";

class SchedulerSoakTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::string SerialFacts(const char* source) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  Instance input(&unit->schema, &u);
  Status applied = ApplyFacts(*unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  EvalOptions options;
  options.num_threads = 1;
  auto result = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? WriteFacts(*result) : std::string();
}

// Seeds for the sweep: CI's scheduler-soak job widens this through
// IQLKIT_SOAK_SEEDS=n (same convention as the fault-injection soak).
std::vector<uint64_t> SoakSeeds() {
  int n = 3;
  if (const char* env = std::getenv("IQLKIT_SOAK_SEEDS")) {
    n = std::max(1, std::atoi(env));
  }
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(0x50AC + 17 * i);
  return seeds;
}

void RunSoak(uint64_t seed, size_t workers, bool deterministic) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " workers=" + std::to_string(workers) +
               (deterministic ? " deterministic" : ""));
  // The previous sweep iteration left the global injector armed; the
  // fault-free serial reference must run disabled.
  FaultInjector::Global().Reset();
  std::string reference = SerialFacts(kTransitiveClosure);
  ASSERT_FALSE(reference.empty());

  FaultInjector::Config faults;
  faults.seed = seed;
  faults.p_sched = 0.1;
  faults.p_alloc = 0.002;
  faults.p_trip = 0.002;
  FaultInjector::Global().Configure(faults);

  SchedulerOptions options;
  options.workers = workers;
  options.deterministic = deterministic;
  options.seed = seed;
  options.queue_capacity = 16;  // < the submission burst: some QUEUE_FULL
  options.class_quota[static_cast<int>(QueryClass::kInteractive)] = 8;
  // Every query may individually use 64 KiB, far over 24 queries' share of
  // the global budget, so degradations/preemptions are guaranteed.
  options.global_memory_budget = 192 * 1024;
  options.default_reserve_bytes = 8 * 1024;
  options.max_retries = 2;
  options.retry_base_seconds = deterministic ? 0.01 : 0.0005;

  constexpr int kQueries = 24;
  struct Submitted {
    uint64_t ticket = 0;
    bool admitted = false;
    bool divergent = false;
    Status rejection;
  };
  std::vector<Submitted> submitted;

  uint64_t completed = 0, tripped = 0, failed = 0, rejected = 0;
  {
    Scheduler scheduler(options);
    for (int i = 0; i < kQueries; ++i) {
      Submitted sub;
      sub.divergent = i % 3 == 2;
      QueryRequest request;
      request.id = "q" + std::to_string(i);
      request.source = sub.divergent ? kDivergent : kTransitiveClosure;
      request.cls = i % 4 == 0 ? QueryClass::kInteractive : QueryClass::kBatch;
      request.priority = i % 5;
      request.limits.max_memory_bytes = 64 * 1024;
      if (sub.divergent) request.limits.max_steps_per_stage = 40;
      auto ticket = scheduler.Submit(std::move(request));
      if (ticket.ok()) {
        sub.admitted = true;
        sub.ticket = *ticket;
      } else {
        sub.rejection = ticket.status();
      }
      submitted.push_back(sub);
    }
    for (const auto& sub : submitted) {
      if (!sub.admitted) {
        ++rejected;
        // Rejections are structured backpressure, never a generic error.
        EXPECT_TRUE(sub.rejection.code() == StatusCode::kQueueFull ||
                    sub.rejection.code() == StatusCode::kOverloaded)
            << sub.rejection;
        continue;
      }
      QueryResult result = scheduler.Wait(sub.ticket);
      switch (result.outcome) {
        case QueryOutcome::kCompleted:
          ++completed;
          EXPECT_TRUE(result.status.ok()) << result.status;
          // Byte-identity with the standalone serial run, retries or not.
          if (!sub.divergent) {
            EXPECT_EQ(result.facts, reference);
          }
          break;
        case QueryOutcome::kTrippedPartial:
          ++tripped;
          EXPECT_FALSE(result.status.ok());
          // The rollback partial serializes (at minimum the input facts).
          EXPECT_NE(result.facts.find("instance {"), std::string::npos);
          break;
        case QueryOutcome::kFailed:
          ++failed;
          // Only a persistent injected dispatch fault fails a well-formed
          // query: the status says OVERLOAD and the retry budget was spent.
          EXPECT_EQ(result.status.code(), StatusCode::kOverloaded)
              << result.status;
          EXPECT_EQ(result.attempts, options.max_retries + 1);
          break;
        case QueryOutcome::kRejected:
          ADD_FAILURE() << "Wait() returned kRejected for an admitted query";
          break;
        case QueryOutcome::kCancelled:
          ADD_FAILURE() << "Wait() returned kCancelled, but no soak query "
                           "is cancelled";
          break;
      }
      EXPECT_GE(result.attempts, 1);
      EXPECT_LE(result.attempts, options.max_retries + 1);
    }
    // Every query is in exactly one terminal bucket and the counters agree.
    auto counters = scheduler.counters();
    EXPECT_EQ(counters.submitted, static_cast<uint64_t>(kQueries));
    EXPECT_EQ(counters.admitted + counters.rejected_queue_full +
                  counters.rejected_overload,
              static_cast<uint64_t>(kQueries));
    EXPECT_EQ(counters.completed + counters.tripped_partial + counters.failed,
              counters.admitted);
    EXPECT_EQ(counters.completed, completed);
    EXPECT_EQ(counters.tripped_partial, tripped);
    EXPECT_EQ(counters.failed, failed);
    EXPECT_EQ(counters.rejected_queue_full + counters.rejected_overload,
              rejected);
    EXPECT_EQ(counters.live, 0u);  // every admitted ticket was collected
  }
  EXPECT_EQ(completed + tripped + failed + rejected,
            static_cast<uint64_t>(kQueries));
}

TEST_F(SchedulerSoakTest, OverloadDeterministic) {
  for (uint64_t seed : SoakSeeds()) RunSoak(seed, 1, /*deterministic=*/true);
}

TEST_F(SchedulerSoakTest, OverloadOneWorker) {
  for (uint64_t seed : SoakSeeds()) RunSoak(seed, 1, /*deterministic=*/false);
}

TEST_F(SchedulerSoakTest, OverloadTwoWorkers) {
  for (uint64_t seed : SoakSeeds()) RunSoak(seed, 2, /*deterministic=*/false);
}

TEST_F(SchedulerSoakTest, OverloadEightWorkers) {
  for (uint64_t seed : SoakSeeds()) RunSoak(seed, 8, /*deterministic=*/false);
}

// The deterministic sweep must also *replay*: same seed, same trace.
TEST_F(SchedulerSoakTest, DeterministicSoakTraceReplays) {
  auto run = [](uint64_t seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_sched = 0.1;
    faults.p_alloc = 0.002;
    faults.p_trip = 0.002;
    FaultInjector::Global().Configure(faults);
    std::ostringstream trace;
    SchedulerOptions options;
    options.deterministic = true;
    options.seed = seed;
    options.queue_capacity = 8;
    options.global_memory_budget = 96 * 1024;
    options.default_reserve_bytes = 8 * 1024;
    options.trace = &trace;
    Scheduler scheduler(options);
    for (int i = 0; i < 12; ++i) {
      QueryRequest request;
      request.id = "q" + std::to_string(i);
      request.source = i % 3 == 2 ? kDivergent : kTransitiveClosure;
      if (i % 3 == 2) request.limits.max_steps_per_stage = 30;
      (void)scheduler.Submit(std::move(request));
    }
    scheduler.RunUntilIdle();
    return trace.str();
  };
  for (uint64_t seed : SoakSeeds()) {
    std::string first = run(seed);
    std::string second = run(seed);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace iqlkit
