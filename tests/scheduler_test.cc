#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

// The concurrent-query scheduler: admission control (bounded queue,
// per-class quotas, reservation fit), degrade/preempt under a global
// memory budget, jittered retry of transient failures, deterministic
// virtual-clock traces, and byte-identity of scheduled outputs with
// standalone serial runs.
namespace iqlkit {
namespace {

using server::ParseQueryClass;
using server::QueryClass;
using server::QueryClassName;
using server::QueryOutcome;
using server::QueryOutcomeName;
using server::QueryRequest;
using server::QueryResult;
using server::Scheduler;
using server::SchedulerOptions;

constexpr const char* kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// Invents a fresh oid per step: diverges, so only a budget ends it. Used
// where a query must still be running when the scheduler intervenes.
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

// The injector is process-global; every test restores the disabled state.
class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// Reference output: a standalone serial evaluation of `source`, the
// byte-identity baseline every scheduled run must reproduce.
std::string SerialFacts(const char* source) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  Instance input(&unit->schema, &u);
  Status applied = ApplyFacts(*unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  EvalOptions options;
  auto result = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? WriteFacts(*result) : std::string();
}

QueryRequest MakeRequest(const std::string& id, const char* source) {
  QueryRequest request;
  request.id = id;
  request.source = source;
  return request;
}

TEST_F(SchedulerTest, NamesRoundTrip) {
  EXPECT_STREQ(QueryClassName(QueryClass::kInteractive), "interactive");
  EXPECT_STREQ(QueryClassName(QueryClass::kBatch), "batch");
  auto interactive = ParseQueryClass("interactive");
  ASSERT_TRUE(interactive.ok());
  EXPECT_EQ(*interactive, QueryClass::kInteractive);
  EXPECT_FALSE(ParseQueryClass("urgent").ok());
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kCompleted), "completed");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kTrippedPartial),
               "tripped-partial");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kRejected), "rejected");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kFailed), "failed");
}

TEST_F(SchedulerTest, CompletedQueryIsByteIdenticalToSerialRun) {
  std::string reference = SerialFacts(kTransitiveClosure);
  ASSERT_FALSE(reference.empty());
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("tc", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(result.preempted);
  EXPECT_EQ(result.facts, reference);
}

TEST_F(SchedulerTest, QueueFullRejectsWithStructuredStatus) {
  SchedulerOptions options;
  options.deterministic = true;  // nothing runs until RunUntilIdle
  options.queue_capacity = 2;
  Scheduler scheduler(options);
  ASSERT_TRUE(scheduler.Submit(MakeRequest("a", kTransitiveClosure)).ok());
  ASSERT_TRUE(scheduler.Submit(MakeRequest("b", kTransitiveClosure)).ok());
  auto rejected = scheduler.Submit(MakeRequest("c", kTransitiveClosure));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kQueueFull);
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.rejected_queue_full, 1u);
  EXPECT_EQ(counters.admitted, 2u);
}

TEST_F(SchedulerTest, ClassQuotaRejectsWithOverload) {
  SchedulerOptions options;
  options.deterministic = true;
  options.class_quota[static_cast<int>(QueryClass::kInteractive)] = 1;
  Scheduler scheduler(options);
  QueryRequest first = MakeRequest("i1", kTransitiveClosure);
  first.cls = QueryClass::kInteractive;
  ASSERT_TRUE(scheduler.Submit(std::move(first)).ok());
  QueryRequest second = MakeRequest("i2", kTransitiveClosure);
  second.cls = QueryClass::kInteractive;
  auto rejected = scheduler.Submit(std::move(second));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  // The batch class has no quota, so batch admission is unaffected.
  EXPECT_TRUE(scheduler.Submit(MakeRequest("b1", kTransitiveClosure)).ok());
  EXPECT_EQ(scheduler.counters().rejected_overload, 1u);
}

TEST_F(SchedulerTest, ImpossibleReservationRejectsWithOverload) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 1024;
  Scheduler scheduler(options);
  QueryRequest request = MakeRequest("huge", kTransitiveClosure);
  request.reserve_bytes = 4096;
  auto rejected = scheduler.Submit(std::move(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
}

// Every submission lands in exactly one admission bucket.
void ExpectSubmitAccounting(const Scheduler::Counters& c) {
  EXPECT_EQ(c.submitted, c.admitted + c.rejected_queue_full +
                             c.rejected_overload + c.rejected_draining +
                             c.rejected_duplicate);
}

TEST_F(SchedulerTest, DuplicateIdRejected) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto first = scheduler.Submit(MakeRequest("q", kTransitiveClosure));
  ASSERT_TRUE(first.ok());
  auto dup = scheduler.Submit(MakeRequest("q", kTransitiveClosure));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(scheduler.counters().rejected_duplicate, 1u);
  ExpectSubmitAccounting(scheduler.counters());
  // Once the first ticket is collected its id is free again.
  EXPECT_EQ(scheduler.Wait(*first).outcome, QueryOutcome::kCompleted);
  auto reused = scheduler.Submit(MakeRequest("q", kTransitiveClosure));
  ASSERT_TRUE(reused.ok()) << reused.status();
  EXPECT_EQ(scheduler.Wait(*reused).outcome, QueryOutcome::kCompleted);
  ExpectSubmitAccounting(scheduler.counters());
}

TEST_F(SchedulerTest, CollectedTicketsAreRetired) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  constexpr int kQueries = 20000;
  constexpr int kBatch = 64;
  uint64_t last = 0;
  for (int base = 0; base < kQueries; base += kBatch) {
    std::vector<uint64_t> tickets;
    for (int i = base; i < base + kBatch && i < kQueries; ++i) {
      auto ticket = scheduler.Submit(
          MakeRequest("q" + std::to_string(i), kTransitiveClosure));
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      tickets.push_back(*ticket);
    }
    scheduler.RunUntilIdle();
    EXPECT_EQ(scheduler.counters().live, tickets.size());
    for (uint64_t ticket : tickets) {
      ASSERT_EQ(scheduler.Wait(ticket).outcome, QueryOutcome::kCompleted);
    }
    ASSERT_EQ(scheduler.counters().live, 0u) << "after query " << base;
    last = tickets.back();
  }
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.completed, static_cast<uint64_t>(kQueries));
  ExpectSubmitAccounting(counters);
  // Collect-once: the result moved out with the first Wait.
  QueryResult again = scheduler.Wait(last);
  EXPECT_EQ(again.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(again.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(scheduler.TryWait(last).has_value());
}

TEST_F(SchedulerTest, TerminalCallbackFiresOnceAndAbandonRetires) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  std::vector<uint64_t> signalled;
  auto record = [&](uint64_t ticket) { signalled.push_back(ticket); };
  auto kept = scheduler.Submit(MakeRequest("kept", kTransitiveClosure), record);
  auto queued = scheduler.Submit(MakeRequest("queued", kTransitiveClosure),
                                 record);
  auto finished = scheduler.Submit(MakeRequest("finished", kTransitiveClosure),
                                   record);
  ASSERT_TRUE(kept.ok() && queued.ok() && finished.ok());
  // Abandoning a queued ticket cancels it and retires it on the spot,
  // without a callback: nobody is left to collect it.
  scheduler.Abandon(*queued, "owner gone");
  EXPECT_EQ(scheduler.counters().live, 2u);
  scheduler.RunUntilIdle();
  EXPECT_EQ(signalled, (std::vector<uint64_t>{*kept, *finished}));
  // Abandoning a terminal, uncollected ticket retires it immediately.
  scheduler.Abandon(*finished, "owner gone");
  EXPECT_EQ(scheduler.counters().live, 1u);
  auto result = scheduler.TryWait(*kept);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, QueryOutcome::kCompleted);
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.live, 0u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.completed, 2u);
  EXPECT_EQ(signalled.size(), 2u);
}

TEST_F(SchedulerTest, DispatchOrderIsPriorityThenClassThenTicket) {
  std::ostringstream trace;
  SchedulerOptions options;
  options.deterministic = true;
  options.trace = &trace;
  Scheduler scheduler(options);
  QueryRequest low = MakeRequest("low", kTransitiveClosure);
  low.priority = -1;
  QueryRequest batch = MakeRequest("batch", kTransitiveClosure);
  QueryRequest interactive = MakeRequest("interactive", kTransitiveClosure);
  interactive.cls = QueryClass::kInteractive;
  QueryRequest high = MakeRequest("high", kTransitiveClosure);
  high.priority = 7;
  ASSERT_TRUE(scheduler.Submit(std::move(low)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(batch)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(interactive)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(high)).ok());
  scheduler.RunUntilIdle();
  std::vector<std::string> starts;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto pos = line.find(" START id=");
    if (pos == std::string::npos) continue;
    std::string id = line.substr(pos + 10);
    starts.push_back(id.substr(0, id.find(' ')));
  }
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], "high");         // priority desc first
  EXPECT_EQ(starts[1], "interactive");  // class breaks priority ties
  EXPECT_EQ(starts[2], "batch");        // then submission order
  EXPECT_EQ(starts[3], "low");
}

TEST_F(SchedulerTest, InjectedDispatchFaultRetriesThenFailsWhenPersistent) {
  FaultInjector::Config faults;
  faults.p_sched = 1.0;  // every dispatch attempt fails
  FaultInjector::Global().Configure(faults);
  SchedulerOptions options;
  options.deterministic = true;
  options.max_retries = 2;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("doomed", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(result.attempts, 3);  // initial + max_retries
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.failed, 1u);
}

TEST_F(SchedulerTest, TransientFaultRetriesThenCompletes) {
  // Scan for a seed whose first kScheduler draw fails and a later one
  // succeeds: the query then completes on a retry with the same bytes a
  // fault-free serial run produces.
  std::string reference = SerialFacts(kTransitiveClosure);
  bool found = false;
  for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_sched = 0.5;
    FaultInjector::Global().Configure(faults);
    SchedulerOptions options;
    options.deterministic = true;
    options.max_retries = 3;
    options.seed = seed;
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("flaky", kTransitiveClosure));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    if (result.outcome == QueryOutcome::kCompleted && result.attempts > 1) {
      EXPECT_EQ(result.facts, reference);
      EXPECT_GE(scheduler.counters().retries, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no seed in [0,64) produced a retried completion";
}

TEST_F(SchedulerTest, BackoffDelaysRetryByAtLeastTheBase) {
  FaultInjector::Config faults;
  faults.p_sched = 1.0;
  FaultInjector::Global().Configure(faults);
  SchedulerOptions options;
  options.deterministic = true;
  options.max_retries = 1;
  options.retry_base_seconds = 0.1;  // >= 50 virtual ticks after jitter
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("slow", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.attempts, 2);
  // Jitter is in [0.5, 1.5), so the one backoff is at least base/2.
  EXPECT_GE(result.finish_tick - result.submit_tick, 50u);
}

TEST_F(SchedulerTest, DegradationYieldsPartialAndMarksPreempted) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 32 * 1024;
  options.default_reserve_bytes = 1024;
  options.max_retries = 0;
  std::ostringstream trace;
  options.trace = &trace;
  Scheduler scheduler(options);
  // Two divergent queries with ample per-query ceilings: their combined
  // appetite crosses the global budget, so the scheduler must intervene.
  for (const char* id : {"d1", "d2"}) {
    QueryRequest request = MakeRequest(id, kDivergent);
    request.limits.max_steps_per_stage = 1000;
    ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();
  auto counters = scheduler.counters();
  EXPECT_GE(counters.degradations, 1u);
  EXPECT_EQ(counters.completed, 0u);
  EXPECT_EQ(counters.tripped_partial, 2u);
  for (uint64_t ticket : {uint64_t{1}, uint64_t{2}}) {
    QueryResult result = scheduler.Wait(ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kTrippedPartial);
    EXPECT_TRUE(result.preempted);
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
    // The rolled-back partial still serializes (at minimum the input).
    EXPECT_NE(result.facts.find("instance {"), std::string::npos);
  }
  EXPECT_NE(trace.str().find("DEGRADE"), std::string::npos);
}

TEST_F(SchedulerTest, PreemptionShedsRunnerWithinItsReservation) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 1 << 20;
  options.max_retries = 0;
  Scheduler scheduler(options);
  // Both queries reserve the whole budget: each fits alone, but while one
  // runs the other's reservation keeps the total over budget, and the
  // runner stays within its own reservation -- so the scheduler must shed
  // (preempt) rather than degrade.
  for (const char* id : {"p1", "p2"}) {
    QueryRequest request = MakeRequest(id, kDivergent);
    request.reserve_bytes = 1 << 20;
    request.limits.max_steps_per_stage = 100;
    ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();
  auto counters = scheduler.counters();
  EXPECT_GE(counters.preemptions, 1u);
  QueryResult first = scheduler.Wait(1);
  EXPECT_EQ(first.outcome, QueryOutcome::kTrippedPartial);
  EXPECT_EQ(first.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(first.preempted);
}

TEST_F(SchedulerTest, DeterministicTraceIsReproducible) {
  auto run = [](uint64_t seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_sched = 0.3;
    faults.p_trip = 0.01;
    FaultInjector::Global().Configure(faults);
    std::ostringstream trace;
    SchedulerOptions options;
    options.deterministic = true;
    options.seed = seed;
    options.queue_capacity = 3;
    options.global_memory_budget = 64 * 1024;
    options.default_reserve_bytes = 8 * 1024;
    options.trace = &trace;
    Scheduler scheduler(options);
    int which = 0;
    for (const char* id : {"q1", "q2", "q3", "q4"}) {
      QueryRequest request =
          MakeRequest(id, which % 2 == 0 ? kTransitiveClosure : kDivergent);
      request.limits.max_steps_per_stage = 50;
      request.cls = which % 2 == 0 ? QueryClass::kInteractive
                                   : QueryClass::kBatch;
      ++which;
      (void)scheduler.Submit(std::move(request));
    }
    scheduler.RunUntilIdle();
    return trace.str();
  };
  std::string first = run(11);
  std::string second = run(11);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed must replay the same trace";
}

// Pins the dispatch order against a literal trace: priorities and both
// classes mixed, injected dispatch faults forcing RETRY lines whose
// backoffs expire while fresh work is still queued, and a global budget
// tight enough to DEGRADE and PREEMPT the divergent runners. Any change in
// how the scheduler picks the next entry -- or promotes an expired backoff
// -- shows up as a diff here.
TEST_F(SchedulerTest, DispatchTraceMatchesGolden) {
  FaultInjector::Config faults;
  faults.seed = 5;
  faults.p_sched = 0.3;
  FaultInjector::Global().Configure(faults);
  std::ostringstream trace;
  SchedulerOptions options;
  options.deterministic = true;
  options.seed = 5;
  options.max_retries = 2;
  options.retry_base_seconds = 0.004;
  options.global_memory_budget = 48 * 1024;
  options.default_reserve_bytes = 8 * 1024;
  options.trace = &trace;
  Scheduler scheduler(options);
  struct Spec {
    const char* id;
    const char* source;
    QueryClass cls;
    int priority;
  };
  const Spec specs[] = {
      {"tc-a", kTransitiveClosure, QueryClass::kInteractive, 0},
      {"div-b", kDivergent, QueryClass::kBatch, 0},
      {"tc-c", kTransitiveClosure, QueryClass::kBatch, 2},
      {"tc-d", kTransitiveClosure, QueryClass::kInteractive, 2},
      {"div-e", kDivergent, QueryClass::kInteractive, -1},
      {"tc-f", kTransitiveClosure, QueryClass::kBatch, 1},
      {"tc-g", kTransitiveClosure, QueryClass::kBatch, 0},
      {"div-h", kDivergent, QueryClass::kBatch, 1},
  };
  for (const Spec& spec : specs) {
    QueryRequest request = MakeRequest(spec.id, spec.source);
    request.cls = spec.cls;
    request.priority = spec.priority;
    request.limits.max_steps_per_stage = 200;
    ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();
  const std::string golden = R"(T0 ADMIT id=tc-a class=interactive priority=0 reserve=8192
T0 ADMIT id=div-b class=batch priority=0 reserve=8192
T0 ADMIT id=tc-c class=batch priority=2 reserve=8192
T0 ADMIT id=tc-d class=interactive priority=2 reserve=8192
T0 ADMIT id=div-e class=interactive priority=-1 reserve=8192
T0 ADMIT id=tc-f class=batch priority=1 reserve=8192
T0 ADMIT id=tc-g class=batch priority=0 reserve=8192
T0 ADMIT id=div-h class=batch priority=1 reserve=8192
T0 START id=tc-d attempt=1
T0 PREEMPT id=tc-d
T1 TRIP id=tc-d reason=PREEMPTED attempt=1
T1 RETRY id=tc-d attempt=2 eligible=T4
T1 START id=tc-c attempt=1
T1 PREEMPT id=tc-c
T2 TRIP id=tc-c reason=PREEMPTED attempt=1
T2 RETRY id=tc-c attempt=2 eligible=T5
T2 START id=tc-f attempt=1
T2 PREEMPT id=tc-f
T3 TRIP id=tc-f reason=PREEMPTED attempt=1
T3 RETRY id=tc-f attempt=2 eligible=T5
T3 START id=div-h attempt=1
T3 PREEMPT id=div-h
T4 TRIP id=div-h reason=PREEMPTED attempt=1
T4 RETRY id=div-h attempt=2 eligible=T6
T4 START id=tc-d attempt=2
T4 PREEMPT id=tc-d
T5 TRIP id=tc-d reason=PREEMPTED attempt=2
T5 RETRY id=tc-d attempt=3 eligible=T14
T5 START id=tc-c attempt=2
T5 PREEMPT id=tc-c
T6 TRIP id=tc-c reason=PREEMPTED attempt=2
T6 RETRY id=tc-c attempt=3 eligible=T13
T6 START id=tc-f attempt=2
T7 FAULT id=tc-f attempt=2
T7 RETRY id=tc-f attempt=3 eligible=T14
T7 START id=div-h attempt=2
T7 PREEMPT id=div-h
T8 TRIP id=div-h reason=PREEMPTED attempt=2
T8 RETRY id=div-h attempt=3 eligible=T15
T8 START id=tc-a attempt=1
T8 PREEMPT id=tc-a
T9 TRIP id=tc-a reason=PREEMPTED attempt=1
T9 RETRY id=tc-a attempt=2 eligible=T12
T9 START id=div-b attempt=1
T9 PREEMPT id=div-b
T10 TRIP id=div-b reason=PREEMPTED attempt=1
T10 RETRY id=div-b attempt=2 eligible=T14
T10 START id=tc-g attempt=1
T11 FAULT id=tc-g attempt=1
T11 RETRY id=tc-g attempt=2 eligible=T15
T11 START id=div-e attempt=1
T12 FAULT id=div-e attempt=1
T12 RETRY id=div-e attempt=2 eligible=T15
T12 START id=tc-a attempt=2
T13 FAULT id=tc-a attempt=2
T13 RETRY id=tc-a attempt=3 eligible=T20
T13 START id=tc-c attempt=3
T13 PREEMPT id=tc-c
T14 TRIP id=tc-c reason=PREEMPTED attempt=3
T14 PARTIAL id=tc-c reason=PREEMPTED attempts=3
T14 START id=tc-d attempt=3
T14 PREEMPT id=tc-d
T15 TRIP id=tc-d reason=PREEMPTED attempt=3
T15 PARTIAL id=tc-d reason=PREEMPTED attempts=3
T15 START id=tc-f attempt=3
T16 FAULT id=tc-f attempt=3
T16 FAIL id=tc-f status=OVERLOAD
T16 START id=div-h attempt=3
T17 FAULT id=div-h attempt=3
T17 FAIL id=div-h status=OVERLOAD
T17 START id=div-b attempt=2
T17 DEGRADE id=div-b memory=8192
T18 TRIP id=div-b reason=MEMORY attempt=2
T18 RETRY id=div-b attempt=3 eligible=T27
T18 START id=tc-g attempt=2
T19 FAULT id=tc-g attempt=2
T19 RETRY id=tc-g attempt=3 eligible=T30
T19 START id=div-e attempt=2
T19 DEGRADE id=div-e memory=8192
T20 TRIP id=div-e reason=MEMORY attempt=2
T20 RETRY id=div-e attempt=3 eligible=T30
T20 START id=tc-a attempt=3
T21 COMPLETE id=tc-a attempts=3
T27 START id=div-b attempt=3
T27 DEGRADE id=div-b memory=8192
T28 TRIP id=div-b reason=MEMORY attempt=3
T28 PARTIAL id=div-b reason=MEMORY attempts=3
T30 START id=tc-g attempt=3
T31 COMPLETE id=tc-g attempts=3
T31 START id=div-e attempt=3
T32 FAULT id=div-e attempt=3
T32 FAIL id=div-e status=OVERLOAD
)";
  EXPECT_EQ(trace.str(), golden);
  for (const char* event : {" RETRY ", " DEGRADE ", " PREEMPT "}) {
    EXPECT_NE(trace.str().find(event), std::string::npos) << event;
  }
}

TEST_F(SchedulerTest, RealModeConcurrentOutputsAreByteIdentical) {
  std::string reference = SerialFacts(kTransitiveClosure);
  SchedulerOptions options;
  options.workers = 4;
  Scheduler scheduler(options);
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = scheduler.Submit(
        MakeRequest("tc" + std::to_string(i), kTransitiveClosure));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
  }
  for (uint64_t ticket : tickets) {
    QueryResult result = scheduler.Wait(ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
    EXPECT_EQ(result.facts, reference);
  }
  EXPECT_EQ(scheduler.counters().completed, 8u);
}

TEST_F(SchedulerTest, WaitOnUnknownTicketFailsCleanly) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  QueryResult result = scheduler.Wait(99);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST_F(SchedulerTest, ParseErrorFailsWithoutRetry) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("bad", "schema { nope"));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(scheduler.counters().retries, 0u);
}

}  // namespace
}  // namespace iqlkit
