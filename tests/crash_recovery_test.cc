#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"
#include "server/scheduler.h"
#include "storage/durable.h"

// Crash-recovery soak: kill evaluations at random committed fixpoint steps
// (including repeatedly, on every attempt), recover from the snapshot + WAL
// prefix, and require the resumed run to reproduce the uninterrupted run
// byte-for-byte -- plus the scheduler-level resume paths (restart-served
// finals, retry-after-storage-fault, tripped-partial checkpoints picked up
// by a later scheduler).
namespace iqlkit {
namespace {

using server::QueryOutcome;
using server::QueryRequest;
using server::QueryResult;
using server::Scheduler;
using server::SchedulerOptions;
using storage::DurabilityConfig;
using storage::QueryDurability;

constexpr const char* kChain = R"(
  schema {
    relation E : [D, D];
    relation TC : [D, D];
    relation Node : D;
    relation Box : [D, P];
    class P : {D};
  }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]);
    E(["d", "e"]); E(["e", "f"]); E(["f", "g"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
    Node(x) :- E(x, y).
    Node(y) :- E(x, y).
    ;
    Box(x, p) :- Node(x).
    p^(y) :- Box(x, p), TC(x, y).
  }
)";

struct LoadedUnit {
  std::unique_ptr<Universe> u;
  std::unique_ptr<ParsedUnit> unit;
  std::optional<Instance> input;

  std::shared_ptr<const Schema> schema() const {
    return std::shared_ptr<const Schema>(std::shared_ptr<const Schema>(),
                                         &unit->schema);
  }
};

LoadedUnit Load(const char* source) {
  LoadedUnit l;
  l.u = std::make_unique<Universe>();
  auto unit = ParseUnit(l.u.get(), source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  if (!unit.ok()) return l;
  l.unit = std::make_unique<ParsedUnit>(std::move(*unit));
  Instance input(&l.unit->schema, l.u.get());
  Status applied = ApplyFacts(*l.unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  l.input.emplace(std::move(input));
  return l;
}

// Naive-only evaluation options: with semi-naive off the step counter is an
// exact program counter, so "never re-derives" is an equality, not a bound.
EvalOptions NaiveOptions() {
  EvalOptions options;
  options.enable_seminaive = false;
  return options;
}

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/iqlkit_crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Persists the first `frames` commits, then fails like a dying process.
class CrashAfter : public StepCommitSink {
 public:
  CrashAfter(QueryDurability* d, uint64_t frames) : d_(d), frames_(frames) {}
  Status OnStepCommit(const StepCommit& commit) override {
    if (seen_ == frames_) return UnavailableError("simulated crash");
    ++seen_;
    return d_->OnStepCommit(commit);
  }

 private:
  QueryDurability* d_;
  uint64_t frames_;
  uint64_t seen_ = 0;
};

// One uninterrupted durable run: reference facts and exact step count.
void Reference(std::string* facts, uint64_t* steps) {
  LoadedUnit l = Load(kChain);
  EvalStats stats;
  auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                             *l.input, NaiveOptions(), &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  *facts = WriteFacts(*out);
  *steps = stats.steps;
}

// Crash once after `crash_at` committed frames, then recover and resume to
// completion; the output must match `reference` byte-for-byte and the
// resumed attempt must execute exactly the steps the crash skipped.
void CrashResumeOnce(uint64_t crash_at,
                     const std::string& reference, uint64_t full_steps,
                     const std::string& dir) {
  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.active()) << d.warning();
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
    CrashAfter sink(&d, crash_at);
    EvalOptions options = NaiveOptions();
    options.durability.sink = &sink;
    auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                               *l.input, options);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  }
  LoadedUnit l = Load(kChain);
  QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
  auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_TRUE(rec->has_value());
  ASSERT_FALSE((*rec)->complete);
  EXPECT_EQ((*rec)->frames_replayed, crash_at);

  EvalStats stats;
  EvalOptions options = NaiveOptions();
  options.durability.sink = &d;
  options.durability.resume = true;
  options.durability.resume_stage = (*rec)->resume_stage;
  options.durability.resume_step = (*rec)->resume_step;
  auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                             (*rec)->instance, options, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(WriteFacts(*out), reference) << "crash_at=" << crash_at;
  // Never re-derives: committed steps + resumed steps == uninterrupted
  // steps, exactly.
  EXPECT_EQ(crash_at + stats.steps, full_steps) << "crash_at=" << crash_at;
}

TEST(CrashRecoverySoak, KillAtRandomCommittedStepsSerial) {
  std::string reference;
  uint64_t full_steps = 0;
  Reference(&reference, &full_steps);
  ASSERT_GT(full_steps, 2u);

  std::mt19937_64 rng(0x9E3779B97F4A7C14ull);
  for (int round = 0; round < 6; ++round) {
    uint64_t crash_at = 1 + rng() % (full_steps - 1);
    CrashResumeOnce(crash_at, reference, full_steps,
                    TestDir("soak_r" + std::to_string(round)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashRecoverySoak, CrashOnEveryAttemptStillConverges) {
  // The adversarial schedule: every attempt dies after committing exactly
  // one more frame. Progress is one step per attempt, but the final output
  // must still be byte-identical to the uninterrupted run.
  std::string reference;
  uint64_t full_steps = 0;
  Reference(&reference, &full_steps);
  std::string dir = TestDir("every_attempt");

  {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    ASSERT_TRUE(d.BeginRun(*l.input).ok());
  }
  std::string final_facts;
  uint64_t attempts = 0;
  for (; attempts < 4 * full_steps; ++attempts) {
    LoadedUnit l = Load(kChain);
    QueryDurability d = QueryDurability::Open(dir, DurabilityConfig());
    auto rec = d.Recover(l.schema(), l.schema(), l.u.get());
    ASSERT_TRUE(rec.ok()) << rec.status();
    EvalOptions options = NaiveOptions();
    options.durability.resume = rec->has_value();
    CrashAfter sink(&d, 1);
    options.durability.sink = &sink;
    const Instance* input = &*l.input;
    if (rec->has_value()) {
      options.durability.resume_stage = (*rec)->resume_stage;
      options.durability.resume_step = (*rec)->resume_step;
      input = &(*rec)->instance;
    }
    auto out = EvaluateProgram(l.u.get(), l.unit->schema, &l.unit->program,
                               *input, options);
    if (out.ok()) {
      final_facts = WriteFacts(*out);
      break;
    }
    ASSERT_EQ(out.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(final_facts, reference);
  EXPECT_GE(attempts, full_steps - 2);  // real one-step-per-attempt progress
}

// ---- scheduler-level resume paths ----------------------------------------

class SchedulerDurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

QueryRequest MakeRequest(const std::string& id, const char* source) {
  QueryRequest request;
  request.id = id;
  request.source = source;
  return request;
}

std::string SerialFacts(const char* source, uint64_t* steps = nullptr) {
  LoadedUnit l = Load(source);
  EvalStats stats;
  EvalOptions options;
  auto result = RunUnit(l.u.get(), l.unit.get(), *l.input, options, &stats);
  EXPECT_TRUE(result.ok()) << result.status();
  if (steps != nullptr) *steps = stats.steps;
  return result.ok() ? WriteFacts(*result) : std::string();
}

TEST_F(SchedulerDurabilityTest, FinishedQueryIsServedFromSnapshotAfterRestart) {
  std::string reference = SerialFacts(kChain);
  std::string dir = TestDir("sched_restart");
  SchedulerOptions options;
  options.deterministic = true;
  options.data_dir = dir;
  {
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(result.facts, reference);
    // Collecting the ticket freed its id, so the same scheduler serves a
    // re-submission from the final snapshot, as a restarted one would.
    auto again = scheduler.Submit(MakeRequest("tc", kChain));
    ASSERT_TRUE(again.ok()) << again.status();
    QueryResult served = scheduler.Wait(*again);
    EXPECT_TRUE(served.resumed);
    EXPECT_EQ(served.stats.steps, 0u);
    EXPECT_EQ(served.facts, reference);
  }
  {
    // Same data dir, fresh scheduler: the final snapshot answers without a
    // single evaluation step.
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
    EXPECT_TRUE(result.resumed);
    EXPECT_EQ(result.stats.steps, 0u);
    EXPECT_EQ(result.facts, reference);
  }
}

TEST_F(SchedulerDurabilityTest, TrippedPartialIsCheckpointedAndResumedLater) {
  uint64_t full_steps = 0;
  std::string reference = SerialFacts(kChain, &full_steps);
  std::string dir = TestDir("sched_trip");
  {
    // A tight step budget trips the governor; the scheduler checkpoints the
    // rolled-back partial on drain.
    SchedulerOptions options;
    options.deterministic = true;
    options.data_dir = dir;
    Scheduler scheduler(options);
    QueryRequest request = MakeRequest("tc", kChain);
    request.limits.max_steps_per_stage = 2;
    auto ticket = scheduler.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kTrippedPartial);
  }
  {
    // A later scheduler (an operator re-admitting the preempted/degraded
    // query with a saner budget) resumes from the checkpoint: it never
    // re-derives the committed prefix.
    SchedulerOptions options;
    options.deterministic = true;
    options.data_dir = dir;
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
    EXPECT_TRUE(result.resumed);
    EXPECT_GT(result.resume_step, 0u);
    EXPECT_LT(result.stats.steps, full_steps);
    EXPECT_EQ(result.facts, reference);
  }
}

TEST_F(SchedulerDurabilityTest, StorageFaultsRetryWithBackoffAndResume) {
  std::string reference = SerialFacts(kChain);
  bool saw_resumed_retry = false;
  for (uint64_t seed = 1; seed <= 12 && !saw_resumed_retry; ++seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_storage = 0.25;
    FaultInjector::Global().Configure(faults);

    SchedulerOptions options;
    options.deterministic = true;
    options.data_dir = TestDir("sched_fault_" + std::to_string(seed));
    options.max_retries = 10;
    options.retry_base_seconds = 0.001;
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    if (result.outcome != QueryOutcome::kCompleted) {
      // This seed exhausted the retry budget; its final status must still
      // be the transient storage classification.
      EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
      continue;
    }
    EXPECT_EQ(result.facts, reference) << "seed=" << seed;
    if (result.attempts > 1 && result.resumed && result.resume_step > 0) {
      saw_resumed_retry = true;
    }
  }
  FaultInjector::Global().Reset();
  // At p=0.25 some seed must have faulted mid-run and then resumed from the
  // durable prefix rather than starting over.
  EXPECT_TRUE(saw_resumed_retry);
}

// kChain's schema and rules over a shorter chain: same fingerprint, other
// answer.
constexpr const char* kShortChain = R"(
  schema {
    relation E : [D, D];
    relation TC : [D, D];
    relation Node : D;
    relation Box : [D, P];
    class P : {D};
  }
  instance { E(["a", "b"]); E(["b", "c"]); }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
    Node(x) :- E(x, y).
    Node(y) :- E(x, y).
    ;
    Box(x, p) :- Node(x).
    p^(y) :- Box(x, p), TC(x, y).
  }
)";

TEST_F(SchedulerDurabilityTest, ReusedIdWithAnotherSourceStartsOver) {
  std::string reference = SerialFacts(kChain);
  uint64_t short_steps = 0;
  std::string short_reference = SerialFacts(kShortChain, &short_steps);
  ASSERT_NE(reference, short_reference);
  SchedulerOptions options;
  options.deterministic = true;
  options.data_dir = TestDir("sched_reuse");
  Scheduler scheduler(options);
  auto run = [&](const char* source, uint64_t max_steps = 0) {
    QueryRequest request = MakeRequest("tc", source);
    if (max_steps != 0) request.limits.max_steps_per_stage = max_steps;
    auto ticket = scheduler.Submit(std::move(request));
    EXPECT_TRUE(ticket.ok()) << ticket.status();
    return ticket.ok() ? scheduler.Wait(*ticket) : QueryResult();
  };

  // Finished state of one program never answers another.
  ASSERT_EQ(run(kChain).outcome, QueryOutcome::kCompleted);
  QueryResult other = run(kShortChain);
  EXPECT_EQ(other.outcome, QueryOutcome::kCompleted);
  EXPECT_FALSE(other.resumed);
  EXPECT_EQ(other.stats.steps, short_steps);
  EXPECT_EQ(other.facts, short_reference);
  EXPECT_NE(other.storage_warning.find("fingerprint mismatch"),
            std::string::npos);

  // Neither does a tripped partial's checkpoint.
  ASSERT_EQ(run(kChain, 2).outcome, QueryOutcome::kTrippedPartial);
  other = run(kShortChain);
  EXPECT_EQ(other.outcome, QueryOutcome::kCompleted);
  EXPECT_FALSE(other.resumed);
  EXPECT_EQ(other.facts, short_reference);

  // The program that wrote the state is still served from it.
  QueryResult same = run(kShortChain);
  EXPECT_TRUE(same.resumed);
  EXPECT_EQ(same.stats.steps, 0u);
  EXPECT_EQ(same.facts, short_reference);
}

TEST_F(SchedulerDurabilityTest, UnwritableDataDirDegradesWithWarning) {
  std::string reference = SerialFacts(kChain);
  SchedulerOptions options;
  options.deterministic = true;
  options.data_dir = "/dev/null/iqlkit";
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(result.facts, reference);
  EXPECT_FALSE(result.storage_warning.empty());
  EXPECT_FALSE(result.resumed);
}

TEST_F(SchedulerDurabilityTest, VersionOneLogIsEvaluatedAfreshWithWarning) {
  uint64_t full_steps = 0;
  std::string reference = SerialFacts(kChain, &full_steps);
  SchedulerOptions options;
  options.deterministic = true;
  options.data_dir = TestDir("sched_v1");
  // A version-1 log (a bare header; its base lived in a snapshot file of
  // its own) where the query's directory will be.
  std::string dir = options.data_dir + "/q-tc";
  std::filesystem::create_directories(dir);
  {
    std::ofstream v1(dir + "/wal.iqw", std::ios::binary);
    v1.write("IQW1\x01\0\0\0" "\0\0\0\0\0\0\0\0", 16);
  }
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("tc", kChain));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.stats.steps, full_steps);
  EXPECT_EQ(result.facts, reference);
  EXPECT_NE(result.storage_warning.find("unsupported wal format version 1"),
            std::string::npos)
      << result.storage_warning;
}

}  // namespace
}  // namespace iqlkit
