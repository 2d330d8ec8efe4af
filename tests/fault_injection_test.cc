#include "base/fault_injection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "base/governor.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

// The fault-injection harness: spec parsing, per-site determinism, and a
// randomized soak across seeds asserting that every injected failure still
// leaves the instance on a completed-step boundary.
namespace iqlkit {
namespace {

// The injector is process-global; every test restores the disabled state.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultInjectionTest, ParseSpecFull) {
  auto config =
      FaultInjector::ParseSpec("seed=42,alloc=0.25,trip=0.125");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->seed, 42u);
  EXPECT_DOUBLE_EQ(config->p_alloc, 0.25);
  EXPECT_DOUBLE_EQ(config->p_trip, 0.125);
  EXPECT_TRUE(config->enabled());
}

TEST_F(FaultInjectionTest, ParseSpecDefaultsAndEmpty) {
  auto config = FaultInjector::ParseSpec("seed=7");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->seed, 7u);
  EXPECT_FALSE(config->enabled());
  auto empty = FaultInjector::ParseSpec("");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_FALSE(empty->enabled());
}

TEST_F(FaultInjectionTest, ParseSpecRejectsGarbage) {
  EXPECT_FALSE(FaultInjector::ParseSpec("bogus=1").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("alloc=1.5").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("alloc=-0.1").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("alloc=abc").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("seed").ok());
}

TEST_F(FaultInjectionTest, ParseSpecRejectsTheRetiredTaskKey) {
  // Evaluation has no worker tasks, so a spec naming the retired task=
  // site is an unknown key, not a silently ignored one.
  auto config = FaultInjector::ParseSpec("seed=3,task=0.01");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("unknown key 'task'"),
            std::string::npos)
      << config.status();
}

TEST_F(FaultInjectionTest, SiteNamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kAllocation), "allocation");
  EXPECT_STREQ(FaultSiteName(FaultSite::kGovernorTrip), "governor-trip");
  EXPECT_STREQ(FaultSiteName(FaultSite::kScheduler), "scheduler");
  EXPECT_STREQ(FaultSiteName(FaultSite::kStorage), "storage");
}

TEST_F(FaultInjectionTest, ParseSpecSchedulerSite) {
  auto config = FaultInjector::ParseSpec("seed=9,sched=0.25");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config->p_sched, 0.25);
  EXPECT_TRUE(config->enabled());
  EXPECT_FALSE(FaultInjector::ParseSpec("sched=2").ok());
}

TEST_F(FaultInjectionTest, ParseSpecStorageSite) {
  auto config = FaultInjector::ParseSpec("seed=9,storage=0.25");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_DOUBLE_EQ(config->p_storage, 0.25);
  EXPECT_TRUE(config->enabled());
  EXPECT_FALSE(FaultInjector::ParseSpec("storage=2").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("storage=abc").ok());
}

// CI's soak jobs run this binary with IQLKIT_FAULTS exported; the env
// tests below must put the variable back exactly as they found it.
class ScopedFaultsEnv {
 public:
  explicit ScopedFaultsEnv(const char* value) {
    const char* old = std::getenv("IQLKIT_FAULTS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    setenv("IQLKIT_FAULTS", value, 1);
  }
  ~ScopedFaultsEnv() {
    if (had_) {
      setenv("IQLKIT_FAULTS", saved_.c_str(), 1);
    } else {
      unsetenv("IQLKIT_FAULTS");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST_F(FaultInjectionTest, MalformedEnvSpecDisablesInjectionEntirely) {
  // Pre-load a live config: a malformed IQLKIT_FAULTS must not leave it
  // half-applied (or applied at all) -- the injector resets to disabled.
  FaultInjector::Config live;
  live.seed = 3;
  live.p_alloc = 0.5;
  FaultInjector::Global().Configure(live);
  ScopedFaultsEnv env("alloc=0.5,bogus=1");
  Status status = FaultInjector::Global().ConfigureFromEnv();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(FaultInjector::Global().config().enabled());
  EXPECT_DOUBLE_EQ(FaultInjector::Global().config().p_alloc, 0.0);
}

TEST_F(FaultInjectionTest, MalformedStorageSpecDisablesInjectionEntirely) {
  // The never-half-applied guarantee extends to the storage site: a typo
  // anywhere in a spec that also sets storage= must not leave any site live.
  FaultInjector::Config live;
  live.seed = 3;
  live.p_storage = 0.5;
  live.p_alloc = 0.25;
  FaultInjector::Global().Configure(live);
  ScopedFaultsEnv env("storage=0.5,alloc=nope");
  Status status = FaultInjector::Global().ConfigureFromEnv();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(FaultInjector::Global().config().enabled());
  EXPECT_DOUBLE_EQ(FaultInjector::Global().config().p_storage, 0.0);
  EXPECT_DOUBLE_EQ(FaultInjector::Global().config().p_alloc, 0.0);
}

TEST_F(FaultInjectionTest, WellFormedEnvSpecApplies) {
  ScopedFaultsEnv env("seed=5,sched=0.125");
  Status status = FaultInjector::Global().ConfigureFromEnv();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(FaultInjector::Global().config().seed, 5u);
  EXPECT_DOUBLE_EQ(FaultInjector::Global().config().p_sched, 0.125);
}

TEST_F(FaultInjectionTest, DisabledInjectorNeverFails) {
  FaultInjector& injector = FaultInjector::Global();
  injector.Reset();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kAllocation));
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kScheduler));
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kGovernorTrip));
  }
  EXPECT_EQ(injector.injected(FaultSite::kAllocation), 0u);
}

TEST_F(FaultInjectionTest, DecisionsAreDeterministicInSeedSiteAndCount) {
  FaultInjector& injector = FaultInjector::Global();
  FaultInjector::Config config;
  config.seed = 1234;
  config.p_alloc = 0.1;
  config.p_trip = 0.05;
  auto draw_sequence = [&](FaultSite site, int n) {
    std::vector<bool> decisions;
    decisions.reserve(n);
    for (int i = 0; i < n; ++i) decisions.push_back(injector.ShouldFail(site));
    return decisions;
  };
  injector.Configure(config);
  auto first = draw_sequence(FaultSite::kAllocation, 500);
  auto first_trip = draw_sequence(FaultSite::kGovernorTrip, 500);
  injector.Configure(config);  // resets counters
  EXPECT_EQ(draw_sequence(FaultSite::kAllocation, 500), first);
  EXPECT_EQ(draw_sequence(FaultSite::kGovernorTrip, 500), first_trip);
  // A different seed gives a different sequence (overwhelmingly likely for
  // 500 draws at p = 0.1).
  config.seed = 99;
  injector.Configure(config);
  EXPECT_NE(draw_sequence(FaultSite::kAllocation, 500), first);
}

TEST_F(FaultInjectionTest, InjectionRateTracksProbability) {
  FaultInjector& injector = FaultInjector::Global();
  FaultInjector::Config config;
  config.seed = 7;
  config.p_sched = 0.2;
  injector.Configure(config);
  int failures = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    if (injector.ShouldFail(FaultSite::kScheduler)) ++failures;
  }
  EXPECT_EQ(injector.hits(FaultSite::kScheduler),
            static_cast<uint64_t>(kDraws));
  EXPECT_EQ(injector.injected(FaultSite::kScheduler),
            static_cast<uint64_t>(failures));
  // Loose 5-sigma-ish band around 1000 expected failures.
  EXPECT_GT(failures, 800);
  EXPECT_LT(failures, 1200);
}

// ---- randomized soak ------------------------------------------------------

// Fault configs for the soak: the IQLKIT_FAULTS env spec when CI sets one
// (so the workflow's seed loop drives real injection), otherwise a fixed
// internal sweep. Probabilities always come from the defaults below; only
// the seed is taken from the environment.
std::vector<FaultInjector::Config> SoakConfigs() {
  std::vector<uint64_t> seeds = {1, 17, 4242};
  const char* env = std::getenv("IQLKIT_FAULTS");
  if (env != nullptr) {
    auto parsed = FaultInjector::ParseSpec(env);
    if (parsed.ok()) seeds = {parsed->seed};
  }
  std::vector<FaultInjector::Config> configs;
  for (uint64_t seed : seeds) {
    FaultInjector::Config config;
    config.seed = seed;
    config.p_alloc = 0.002;
    config.p_trip = 0.001;
    configs.push_back(config);
  }
  return configs;
}

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

struct SoakOutcome {
  Status status = Status::Ok();
  EvalStats stats;
  std::string partial_facts;
};

SoakOutcome RunDivergent(uint64_t max_steps) {
  SoakOutcome out;
  Universe u;
  auto unit = ParseUnit(&u, kDivergent);
  EXPECT_TRUE(unit.ok());
  Instance input(&unit->schema, &u);
  out.status = ApplyFacts(*unit, &input);
  if (!out.status.ok()) return out;
  EvalOptions options;
  options.limits.max_steps_per_stage = max_steps;
  std::optional<Instance> partial;
  options.partial = &partial;
  auto result = RunUnit(&u, &*unit, input, options, &out.stats);
  out.status = result.ok() ? Status::Ok() : result.status();
  if (partial.has_value()) out.partial_facts = WriteFacts(*partial);
  return out;
}

TEST_F(FaultInjectionTest, SoakRollbackInvariantAcrossSeeds) {
  // Inject allocation failures and forced governor trips at assorted
  // rates; whatever fires, the run must end in a structured trip whose
  // rolled-back instance byte-compares equal to a clean (fault-free) run
  // truncated at the same completed-step count.
  FaultInjector& injector = FaultInjector::Global();
  for (const FaultInjector::Config& config : SoakConfigs()) {
    injector.Configure(config);
    SoakOutcome faulty = RunDivergent(50);
    injector.Reset();

    ASSERT_FALSE(faulty.status.ok()) << "seed " << config.seed;
    EXPECT_NE(faulty.stats.trip, TripReason::kNone);
    EXPECT_NE(faulty.status.message().find("resource report"),
              std::string::npos)
        << faulty.status;
    ASSERT_FALSE(faulty.partial_facts.empty());

    // Fault-free reference at the same completed-step count. The soak
    // run's step budget (50) also serves as the no-fault backstop: if no
    // fault fires, the run trips on STEPS and compares against itself.
    SoakOutcome reference = RunDivergent(faulty.stats.steps);
    EXPECT_EQ(faulty.partial_facts, reference.partial_facts)
        << "seed " << config.seed << " trip "
        << TripReasonName(faulty.stats.trip) << " at step "
        << faulty.stats.steps;
  }
}

TEST_F(FaultInjectionTest, SoakConvergingWorkloadTripsOrMatchesCleanRun) {
  // Differential-style workload: transitive closure converges, so under
  // faults each run either finishes byte-identical to the clean result or
  // trips and rolls back -- never a third state.
  constexpr const char* kTC = R"(
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
  auto run_tc = [&]() {
    SoakOutcome out;
    Universe u;
    auto unit = ParseUnit(&u, kTC);
    EXPECT_TRUE(unit.ok());
    Instance input(&unit->schema, &u);
    out.status = ApplyFacts(*unit, &input);
    if (!out.status.ok()) return out;
    EvalOptions options;
    std::optional<Instance> partial;
    options.partial = &partial;
    auto result = RunUnit(&u, &*unit, input, options, &out.stats);
    if (result.ok()) {
      out.partial_facts = WriteFacts(*result);
    } else {
      out.status = result.status();
      if (partial.has_value()) out.partial_facts = WriteFacts(*partial);
    }
    return out;
  };
  FaultInjector& injector = FaultInjector::Global();
  injector.Reset();
  SoakOutcome clean = run_tc();
  ASSERT_TRUE(clean.status.ok()) << clean.status;
  for (const FaultInjector::Config& config : SoakConfigs()) {
    injector.Configure(config);
    SoakOutcome faulty = run_tc();
    injector.Reset();
    if (faulty.status.ok()) {
      EXPECT_EQ(faulty.partial_facts, clean.partial_facts)
          << "seed " << config.seed;
      continue;
    }
    EXPECT_NE(faulty.stats.trip, TripReason::kNone) << faulty.status;
    // Rolled back: the partial equals a clean run truncated at the same
    // completed-step count.
    Universe u;
    auto unit = ParseUnit(&u, kTC);
    ASSERT_TRUE(unit.ok());
    Instance input(&unit->schema, &u);
    ASSERT_TRUE(ApplyFacts(*unit, &input).ok());
    EvalOptions options;
    options.limits.max_steps_per_stage = faulty.stats.steps;
    std::optional<Instance> partial;
    options.partial = &partial;
    EvalStats stats;
    auto reference = RunUnit(&u, &*unit, input, options, &stats);
    ASSERT_FALSE(reference.ok());
    ASSERT_TRUE(partial.has_value());
    EXPECT_EQ(faulty.partial_facts, WriteFacts(*partial))
        << "seed " << config.seed << " trip "
        << TripReasonName(faulty.stats.trip);
  }
}

// A VM-eligible converging chain for the register-VM soak below.
constexpr const char* kVmChain = R"(
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

SoakOutcome RunVmChain(EvalOptions options) {
  SoakOutcome out;
  Universe u;
  auto unit = ParseUnit(&u, kVmChain);
  EXPECT_TRUE(unit.ok());
  Instance input(&unit->schema, &u);
  out.status = ApplyFacts(*unit, &input);
  if (!out.status.ok()) return out;
  std::optional<Instance> partial;
  options.partial = &partial;
  auto result = RunUnit(&u, &*unit, input, options, &out.stats);
  if (result.ok()) {
    out.partial_facts = WriteFacts(*result);
  } else {
    out.status = result.status();
    if (partial.has_value()) out.partial_facts = WriteFacts(*partial);
  }
  return out;
}

TEST_F(FaultInjectionTest, SoakVmEngineRollsBackLikeTheTreeWalker) {
  // The register VM under IQLKIT_FAULTS seeds: every seed either completes
  // byte-identical to the clean tree-walk result or trips and rolls back
  // to a completed-step boundary -- the same two-state
  // contract the tree-walker satisfies, checked by budget-matching the
  // observed step count on a clean tree-walk run.
  FaultInjector& injector = FaultInjector::Global();
  injector.Reset();
  EvalOptions oracle;
  oracle.tree_walk_oracle = true;
  SoakOutcome clean = RunVmChain(oracle);
  ASSERT_TRUE(clean.status.ok()) << clean.status;
  for (const FaultInjector::Config& config : SoakConfigs()) {
    injector.Configure(config);
    SoakOutcome faulty = RunVmChain(EvalOptions{});
    injector.Reset();
    if (faulty.status.ok()) {
      EXPECT_EQ(faulty.partial_facts, clean.partial_facts)
          << "vm seed " << config.seed;
      continue;
    }
    EXPECT_NE(faulty.stats.trip, TripReason::kNone) << faulty.status;
    EvalOptions ref = oracle;
    ref.limits.max_steps_per_stage = faulty.stats.steps;
    SoakOutcome reference = RunVmChain(ref);
    ASSERT_FALSE(reference.status.ok());
    EXPECT_EQ(faulty.partial_facts, reference.partial_facts)
        << "vm seed " << config.seed << " trip "
        << TripReasonName(faulty.stats.trip) << " at step "
        << faulty.stats.steps;
  }
}

TEST_F(FaultInjectionTest, CertainGovernorTripFaultsImmediately) {
  FaultInjector::Config config;
  config.seed = 1;
  config.p_trip = 1.0;
  FaultInjector::Global().Configure(config);
  SoakOutcome out = RunDivergent(50);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.stats.trip, TripReason::kFault);
  EXPECT_EQ(out.stats.steps, 0u);  // tripped before the first step committed
}

TEST_F(FaultInjectionTest, CertainAllocationFaultSurfacesAsMemoryTrip) {
  FaultInjector::Config config;
  config.seed = 1;
  config.p_alloc = 1.0;
  FaultInjector::Global().Configure(config);
  SoakOutcome out = RunDivergent(50);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.stats.trip, TripReason::kMemory);
}

}  // namespace
}  // namespace iqlkit
