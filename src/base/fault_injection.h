#ifndef IQLKIT_BASE_FAULT_INJECTION_H_
#define IQLKIT_BASE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/result.h"
#include "base/status.h"

namespace iqlkit {

// Deterministic points where the harness can force a failure. Each site has
// its own per-process decision counter, so the n-th consultation of a site
// fails (or not) as a pure function of (seed, site, n) -- independent of
// thread interleaving, which is what makes soak runs reproducible.
//
// The numeric values are part of that function (ShouldFail mixes the site
// index into each decision), so they never change: renumbering would move
// the failures every recorded seed reproduces. Value 1 belonged to a
// retired site and stays unused.
enum class FaultSite : uint8_t {
  kAllocation = 0,   // value interning; surfaces as a MEMORY governor trip
  kGovernorTrip = 2, // Governor::CheckNow; forces a FAULT trip
  kScheduler = 3,    // scheduler dispatch; fails the attempt (retryable)
  kStorage = 4,      // durability I/O; short write / fsync fail / lost rename
  kNetwork = 5,      // wire I/O; torn frame / disconnect / stall / refused accept
};

inline constexpr int kNumFaultSites = 6;  // one past the largest value

const char* FaultSiteName(FaultSite site);

// Process-wide fault injector. Disabled (all probabilities zero) unless
// configured explicitly or via the IQLKIT_FAULTS environment variable:
//
//   IQLKIT_FAULTS="seed=42,alloc=0.001,trip=0.0005,sched=0.01,storage=0.01,network=0.01"
//
// Probabilities are per-consultation in [0,1]; omitted keys default to 0.
// The injector is intentionally a singleton: fault sites are sprinkled
// through hot paths that have no room for a plumbing parameter, and tests
// Reset() it between cases.
class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 0;
    double p_alloc = 0;
    double p_trip = 0;
    double p_sched = 0;
    double p_storage = 0;
    double p_network = 0;

    bool enabled() const {
      return p_alloc > 0 || p_trip > 0 || p_sched > 0 || p_storage > 0 ||
             p_network > 0;
    }
  };

  static FaultInjector& Global();

  // Parses an "key=value,..." spec (see above). Unknown keys and malformed
  // values are errors so CI typos fail loudly.
  static Result<Config> ParseSpec(std::string_view spec);

  // Installs `config` and resets all site counters.
  void Configure(const Config& config);

  // Reads IQLKIT_FAULTS if set; no-op (injector stays disabled) otherwise.
  // Called once from main()s that opt in (tests, iqlsh, iqlserve). A
  // malformed spec is never half-applied: the error is reported on stderr,
  // the injector is reset to disabled, and the parse error is returned so
  // CI typos fail loudly instead of silently running fault-free.
  Status ConfigureFromEnv();

  // Back to disabled, counters zeroed.
  void Reset() { Configure(Config{}); }

  // True if the n-th consultation of `site` should fail. Deterministic in
  // (seed, site, n); thread-safe (the counter is the only shared state).
  bool ShouldFail(FaultSite site);

  const Config& config() const { return config_; }
  uint64_t hits(FaultSite site) const {
    return hits_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }
  uint64_t injected(FaultSite site) const {
    return injected_[static_cast<int>(site)].load(std::memory_order_relaxed);
  }

 private:
  FaultInjector() = default;

  Config config_;
  std::atomic<uint64_t> hits_[kNumFaultSites] = {};
  std::atomic<uint64_t> injected_[kNumFaultSites] = {};
};

}  // namespace iqlkit

#endif  // IQLKIT_BASE_FAULT_INJECTION_H_
