#ifndef IQLKIT_BASE_GOVERNOR_H_
#define IQLKIT_BASE_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "base/status.h"

namespace iqlkit {

// Why an evaluation was stopped early. kNone means the run is (so far)
// within every limit. Names are stable strings (TripReasonName) used in
// Status messages, EvalMetrics::ToJson, and the iqlsh partial report.
enum class TripReason : uint8_t {
  kNone = 0,
  kDeadline,      // wall-clock deadline elapsed
  kCancelled,     // cooperative cancellation token fired
  kMemory,        // byte-level memory accounting crossed max_memory_bytes
  kSteps,         // fixpoint step/round budget exhausted
  kDerivations,   // (rule, valuation) firing budget exhausted
  kInventedOids,  // oid-invention budget exhausted
  kExtent,        // type-extent enumeration budget exhausted
  kFault,         // fault injection forced a trip (tests/CI only)
  kPreempted,     // scheduler preempted the run under global pressure
};

// Stable upper-case name, e.g. "DEADLINE", "INVENTED_OIDS"; "NONE" for
// kNone.
const char* TripReasonName(TripReason reason);

// Unified resource limits for one evaluation. The four counters are the
// former ad-hoc EvalOptions budgets; deadline and memory are enforced by
// the Governor's poll. A zero deadline/memory limit means "unlimited" --
// the counters have explicit large defaults instead because IQL programs
// legitimately diverge (Example 3.4.2) and an unbounded default would hang.
struct ResourceLimits {
  uint64_t max_steps_per_stage = 100000;  // fixpoint iterations / rounds
  uint64_t max_invented_oids = 1 << 20;
  uint64_t max_derivations = uint64_t{1} << 26;  // (rule, valuation) firings
  uint64_t extent_budget = uint64_t{1} << 22;    // per-step type extents
  double deadline_seconds = 0;    // 0 = no wall-clock deadline
  uint64_t max_memory_bytes = 0;  // 0 = no memory ceiling
  // Full-check cadence of Governor::Poll: the wall clock, cancellation
  // token, memory accountant, and fault injector are re-examined every
  // `poll_stride` calls (rounded up to a power of two, minimum 1). The
  // default amortizes the steady_clock read over enumeration; scheduler
  // preemption-latency tests tighten it so an external trip is observed
  // within a few candidates instead of ~1024.
  uint64_t poll_stride = 1024;
};

// A cooperative cancellation flag, safe to set from any thread or from a
// signal handler (a lock-free atomic store). Evaluation loops observe it
// through Governor::Poll; cancellation is honored at the next poll point,
// never mid-commit, so the instance stays on a completed-step boundary.
class CancellationToken {
 public:
  void Cancel() { flag_.store(true, std::memory_order_release); }
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }
  void Reset() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// Thread-safe byte accounting for one evaluation. ValueStore charges
// approximate node footprints as it interns (see
// ValueStore::set_accountant); the evaluator charges per derived fact.
// `bytes` tracks live charge, `peak` the high-water mark the metrics
// report.
class MemoryAccountant {
 public:
  void Charge(uint64_t n) {
    uint64_t now = bytes_.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void Release(uint64_t n) { bytes_.fetch_sub(n, std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  // Fault injection (FaultSite::kAllocation) marks a forced allocation
  // failure here; the governor surfaces it as a memory trip at the next
  // poll -- interning itself cannot unwind mid-node.
  void MarkInjectedFailure() {
    injected_failure_.store(true, std::memory_order_relaxed);
  }
  bool injected_failure() const {
    return injected_failure_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> injected_failure_{false};
};

// Everything a tripped Status reports about where the run stopped. The
// counter fields are filled by the evaluator (they live in EvalStats);
// elapsed/memory/trip come from the governor itself.
struct ResourceReport {
  TripReason trip = TripReason::kNone;
  double elapsed_seconds = 0;
  uint64_t memory_bytes = 0;
  uint64_t peak_memory_bytes = 0;
  uint64_t steps = 0;
  uint64_t derivations = 0;
  uint64_t invented_oids = 0;

  // "trip=DEADLINE elapsed=1.204s peak_memory=1048576B steps=17 ..."
  std::string ToString() const;
};

// The evaluation governor: one per evaluation, shared (by pointer) with
// every enumeration loop. Poll() is the single cooperative
// check -- a relaxed atomic load on the fast path, with the wall clock,
// cancellation token, memory accountant, and fault injector re-examined
// every limits.poll_stride calls. A trip is sticky: the first reason wins,
// every later Poll returns the same error immediately, whichever thread
// raised it (a scheduler preempting, a cancel), so the run unwinds
// promptly.
//
// Trips are only raised from enumeration (and step boundaries), never from
// the commit phase, so a tripped evaluation always leaves the instance
// identical to the last completed fixpoint step.
//
// The deadline, memory, and step limits are *effective* limits: they start
// at the construction-time ResourceLimits and an external owner (the
// concurrent-query scheduler) may lower -- never raise -- them mid-run via
// the Tighten* hooks, from any thread. Enumeration loops and step
// boundaries read the effective values, so a tightening takes hold at the
// next poll. Preempt() is the blunt form: an asynchronous sticky
// kPreempted trip, observed exactly like cancellation.
class Governor {
 public:
  explicit Governor(const ResourceLimits& limits,
                    CancellationToken* cancel = nullptr);

  // Construction-time limits. The tightenable trio (deadline, memory,
  // steps) may since have been lowered; see the effective accessors.
  const ResourceLimits& limits() const { return limits_; }
  MemoryAccountant* accountant() { return &accountant_; }

  // Fast cooperative check; call from every enumeration loop. Ok while no
  // limit is exceeded; the sticky trip Status afterwards.
  Status Poll() {
    TripReason t = trip_.load(std::memory_order_relaxed);
    if (t != TripReason::kNone) return TripStatus(t);
    thread_local uint64_t poll_count = 0;
    if ((++poll_count & poll_mask_) != 0) return Status::Ok();
    return CheckNow();
  }

  // Full check (clock + token + memory + injector), unconditionally. Used
  // at step/round boundaries where polls are rare but cheapness irrelevant.
  Status CheckNow();

  // Trips the governor with `reason` (first trip wins) and returns the
  // trip Status. Used by the evaluator's counter budgets and by tests.
  Status TripNow(TripReason reason);

  bool tripped() const {
    return trip_.load(std::memory_order_relaxed) != TripReason::kNone;
  }
  TripReason trip_reason() const {
    return trip_.load(std::memory_order_relaxed);
  }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // ---- external control (scheduler hooks) --------------------------------
  //
  // All of these are safe to call from any thread while the evaluation
  // runs. Tighten* only ever lower the effective limit; a looser value is
  // ignored, so the per-query ceiling remains an upper bound.

  // Lowers the effective step budget (fixpoint rounds per stage).
  void TightenSteps(uint64_t max_steps);
  // Lowers the effective memory ceiling (bytes; 0 is ignored, not
  // "unlimited" -- tightening can only constrain).
  void TightenMemory(uint64_t max_bytes);
  // Lowers the effective deadline, measured in seconds from the governor's
  // start. TightenDeadline(elapsed_seconds()) trips at the next full check.
  void TightenDeadline(double seconds_from_start);
  // True once any Tighten* call actually lowered a limit -- how the
  // scheduler's retry policy tells a degradation-induced trip (transient,
  // retryable) from an organic trip at the query's own ceiling.
  bool tightened() const {
    return tightened_.load(std::memory_order_relaxed);
  }

  // Asynchronous preemption: sticky kPreempted trip (first trip still
  // wins), observed at the victim's next poll. Returns the trip Status.
  Status Preempt() { return TripNow(TripReason::kPreempted); }

  // Effective (possibly tightened) limits, read by the evaluator at step
  // boundaries and by CheckNow.
  uint64_t max_steps() const {
    return eff_steps_.load(std::memory_order_relaxed);
  }
  uint64_t max_memory_bytes() const {  // UINT64_MAX = unlimited
    return eff_memory_.load(std::memory_order_relaxed);
  }
  double deadline_seconds() const;  // +inf = none

  // Optional callback run at the top of every full check (so once per
  // poll stride per thread, and at step boundaries) while the run is
  // trip-free. The scheduler uses it as its global-pressure sampling
  // point: the hook may Tighten* or Preempt() this or any other governor.
  // Must be installed before the evaluation starts and not changed while
  // it runs; the callee synchronizes its own state.
  void set_pressure_hook(std::function<void()> hook) {
    pressure_hook_ = std::move(hook);
  }

  // Elapsed/memory/trip fields of the report; the evaluator merges in its
  // own counters before attaching the report to a Status or the metrics.
  ResourceReport Report() const;

 private:
  Status TripStatus(TripReason reason) const;

  ResourceLimits limits_;
  CancellationToken* cancel_;
  MemoryAccountant accountant_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<TripReason> trip_{TripReason::kNone};
  // Effective limits (see Tighten*). Deadline is nanoseconds from start_
  // (INT64_MAX = none); memory is bytes (UINT64_MAX = none).
  std::atomic<uint64_t> eff_steps_;
  std::atomic<uint64_t> eff_memory_;
  std::atomic<int64_t> eff_deadline_ns_;
  std::atomic<bool> tightened_{false};
  uint64_t poll_mask_;  // limits_.poll_stride rounded up to 2^k, minus 1
  std::function<void()> pressure_hook_;
};

}  // namespace iqlkit

#endif  // IQLKIT_BASE_GOVERNOR_H_
