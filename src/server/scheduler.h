#ifndef IQLKIT_SERVER_SCHEDULER_H_
#define IQLKIT_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "base/governor.h"
#include "base/result.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "iql/eval.h"
#include "storage/durable.h"

namespace iqlkit {
namespace server {

// Admission class of a query. Interactive queries dispatch ahead of batch
// work at equal priority and are the last preemption victims; each class
// has its own admission quota so a batch backlog can never starve
// interactive admission (and vice versa).
enum class QueryClass : uint8_t { kInteractive = 0, kBatch = 1 };
inline constexpr int kNumQueryClasses = 2;

// Stable lower-case name: "interactive" / "batch".
const char* QueryClassName(QueryClass cls);
Result<QueryClass> ParseQueryClass(std::string_view text);

// One query as submitted to the scheduler: a full IQL source unit plus the
// admission metadata the scheduler plans with.
struct QueryRequest {
  // Trace label and durable directory name. Unique among live tickets: an
  // id may be reused once its previous ticket has been collected (Wait or
  // TryWait returned its result) or abandoned and retired. Re-submitting a
  // durable query's id after a restart relies on this -- the new ticket is
  // served from the finished run's final output, provided its source is
  // the one that wrote it (see SchedulerOptions::data_dir).
  std::string id;
  std::string source;  // IQL source unit (schema/instance/program blocks)
  QueryClass cls = QueryClass::kBatch;
  int priority = 0;  // higher dispatches first within the backlog
  // Per-query ceilings. The scheduler enforces them through the query's
  // governor and may *tighten* (never loosen) them under global pressure.
  ResourceLimits limits;
  // Admission-time memory reservation: the scheduler books this many bytes
  // of the global budget for the query while it is queued or running.
  // 0 means SchedulerOptions::default_reserve_bytes. Clamped to the
  // query's own max_memory_bytes ceiling when that is set and smaller.
  uint64_t reserve_bytes = 0;
  // Evaluation policies (semi-naive, indexing, choose policy, ...).
  // Scheduler concurrency comes from running many queries at once on the
  // shared pool; each evaluation is serial. governor, partial, cancel,
  // metrics, trace, and durability are overwritten per attempt.
  EvalOptions eval;
};

// Terminal classification of a submitted query. Every admitted query ends
// in exactly one of the completed, tripped, failed, or cancelled states;
// rejection happens at Submit time (the ticket is never issued).
enum class QueryOutcome : uint8_t {
  kCompleted = 0,       // clean fixpoint; `facts` is the output instance
  kTrippedPartial = 1,  // governor trip; `facts` is the rolled-back partial
  kRejected = 2,        // never admitted (QUEUE_FULL / OVERLOAD)
  kFailed = 3,          // non-trip error (parse/type/injected dispatch fault)
  kCancelled = 4,       // Cancel()ed by the caller, or shed by a drain
};
const char* QueryOutcomeName(QueryOutcome outcome);

struct QueryResult {
  QueryOutcome outcome = QueryOutcome::kFailed;
  Status status;      // Ok for kCompleted; the final error otherwise
  std::string facts;  // WriteFacts of the output or of the rollback partial
  EvalStats stats;    // last attempt's statistics
  int attempts = 0;   // evaluation attempts consumed (1 = no retries)
  bool preempted = false;  // a scheduler preemption/degrade hit any attempt
  // Durability (data_dir set): the final attempt continued from persisted
  // state instead of starting over. resume_stage/resume_step are where that
  // attempt picked up -- stats.steps counts only the steps it executed, so
  // resume_step + stats.steps for the resumed stage equals the step count
  // of an uninterrupted run (the never-re-derives assertion).
  bool resumed = false;
  uint32_t resume_stage = 0;
  uint64_t resume_step = 0;
  // Non-empty when durable storage degraded to in-memory evaluation (dir
  // unwritable) or persisted state was unusable: the warning text.
  std::string storage_warning;
  uint64_t submit_tick = 0;
  uint64_t finish_tick = 0;
};

struct SchedulerOptions {
  // Concurrently running queries = workers of the shared task pool.
  size_t workers = 4;
  // Bound on *waiting* (admitted, not yet running) queries; submissions
  // beyond it are rejected with QUEUE_FULL. Backpressure, not OOM.
  size_t queue_capacity = 64;
  // Per-class cap on waiting + running queries; 0 = no quota for that
  // class. Submissions beyond the quota are rejected with OVERLOAD.
  size_t class_quota[kNumQueryClasses] = {0, 0};
  // Global memory budget in bytes across every running query's accountant
  // plus every waiting query's reservation; 0 = unlimited. When the sum
  // crosses the budget the scheduler degrades (tightens) or preempts
  // running queries, never the allocator.
  uint64_t global_memory_budget = 0;
  // Reservation booked for queries that leave reserve_bytes at 0.
  uint64_t default_reserve_bytes = 1 << 20;
  // Retry policy for transient failures (injected faults, preemption,
  // degradation-induced memory trips): up to max_retries re-runs with
  // jittered exponential backoff (base * 2^attempt, jitter in [0.5, 1.5)
  // seeded from `seed` and the ticket, so runs are reproducible).
  int max_retries = 2;
  double retry_base_seconds = 0.05;
  uint64_t seed = 0;
  // Deterministic mode: no worker threads, no wall clock. Queries execute
  // serially in admission-priority order from RunUntilIdle()/Wait() on the
  // caller's thread; time is a virtual tick counter (1 tick = 1ms) that
  // only advances on attempt boundaries and backoff waits, and every
  // query's poll stride is forced to 1 so preemption and degradation land
  // at deterministic candidate counts. A given submission sequence then
  // produces a byte-identical event trace for a given seed.
  bool deterministic = false;
  // Event log: one line per scheduler event (ADMIT/REJECT/START/DEGRADE/
  // PREEMPT/TRIP/RETRY/COMPLETE/FAIL), each stamped with the tick.
  std::ostream* trace = nullptr;
  // Durable evaluation root. When non-empty, every query gets a directory
  // `<data_dir>/q-<id>` holding one log, wal.iqw: a checksummed snapshot of
  // its input, then a frame per committed fixpoint step; a finished run's
  // log is a snapshot of its output alone.
  // Each attempt recovers from that directory before evaluating, so a
  // retried (preempted, degraded, crashed, storage-faulted) query resumes
  // from its last committed step instead of re-deriving, and a finished
  // query re-submitted after a restart is served from its final output.
  // That state is keyed by the digest of the query's source: an id
  // re-submitted with another program finds a fingerprint mismatch, gets a
  // storage_warning, and is evaluated afresh. Storage write failures
  // surface as kUnavailable and are retried with backoff like any
  // transient; an unwritable dir degrades that query to plain in-memory
  // evaluation with QueryResult::storage_warning set.
  std::string data_dir;
  // Policy (fsync) for the directories above.
  storage::DurabilityConfig durability;
};

// The concurrent-query scheduler: owns one shared TaskPool and a global
// memory budget, and multiplexes many evaluations through their per-query
// Governors (see DESIGN.md "Concurrent scheduling").
//
//   admit ----> queue ----> run ----> complete
//     |           |          |  \---> trip ----> retry (transient) --> queue
//     \--> REJECT (QUEUE_FULL / OVERLOAD)    \--> partial (organic)
//
// The scheduler holds only live tickets -- queued, running, or terminal
// but not yet collected -- so per-query work never grows with the number
// of queries already served. Each ticket is collected exactly once (Wait
// or TryWait moves its result out and retires it) or abandoned (retired
// as soon as it is terminal).
//
// Thread-safe in real mode: Submit/Wait/counters may be called from any
// thread. In deterministic mode the scheduler is single-threaded by
// construction -- submit everything, then drive with RunUntilIdle().
class Scheduler {
 public:
  // Called once when the ticket reaches a terminal state (from a worker
  // thread in real mode, from the driving thread in deterministic mode).
  // It runs under the scheduler lock, atomically with the transition, so
  // once Abandon() returns no callback for that ticket can still fire;
  // it must therefore be cheap and must not call back into the scheduler.
  // It exists so a session learns which of its tickets to collect without
  // polling all of them.
  using TerminalCallback = std::function<void(uint64_t ticket)>;

  explicit Scheduler(const SchedulerOptions& options);
  // Drains: blocks until every admitted query is terminal.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Admission: bounded queue + per-class quota + reservation-fits check.
  // Returns a ticket for Wait(), or a structured rejection:
  //   QUEUE_FULL -- the waiting queue is at capacity
  //   OVERLOAD   -- class quota exceeded, or the reservation can never fit
  //   INVALID_ARGUMENT -- another live ticket carries the same id
  // Rejections are immediate and never block; callers are expected to
  // back off and resubmit. `on_terminal`, when set, fires once when the
  // ticket goes terminal (never for an abandoned ticket).
  Result<uint64_t> Submit(QueryRequest request,
                          TerminalCallback on_terminal = nullptr);

  // Blocks until the query is terminal, then moves its result out and
  // retires the ticket: a second Wait on it returns NOT_FOUND, like an
  // unknown ticket. In deterministic mode this drives RunUntilIdle() first.
  QueryResult Wait(uint64_t ticket);

  // Non-blocking collect: once the query is terminal, moves its result
  // out and retires the ticket; nullopt while it is still queued or
  // running (or the ticket is unknown). Never drives execution --
  // deterministic-mode callers run the scheduler via RunUntilIdle()
  // between polls.
  std::optional<QueryResult> TryWait(uint64_t ticket);

  // Cancels a submitted query: a queued entry goes terminal immediately
  // (outcome kCancelled); a running entry is preempted at its next poll
  // and lands terminal without retry, its rollback partial checkpointed
  // when durable storage is attached. Returns false when the ticket is
  // unknown or already terminal. `reason` is carried in the final Status.
  // The ticket must still be collected.
  bool Cancel(uint64_t ticket, const std::string& reason);

  // Cancel for a caller that will never collect the ticket (a session
  // that closed with the query in flight): drops its terminal callback
  // and retires the entry once it is terminal -- immediately when it
  // already is. Unknown (already collected) tickets are ignored.
  void Abandon(uint64_t ticket, const std::string& reason);

  // Graceful-shutdown entry points (see serve_loop.h for the state
  // machine that drives them):
  //   BeginDrain  -- stop admitting (Submit rejects with UNAVAILABLE) and
  //                  stop retrying: every in-flight attempt's next end is
  //                  terminal. Running queries keep running -- the caller
  //                  owns the grace window.
  //   PreemptAll  -- end the grace window: preempt every running query
  //                  (their partials checkpoint via the durability path)
  //                  and cancel every queued one.
  void BeginDrain();
  void PreemptAll(const std::string& reason);
  bool draining() const;

  // Runs until no query is waiting or running. In deterministic mode this
  // is the execution driver; in real mode it just blocks for quiescence.
  void RunUntilIdle();

  // submitted == admitted + rejected_queue_full + rejected_overload +
  // rejected_draining + rejected_duplicate, and once every ticket is
  // terminal, admitted == completed + tripped_partial + failed + cancelled.
  struct Counters {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_overload = 0;
    uint64_t completed = 0;
    uint64_t tripped_partial = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t rejected_draining = 0;   // Submit() while draining
    uint64_t rejected_duplicate = 0;  // id of a live ticket
    uint64_t retries = 0;
    uint64_t degradations = 0;  // TightenMemory interventions
    uint64_t preemptions = 0;   // Preempt() interventions
    // Gauge, not a counter: tickets held right now (queued, running, or
    // terminal awaiting collection). 0 once everything is collected.
    uint64_t live = 0;
  };
  Counters counters() const;

  // Current tick: virtual ticks in deterministic mode, milliseconds since
  // construction otherwise.
  uint64_t now_ticks() const;

 private:
  enum class State : uint8_t { kQueued, kRunning, kDone };

  struct Entry {
    uint64_t ticket = 0;
    QueryRequest request;
    uint64_t reserve_bytes = 0;  // resolved reservation
    State state = State::kQueued;
    uint64_t eligible_tick = 0;  // backoff gate for retries
    int attempts = 0;
    bool degraded = false;   // this attempt was tightened
    bool preempted = false;  // this attempt was preempted
    bool ever_intervened = false;
    bool cancel_requested = false;  // Cancel()/drain: next end is terminal
    bool abandoned = false;         // never collected: retire when terminal
    std::string cancel_reason;
    std::shared_ptr<Governor> governor;  // live while running
    TerminalCallback on_terminal;
    QueryResult result;
    uint64_t submit_tick = 0;
  };

  // Dispatch order: priority desc, interactive before batch, then
  // submission order. The ticket makes the order total, so the trace is
  // deterministic.
  using ReadyKey = std::tuple<int, int, uint64_t>;
  static ReadyKey ReadyKeyOf(const Entry& entry);

  // What one evaluation attempt produced (built outside the lock).
  struct AttemptEnd {
    Status status;
    std::string facts;
    EvalStats stats;
    bool sched_fault = false;  // FaultSite::kScheduler fired at dispatch
    bool resumed = false;      // continued from persisted state
    uint32_t resume_stage = 0;
    uint64_t resume_step = 0;
    std::string storage_warning;  // degraded / unusable persisted state
  };

  uint64_t NowTicksLocked() const;
  void TraceLocked(const std::string& line);
  bool IdleLocked() const;  // nothing queued or running
  // Queued entries live in ready_ (eligible now) or backoff_ (a retry
  // waiting out its delay); these keep both sets and the queued
  // reservation sum in step.
  void EnqueueLocked(Entry* entry);
  void DequeueLocked(Entry* entry);
  // Moves every backoff entry whose eligible tick has passed into ready_.
  void PromoteExpiredLocked();
  // Terminal transition bookkeeping: fires the callback, or retires an
  // abandoned entry (which invalidates `entry`).
  void OnTerminalLocked(Entry* entry);
  void RetireLocked(Entry* entry);
  // Moves the result out of a terminal entry and retires it.
  QueryResult CollectLocked(Entry* entry);
  bool CancelLocked(Entry* entry, const std::string& reason);
  void CancelQueuedLocked(Entry* entry, const std::string& reason);
  // Picks the best dispatchable entry after promoting expired backoffs;
  // null when none.
  Entry* NextRunnableLocked();
  uint64_t EarliestEligibleLocked() const;  // UINT64_MAX when no backoff
  void DispatchLocked(std::unique_lock<std::mutex>& lock);
  void StartAttemptLocked(Entry* entry);
  AttemptEnd ExecuteAttempt(Entry* entry);  // runs WITHOUT the lock
  void FinishAttempt(Entry* entry, AttemptEnd end);
  // Global-pressure sampling point, called from every running governor's
  // full check (see Governor::set_pressure_hook).
  void PressureCheck();
  void TimekeeperLoop();

  SchedulerOptions options_;
  std::chrono::steady_clock::time_point start_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // terminal transitions + quiescence
  std::condition_variable retry_cv_;  // wakes the timekeeper
  // Live tickets only (see the class comment), in ticket order.
  std::map<uint64_t, std::unique_ptr<Entry>> entries_;
  std::unordered_set<std::string> live_ids_;  // duplicate-id check
  std::map<ReadyKey, Entry*> ready_;
  std::map<std::pair<uint64_t, uint64_t>, Entry*> backoff_;  // (tick, ticket)
  std::map<uint64_t, Entry*> running_;                       // by ticket
  uint64_t queued_reserve_ = 0;  // reservations of ready_ + backoff_
  uint64_t next_ticket_ = 1;
  uint64_t virtual_now_ = 0;  // deterministic mode only
  size_t class_load_[kNumQueryClasses] = {0, 0};  // waiting + running
  Counters counters_;
  bool shutdown_ = false;
  bool draining_ = false;

  std::optional<TaskPool> pool_;       // real mode only
  std::optional<std::thread> timekeeper_;  // real mode only
};

}  // namespace server
}  // namespace iqlkit

#endif  // IQLKIT_SERVER_SCHEDULER_H_
