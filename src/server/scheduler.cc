#include "server/scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>

#include "base/fault_injection.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/universe.h"
#include "storage/snapshot.h"

namespace iqlkit {
namespace server {
namespace {

// SplitMix64 finalizer (same mix the fault injector uses): turns
// (seed, ticket, attempt) into reproducible backoff jitter.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kNoTick = std::numeric_limits<uint64_t>::max();

// Filesystem-safe per-query directory name under SchedulerOptions::data_dir.
std::string QueryDirName(const std::string& id) {
  std::string out = "q-";
  for (char c : id) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out += safe ? c : '_';
  }
  return out;
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kInteractive:
      return "interactive";
    case QueryClass::kBatch:
      return "batch";
  }
  return "batch";
}

Result<QueryClass> ParseQueryClass(std::string_view text) {
  if (text == "interactive") return QueryClass::kInteractive;
  if (text == "batch") return QueryClass::kBatch;
  return InvalidArgumentError("unknown query class '" + std::string(text) +
                              "' (want interactive|batch)");
}

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kCompleted:
      return "completed";
    case QueryOutcome::kTrippedPartial:
      return "tripped-partial";
    case QueryOutcome::kRejected:
      return "rejected";
    case QueryOutcome::kFailed:
      return "failed";
    case QueryOutcome::kCancelled:
      return "cancelled";
  }
  return "failed";
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  if (options_.workers == 0) options_.workers = 1;
  if (!options_.deterministic) {
    pool_.emplace(options_.workers);
    timekeeper_.emplace([this] { TimekeeperLoop(); });
  }
}

Scheduler::~Scheduler() {
  if (options_.deterministic) {
    RunUntilIdle();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return IdleLocked(); });
    shutdown_ = true;
  }
  retry_cv_.notify_all();
  if (timekeeper_.has_value()) timekeeper_->join();
  pool_.reset();  // joins the workers (queue is already drained)
}

uint64_t Scheduler::NowTicksLocked() const {
  if (options_.deterministic) return virtual_now_;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void Scheduler::TraceLocked(const std::string& line) {
  if (options_.trace == nullptr) return;
  *options_.trace << "T" << NowTicksLocked() << " " << line << "\n";
}

bool Scheduler::IdleLocked() const {
  return ready_.empty() && backoff_.empty() && running_.empty();
}

Scheduler::ReadyKey Scheduler::ReadyKeyOf(const Entry& entry) {
  return {-entry.request.priority,
          entry.request.cls == QueryClass::kInteractive ? 0 : 1, entry.ticket};
}

void Scheduler::EnqueueLocked(Entry* entry) {
  entry->state = State::kQueued;
  queued_reserve_ += entry->reserve_bytes;
  if (entry->eligible_tick <= NowTicksLocked()) {
    ready_.emplace(ReadyKeyOf(*entry), entry);
  } else {
    backoff_.emplace(std::make_pair(entry->eligible_tick, entry->ticket),
                     entry);
  }
}

void Scheduler::DequeueLocked(Entry* entry) {
  queued_reserve_ -= entry->reserve_bytes;
  if (ready_.erase(ReadyKeyOf(*entry)) == 0) {
    backoff_.erase(std::make_pair(entry->eligible_tick, entry->ticket));
  }
}

void Scheduler::PromoteExpiredLocked() {
  uint64_t now = NowTicksLocked();
  while (!backoff_.empty() && backoff_.begin()->first.first <= now) {
    Entry* entry = backoff_.begin()->second;
    backoff_.erase(backoff_.begin());
    ready_.emplace(ReadyKeyOf(*entry), entry);
  }
}

void Scheduler::OnTerminalLocked(Entry* entry) {
  if (entry->abandoned) {
    RetireLocked(entry);
  } else if (entry->on_terminal) {
    entry->on_terminal(entry->ticket);
  }
}

void Scheduler::RetireLocked(Entry* entry) {
  live_ids_.erase(entry->request.id);
  entries_.erase(entry->ticket);
}

QueryResult Scheduler::CollectLocked(Entry* entry) {
  QueryResult result = std::move(entry->result);
  RetireLocked(entry);
  return result;
}

Result<uint64_t> Scheduler::Submit(QueryRequest request,
                                   TerminalCallback on_terminal) {
  std::unique_lock<std::mutex> lock(mu_);
  ++counters_.submitted;
  if (draining_) {
    ++counters_.rejected_draining;
    TraceLocked("REJECT id=" + request.id + " reason=DRAINING");
    return UnavailableError(
        "scheduler is draining; not accepting new queries");
  }
  if (live_ids_.count(request.id) != 0) {
    ++counters_.rejected_duplicate;
    TraceLocked("REJECT id=" + request.id + " reason=DUPLICATE");
    return InvalidArgumentError("duplicate query id '" + request.id + "'");
  }
  int cls = static_cast<int>(request.cls);
  uint64_t reserve = request.reserve_bytes != 0
                         ? request.reserve_bytes
                         : options_.default_reserve_bytes;
  if (request.limits.max_memory_bytes > 0) {
    reserve = std::min(reserve, request.limits.max_memory_bytes);
  }
  // Admission checks, cheapest-signal first. Rejections are structured
  // backpressure: the caller learns *why* and can back off, instead of the
  // process learning via OOM.
  if (options_.class_quota[cls] > 0 &&
      class_load_[cls] >= options_.class_quota[cls]) {
    ++counters_.rejected_overload;
    TraceLocked("REJECT id=" + request.id + " reason=OVERLOAD detail=" +
                std::string(QueryClassName(request.cls)) + "-quota");
    return OverloadedError(
        "class '" + std::string(QueryClassName(request.cls)) + "' quota of " +
        std::to_string(options_.class_quota[cls]) +
        " queries exceeded; retry when the backlog drains");
  }
  if (ready_.size() + backoff_.size() >= options_.queue_capacity) {
    ++counters_.rejected_queue_full;
    TraceLocked("REJECT id=" + request.id + " reason=QUEUE_FULL");
    return QueueFullError("admission queue at capacity " +
                          std::to_string(options_.queue_capacity) +
                          "; retry with backoff");
  }
  if (options_.global_memory_budget > 0 &&
      reserve > options_.global_memory_budget) {
    ++counters_.rejected_overload;
    TraceLocked("REJECT id=" + request.id + " reason=OVERLOAD detail=reserve");
    return OverloadedError(
        "memory reservation of " + std::to_string(reserve) +
        " bytes can never fit the global budget of " +
        std::to_string(options_.global_memory_budget) + " bytes");
  }
  uint64_t ticket = next_ticket_++;
  auto owned = std::make_unique<Entry>();
  Entry* entry = owned.get();
  entry->ticket = ticket;
  entry->request = std::move(request);
  entry->reserve_bytes = reserve;
  entry->on_terminal = std::move(on_terminal);
  entry->submit_tick = NowTicksLocked();
  entry->eligible_tick = entry->submit_tick;
  entries_.emplace(ticket, std::move(owned));
  live_ids_.insert(entry->request.id);
  EnqueueLocked(entry);
  ++class_load_[cls];
  ++counters_.admitted;
  TraceLocked("ADMIT id=" + entry->request.id + " class=" +
              QueryClassName(entry->request.cls) +
              " priority=" + std::to_string(entry->request.priority) +
              " reserve=" + std::to_string(reserve));
  if (!options_.deterministic) DispatchLocked(lock);
  return ticket;
}

Scheduler::Entry* Scheduler::NextRunnableLocked() {
  PromoteExpiredLocked();
  return ready_.empty() ? nullptr : ready_.begin()->second;
}

uint64_t Scheduler::EarliestEligibleLocked() const {
  return backoff_.empty() ? kNoTick : backoff_.begin()->first.first;
}

void Scheduler::StartAttemptLocked(Entry* entry) {
  DequeueLocked(entry);
  entry->state = State::kRunning;
  running_.emplace(entry->ticket, entry);
  ++entry->attempts;
  entry->degraded = false;
  entry->preempted = false;
  ResourceLimits limits = entry->request.limits;
  // Deterministic mode pins the full-check cadence to every poll, so the
  // candidate count at which a degradation or preemption lands -- and
  // hence the whole trace -- is a pure function of the workload and seed.
  if (options_.deterministic) limits.poll_stride = 1;
  entry->governor = std::make_shared<Governor>(limits);
  entry->governor->set_pressure_hook([this] { PressureCheck(); });
  TraceLocked("START id=" + entry->request.id +
              " attempt=" + std::to_string(entry->attempts));
}

void Scheduler::DispatchLocked(std::unique_lock<std::mutex>& lock) {
  (void)lock;  // held by contract; Post itself never re-enters mu_
  while (running_.size() < options_.workers) {
    Entry* entry = NextRunnableLocked();
    if (entry == nullptr) break;
    StartAttemptLocked(entry);
    pool_->Post([this, entry] { FinishAttempt(entry, ExecuteAttempt(entry)); });
  }
}

Scheduler::AttemptEnd Scheduler::ExecuteAttempt(Entry* entry) {
  // Runs without the scheduler lock: parsing and evaluation are the long
  // pole, and the pressure hook re-enters the scheduler from this thread.
  AttemptEnd end;
  if (FaultInjector::Global().ShouldFail(FaultSite::kScheduler)) {
    end.status = OverloadedError(
        "scheduler dispatch fault (fault injection); transient");
    end.sched_fault = true;
    return end;
  }
  Universe universe;
  auto unit = ParseUnit(&universe, entry->request.source);
  if (!unit.ok()) {
    end.status = unit.status();
    return end;
  }
  // Durable state, when the scheduler has a data dir. Each attempt re-opens
  // the query's directory and recovers from disk -- the only channel
  // between attempts -- so a retry after a preemption, a storage fault, or
  // a whole-process crash takes the identical path. Re-parsing into a fresh
  // universe deterministically reproduces the symbol numbering of the
  // original attempt, which is what makes a resumed run's WriteFacts output
  // byte-identical to an uninterrupted one. The directory is named by the
  // id but keyed by the source: an id re-submitted with another program
  // (a reused wire id, or a restart fed different queries) must not be
  // answered from the old program's state.
  std::optional<storage::QueryDurability> durable;
  std::optional<storage::RecoveredRun> recovered;
  if (!options_.data_dir.empty()) {
    durable.emplace(storage::QueryDurability::Open(
        options_.data_dir + "/" + QueryDirName(entry->request.id),
        options_.durability, storage::SourceDigest(entry->request.source)));
    if (!durable->active()) {
      end.storage_warning = durable->warning().message();
      durable.reset();
    }
  }
  if (durable.has_value()) {
    std::shared_ptr<const Schema> schema(std::shared_ptr<const Schema>(),
                                         &unit->schema);
    std::shared_ptr<const Schema> out_schema = schema;
    if (!unit->output_names.empty()) {
      auto projected = unit->schema.Project(unit->output_names);
      if (!projected.ok()) {
        end.status = projected.status();
        return end;
      }
      out_schema =
          std::make_shared<const Schema>(std::move(*projected));
    }
    auto rec = durable->Recover(schema, out_schema, &universe);
    if (rec.ok()) {
      recovered = std::move(*rec);
    } else if (rec.status().code() == StatusCode::kUnavailable) {
      // Transient IO failure while recovering: retry with backoff rather
      // than discarding the persisted prefix.
      end.status = rec.status();
      return end;
    } else {
      // Unusable persisted state (corrupt beyond the torn tail the WAL
      // tolerates, or written by another schema or program): start the run
      // over -- BeginRun below rewrites the directory -- instead of
      // failing the query.
      end.storage_warning = rec.status().message();
    }
  }
  if (recovered.has_value() && recovered->complete) {
    // A finished run's output: serve it without evaluating.
    end.status = Status::Ok();
    end.facts = WriteFacts(recovered->instance);
    end.resumed = true;
    return end;
  }
  Instance input(&unit->schema, &universe);
  bool resuming = recovered.has_value();
  if (resuming) {
    input = std::move(recovered->instance);
    end.resumed = true;
    end.resume_stage = recovered->resume_stage;
    end.resume_step = recovered->resume_step;
  } else {
    end.status = ApplyFacts(*unit, &input);
    if (!end.status.ok()) return end;
    if (durable.has_value()) {
      Status begun = durable->BeginRun(input);
      if (!begun.ok()) {
        end.status = begun;  // kUnavailable: transient, retried
        return end;
      }
    }
  }
  EvalOptions options = entry->request.eval;
  options.governor = entry->governor.get();
  options.cancel = nullptr;
  options.metrics = nullptr;
  options.trace = nullptr;
  options.durability = {};
  if (durable.has_value()) {
    options.durability.sink = &*durable;
    if (resuming) {
      options.durability.resume = true;
      options.durability.resume_stage = recovered->resume_stage;
      options.durability.resume_step = recovered->resume_step;
    }
  }
  std::optional<Instance> partial;
  options.partial = &partial;
  auto result = RunUnit(&universe, &*unit, input, options, &end.stats);
  if (result.ok()) {
    end.facts = WriteFacts(*result);
    if (durable.has_value()) {
      Status s = durable->Finalize(*result);
      // The answer is already in hand; a failed finalize only costs the
      // next restart a re-evaluation, so record it and serve the result.
      if (!s.ok()) end.storage_warning = s.message();
    }
  } else {
    end.status = result.status();
    if (partial.has_value()) {
      end.facts = WriteFacts(*partial);
      if (durable.has_value()) {
        // Checkpoint-on-trip: rewrite the log with the rollback partial as
        // its base so the retry (or a later re-submission) replays nothing.
        Status s = durable->Checkpoint(*partial);
        if (!s.ok()) end.storage_warning = s.message();
      }
    }
  }
  return end;
}

void Scheduler::FinishAttempt(Entry* entry, AttemptEnd end) {
  std::unique_lock<std::mutex> lock(mu_);
  running_.erase(entry->ticket);
  TripReason trip = end.stats.trip;
  Governor* governor = entry->governor.get();
  bool injected_alloc =
      governor != nullptr && governor->accountant()->injected_failure();
  // Transient causes retry; organic trips at the query's own ceilings do
  // not (re-running would hit the same wall). A memory trip is transient
  // exactly when the scheduler caused it (tightened limit) or the fault
  // injector did (the pressure that "eased" is synthetic). A kUnavailable
  // status is durable storage failing out from under the run (torn write,
  // failed fsync, unreadable dir): the retry recovers from the persisted
  // prefix and resumes, so it is transient by construction.
  // A kNetworkError is likewise environmental, not the query's fault
  // (an injected or real wire failure while an attempt touched a remote
  // resource); the retry runs against a healthy connection.
  bool transient =
      end.sched_fault || trip == TripReason::kFault ||
      trip == TripReason::kPreempted ||
      end.status.code() == StatusCode::kUnavailable ||
      end.status.code() == StatusCode::kNetworkError ||
      (trip == TripReason::kMemory &&
       ((governor != nullptr && governor->tightened()) || injected_alloc));
  // A cancelled query never retries (the caller asked it to stop), and a
  // draining scheduler never retries (every attempt's end is terminal so
  // shutdown converges).
  if (entry->cancel_requested || draining_) transient = false;
  if (entry->degraded || entry->preempted) entry->ever_intervened = true;
  entry->governor.reset();
  if (!end.storage_warning.empty()) {
    TraceLocked("STORAGE id=" + entry->request.id + " warn=\"" +
                end.storage_warning + "\"");
  }
  if (end.resumed) {
    TraceLocked("RESUME id=" + entry->request.id +
                " stage=" + std::to_string(end.resume_stage) +
                " step=" + std::to_string(end.resume_step) +
                " attempt=" + std::to_string(entry->attempts));
  }
  if (end.sched_fault) {
    TraceLocked("FAULT id=" + entry->request.id +
                " attempt=" + std::to_string(entry->attempts));
  } else if (trip != TripReason::kNone) {
    TraceLocked("TRIP id=" + entry->request.id + " reason=" +
                TripReasonName(trip) +
                " attempt=" + std::to_string(entry->attempts));
  }
  if (transient && entry->attempts <= options_.max_retries) {
    ++counters_.retries;
    // Jittered exponential backoff: base * 2^(attempt-1) * [0.5, 1.5),
    // reproducible in (seed, ticket, attempt).
    int exponent = std::min(entry->attempts - 1, 20);
    double u = static_cast<double>(
                   Mix64(options_.seed ^ (entry->ticket << 20) ^
                         static_cast<uint64_t>(entry->attempts)) >>
                   11) *
               0x1.0p-53;
    double backoff = options_.retry_base_seconds *
                     static_cast<double>(uint64_t{1} << exponent) * (0.5 + u);
    uint64_t delay =
        std::max<uint64_t>(1, static_cast<uint64_t>(backoff * 1000.0));
    entry->eligible_tick = NowTicksLocked() + delay;
    EnqueueLocked(entry);
    TraceLocked("RETRY id=" + entry->request.id +
                " attempt=" + std::to_string(entry->attempts + 1) +
                " eligible=T" + std::to_string(entry->eligible_tick));
    // A new backoff may be earlier than the one the timekeeper sleeps on.
    retry_cv_.notify_all();
  } else {
    entry->state = State::kDone;
    --class_load_[static_cast<int>(entry->request.cls)];
    QueryResult& result = entry->result;
    result.status = end.status;
    result.facts = std::move(end.facts);
    result.stats = end.stats;
    result.attempts = entry->attempts;
    result.preempted = entry->ever_intervened;
    result.resumed = end.resumed;
    result.resume_stage = end.resume_stage;
    result.resume_step = end.resume_step;
    result.storage_warning = std::move(end.storage_warning);
    result.submit_tick = entry->submit_tick;
    result.finish_tick = NowTicksLocked();
    if (end.status.ok()) {
      // A completion that raced a cancel still counts as completed: the
      // answer is in hand and already checkpointed/finalized.
      result.outcome = QueryOutcome::kCompleted;
      ++counters_.completed;
      TraceLocked("COMPLETE id=" + entry->request.id +
                  " attempts=" + std::to_string(entry->attempts));
    } else if (entry->cancel_requested) {
      result.outcome = QueryOutcome::kCancelled;
      result.status = CancelledError(entry->cancel_reason.empty()
                                         ? "query cancelled"
                                         : entry->cancel_reason);
      ++counters_.cancelled;
      TraceLocked("CANCELLED id=" + entry->request.id +
                  " attempts=" + std::to_string(entry->attempts));
    } else if (trip != TripReason::kNone) {
      result.outcome = QueryOutcome::kTrippedPartial;
      ++counters_.tripped_partial;
      TraceLocked("PARTIAL id=" + entry->request.id + " reason=" +
                  TripReasonName(trip) +
                  " attempts=" + std::to_string(entry->attempts));
    } else {
      result.outcome = QueryOutcome::kFailed;
      ++counters_.failed;
      TraceLocked("FAIL id=" + entry->request.id + " status=" +
                  std::string(StatusCodeName(end.status.code())));
    }
    OnTerminalLocked(entry);  // may retire `entry`
  }
  if (!options_.deterministic) DispatchLocked(lock);
  cv_.notify_all();
}

void Scheduler::PressureCheck() {
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.global_memory_budget == 0) return;
  uint64_t used = 0;
  for (const auto& [ticket, entry] : running_) {
    if (entry->governor != nullptr) {
      used += entry->governor->accountant()->bytes();
    }
  }
  if (used + queued_reserve_ <= options_.global_memory_budget) return;
  // One intervention per check: the hook fires every full poll, so the
  // loop converges a victim at a time without thrashing. First choice is
  // the runner furthest above its reservation (degrade it back to what it
  // was promised); if every runner is within its promise the backlog is
  // over-admitted and the least valuable runner is shed outright.
  Entry* degrade_victim = nullptr;
  uint64_t worst_overage = 0;
  Entry* shed_victim = nullptr;
  for (auto& [ticket, entry] : running_) {
    if (entry->governor == nullptr || entry->degraded || entry->preempted) {
      continue;
    }
    uint64_t bytes = entry->governor->accountant()->bytes();
    // Largest overage wins. running_ is walked in ticket order and only a
    // strictly larger overage displaces the victim, so the oldest ticket
    // wins a tie.
    if (bytes > entry->reserve_bytes &&
        (degrade_victim == nullptr ||
         bytes - entry->reserve_bytes > worst_overage)) {
      degrade_victim = entry;
      worst_overage = bytes - entry->reserve_bytes;
    }
    if (shed_victim == nullptr) {
      shed_victim = entry;
    } else {
      // Batch before interactive, low priority first, biggest user first,
      // youngest ticket first: shed the least valuable work.
      auto key = [](const Entry* e, uint64_t b) {
        return std::make_tuple(
            e->request.cls == QueryClass::kInteractive ? 1 : 0,
            e->request.priority, -static_cast<int64_t>(b),
            -static_cast<int64_t>(e->ticket));
      };
      uint64_t shed_bytes = shed_victim->governor->accountant()->bytes();
      if (key(entry, bytes) < key(shed_victim, shed_bytes)) {
        shed_victim = entry;
      }
    }
  }
  if (degrade_victim != nullptr) {
    degrade_victim->degraded = true;
    ++counters_.degradations;
    uint64_t target = std::max<uint64_t>(degrade_victim->reserve_bytes, 1);
    degrade_victim->governor->TightenMemory(target);
    TraceLocked("DEGRADE id=" + degrade_victim->request.id +
                " memory=" + std::to_string(target));
  } else if (shed_victim != nullptr) {
    shed_victim->preempted = true;
    ++counters_.preemptions;
    shed_victim->governor->Preempt();
    TraceLocked("PREEMPT id=" + shed_victim->request.id);
  }
}

void Scheduler::RunUntilIdle() {
  if (!options_.deterministic) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return IdleLocked(); });
    return;
  }
  // Deterministic driver: serial execution on this thread, virtual time.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Entry* entry = NextRunnableLocked();
    if (entry == nullptr) {
      uint64_t next = EarliestEligibleLocked();
      if (next == kNoTick) return;  // no queued work left
      virtual_now_ = std::max(virtual_now_, next);  // sleep is a tick jump
      continue;
    }
    StartAttemptLocked(entry);
    lock.unlock();
    AttemptEnd end = ExecuteAttempt(entry);
    lock.lock();
    ++virtual_now_;  // every attempt costs one virtual millisecond
    lock.unlock();
    FinishAttempt(entry, std::move(end));
    lock.lock();
  }
}

QueryResult Scheduler::Wait(uint64_t ticket) {
  if (options_.deterministic) RunUntilIdle();
  std::unique_lock<std::mutex> lock(mu_);
  // Re-looked-up on every wake: the ticket is only valid while live.
  Entry* entry = nullptr;
  cv_.wait(lock, [&] {
    auto it = entries_.find(ticket);
    entry = it == entries_.end() ? nullptr : it->second.get();
    return entry == nullptr || entry->state == State::kDone;
  });
  if (entry == nullptr) {
    QueryResult missing;
    missing.outcome = QueryOutcome::kFailed;
    missing.status = NotFoundError("unknown ticket " + std::to_string(ticket));
    return missing;
  }
  return CollectLocked(entry);
}

std::optional<QueryResult> Scheduler::TryWait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end() || it->second->state != State::kDone) {
    return std::nullopt;
  }
  return CollectLocked(it->second.get());
}

void Scheduler::CancelQueuedLocked(Entry* entry, const std::string& reason) {
  DequeueLocked(entry);
  entry->state = State::kDone;
  --class_load_[static_cast<int>(entry->request.cls)];
  QueryResult& result = entry->result;
  result.outcome = QueryOutcome::kCancelled;
  result.status = CancelledError(reason);
  result.attempts = entry->attempts;
  result.submit_tick = entry->submit_tick;
  result.finish_tick = NowTicksLocked();
  ++counters_.cancelled;
  TraceLocked("CANCELLED id=" + entry->request.id + " queued");
  OnTerminalLocked(entry);  // may retire `entry`
}

bool Scheduler::CancelLocked(Entry* entry, const std::string& reason) {
  switch (entry->state) {
    case State::kDone:
      return false;
    case State::kQueued:
      CancelQueuedLocked(entry, reason);
      cv_.notify_all();
      return true;
    case State::kRunning:
      // The preemption trip surfaces at the victim's next poll;
      // FinishAttempt sees cancel_requested and lands it terminal (its
      // rollback partial checkpoints when durable storage is attached).
      entry->cancel_requested = true;
      entry->cancel_reason = reason;
      TraceLocked("CANCEL id=" + entry->request.id + " running");
      if (entry->governor != nullptr) entry->governor->Preempt();
      return true;
  }
  return false;
}

bool Scheduler::Cancel(uint64_t ticket, const std::string& reason) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return false;
  return CancelLocked(it->second.get(), reason);
}

void Scheduler::Abandon(uint64_t ticket, const std::string& reason) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(ticket);
  if (it == entries_.end()) return;
  Entry* entry = it->second.get();
  entry->abandoned = true;
  entry->on_terminal = nullptr;
  if (entry->state == State::kDone) {
    RetireLocked(entry);
    return;
  }
  CancelLocked(entry, reason);  // a queued entry retires right here
}

void Scheduler::BeginDrain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) return;
  draining_ = true;
  TraceLocked("DRAIN begin");
}

void Scheduler::PreemptAll(const std::string& reason) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry* entry = (it++)->second.get();  // cancelling may retire it
    if (entry->state == State::kQueued) {
      CancelQueuedLocked(entry, reason);
    } else if (entry->state == State::kRunning) {
      entry->cancel_requested = true;
      entry->cancel_reason = reason;
      if (entry->governor != nullptr) entry->governor->Preempt();
    }
  }
  TraceLocked("DRAIN preempt-all");
  cv_.notify_all();
}

bool Scheduler::draining() const {
  std::unique_lock<std::mutex> lock(mu_);
  return draining_;
}

Scheduler::Counters Scheduler::counters() const {
  std::unique_lock<std::mutex> lock(mu_);
  Counters counters = counters_;
  counters.live = entries_.size();
  return counters;
}

uint64_t Scheduler::now_ticks() const {
  std::unique_lock<std::mutex> lock(mu_);
  return NowTicksLocked();
}

void Scheduler::TimekeeperLoop() {
  // Only backoffs need a clock: fresh admissions dispatch from Submit, and
  // a ready entry waiting for a worker dispatches from FinishAttempt.
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    DispatchLocked(lock);  // promotes expired backoffs first
    uint64_t next = EarliestEligibleLocked();
    if (next == kNoTick) {
      retry_cv_.wait(lock);
    } else {
      uint64_t now = NowTicksLocked();
      uint64_t wait_ms = next > now ? next - now : 1;
      retry_cv_.wait_for(lock, std::chrono::milliseconds(wait_ms));
    }
  }
}

}  // namespace server
}  // namespace iqlkit
