#ifndef IQLKIT_SERVER_SESSION_H_
#define IQLKIT_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "server/scheduler.h"
#include "server/wire.h"

namespace iqlkit {
namespace server {

// Tuning knobs for one client session. Timeouts are measured on the
// session's clock (wall milliseconds in the real server, virtual ticks in
// the deterministic simulation), so the same state machine is testable
// under both.
struct SessionOptions {
  // Close the session when no inbound frame completes for this long. A
  // client that is merely waiting on results keeps the session alive with
  // HELLO {"ping":true} heartbeats.
  uint64_t idle_timeout_ms = 30000;
  // A frame whose first bytes arrived but whose tail does not complete
  // within this window is torn (a stalled or half-dead sender).
  uint64_t read_timeout_ms = 5000;
  // Budget for a stalled outbound frame (slow client not draining its
  // socket). Once exceeded, the session closes and abandons its queries.
  uint64_t write_timeout_ms = 5000;
  // Advisory heartbeat cadence, reported to the client in the HELLO ack.
  uint64_t heartbeat_interval_ms = 10000;
  // Per-session in-flight query quota, layered *under* the scheduler's
  // class quotas: the session rejects excess QUERY frames locally (ERROR
  // OVERLOAD) without spending scheduler admission capacity.
  size_t max_inflight = 4;
  // Fact lines per PAGE frame. The client requests pages one at a time
  // (PAGE {"id","want"}), so this bounds both frame size and the burst a
  // slow client must absorb.
  size_t page_rows = 64;
};

// Why a session ended. Exactly one reason is set when Pump() starts
// returning false.
enum class SessionClose : uint8_t {
  kOpen = 0,        // still running
  kPeerClosed,      // clean EOF or reset from the client
  kIdleTimeout,     // no inbound frame within idle_timeout_ms
  kReadTimeout,     // torn frame: partial bytes, no tail
  kWriteTimeout,    // slow client: outbound frame stalled past budget
  kProtocolError,   // bad handshake, CRC mismatch, malformed frame
  kDrained,         // drain completed: every query delivered, DRAIN sent
  kForced,          // server shutdown closed the stream under the session
};
const char* SessionCloseName(SessionClose reason);

struct SessionCounters {
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t heartbeats = 0;
  uint64_t queries_accepted = 0;  // admitted into the scheduler
  uint64_t queries_rejected = 0;  // structured reject (quota/backlog/drain)
  uint64_t pages_sent = 0;
  // Terminal deliveries: the final PAGE for the query reached the wire.
  uint64_t delivered_completed = 0;
  uint64_t delivered_tripped = 0;
  uint64_t delivered_cancelled = 0;
  uint64_t delivered_failed = 0;
  // Accepted queries whose session died before the final PAGE; each was
  // cancelled in the scheduler, so it still reached a terminal state there.
  uint64_t abandoned = 0;
};

// Serialized trace sink shared by every session of one serve loop (and
// the loop itself). In the deterministic simulation all writers run on
// one thread, so lines interleave reproducibly.
class TraceSink {
 public:
  explicit TraceSink(std::ostream* out) : out_(out) {}
  void Line(uint64_t tick, const std::string& text);
  bool enabled() const { return out_ != nullptr; }

 private:
  std::mutex mu_;
  std::ostream* out_;
};

// The scheduler-to-session wake-up channel. The scheduler's terminal
// callback records the finished ticket here and, when the waker has a
// descriptor (an eventfd in the TCP server), makes it readable so the
// connection thread leaves poll(). The serve loop also pokes it on drain
// and force-close. Shared between the session and the callbacks of its
// in-flight tickets, so it outlives a session destroyed mid-query.
class SessionWaker {
 public:
  // Takes ownership of `fd` (closed on destruction); -1 for none.
  explicit SessionWaker(int fd = -1) : fd_(fd) {}
  ~SessionWaker();
  SessionWaker(const SessionWaker&) = delete;
  SessionWaker& operator=(const SessionWaker&) = delete;

  // Any thread: `ticket` went terminal.
  void Signal(uint64_t ticket);
  // Any thread: wake the poller without a ticket (drain, force-close).
  void Wake();
  // The owning session: every ticket signalled since the last Take.
  std::vector<uint64_t> Take();
  // The poller: consume the descriptor's readiness. Call before Pump, so a
  // Signal that lands after Take re-arms the descriptor.
  void ClearFd();
  int fd() const { return fd_; }

 private:
  const int fd_;
  std::mutex mu_;
  std::vector<uint64_t> tickets_;
};

// One client connection: HELLO handshake, QUERY admission against the
// shared scheduler, client-paced PAGE streaming, CANCEL, heartbeats,
// timeouts, and drain. The session owns no thread; the caller pumps it
// (a per-connection thread in the real server, the step loop in the
// deterministic simulation).
//
//   state:  AwaitHello --HELLO--> Ready --drain--> Draining --> Closed
//
// Every QUERY a session accepts reaches exactly one terminal frame on
// the wire -- a final PAGE (done:true, outcome) or a structured ERROR --
// unless the connection dies first, in which case the query is cancelled
// in the scheduler (a terminal state there) and counted `abandoned`.
class Session {
 public:
  // `waker` defaults to one without a descriptor: the caller pumps on its
  // own schedule (the deterministic simulation, tests).
  Session(uint64_t id, ByteStream* stream, Scheduler* scheduler,
          const SessionOptions& options, TraceSink* trace,
          std::shared_ptr<SessionWaker> waker = nullptr);

  // Advances the protocol as far as it can without blocking: consumes
  // available inbound bytes, handles complete frames, polls finished
  // queries, flushes outbound pages, applies timeouts. Returns true while
  // the session remains open.
  bool Pump(uint64_t now_ms);

  // Asks the session to drain (thread-safe; honored at the next Pump):
  // send DRAIN, reject further QUERY frames, close once every in-flight
  // query is delivered.
  void RequestDrain() { drain_requested_.store(true); }

  // Hard stop (server shutdown past the grace window): cancels and
  // abandons in-flight queries and closes the stream.
  void ForceClose(uint64_t now_ms);

  // The earliest clock value at which a Pump would close the session on
  // a timeout: the idle deadline, and the read or write deadline while a
  // torn inbound frame or a stalled outbound one is pending. A poller
  // needs no timer beyond it.
  uint64_t NextDeadlineMs() const;
  // Outbound frames are queued behind a stalled write; the poller should
  // wake when the socket drains.
  bool wants_write() const { return !outbox_.empty(); }

  bool open() const { return close_reason_ == SessionClose::kOpen; }
  SessionClose close_reason() const { return close_reason_; }
  const SessionCounters& counters() const { return counters_; }
  size_t live_queries() const { return queries_.size(); }
  uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }

 private:
  enum class State : uint8_t { kAwaitHello, kReady, kDraining };

  struct LiveQuery {
    uint64_t ticket = 0;
    std::string wire_id;           // client-chosen id (frame field)
    bool result_ready = false;
    QueryResult result;
    std::vector<std::string> pages;  // materialized page payloads
    int64_t next_seq = 0;            // next page index to send
    int64_t pending_want = -1;       // client-requested page, -1 = none
    bool push_terminal = false;      // cancel/drain: push final page unasked
    bool terminal_sent = false;      // final page enqueued; ignore credits
  };

  // One encoded frame awaiting the wire. A non-empty done_id marks the
  // terminal PAGE of that query: delivery is only counted -- and the query
  // only retired -- when the frame actually reaches the stream, so a
  // session that dies with the frame still queued abandons (and cancels)
  // the query instead of reporting it delivered.
  struct Outgoing {
    std::string bytes;
    std::string done_id;
    QueryOutcome outcome = QueryOutcome::kFailed;
  };

  void Trace(uint64_t now_ms, const std::string& text);
  void HandleFrame(uint64_t now_ms, const Frame& frame);
  void HandleHello(uint64_t now_ms, const Frame& frame);
  void HandleQuery(uint64_t now_ms, const Frame& frame);
  void HandlePage(uint64_t now_ms, const Frame& frame);
  void HandleCancel(uint64_t now_ms, const Frame& frame);
  void PollQueries(uint64_t now_ms);
  void EmitPages(uint64_t now_ms);
  void SendFrame(uint64_t now_ms, const Frame& frame);
  void SendError(uint64_t now_ms, const Status& status,
                 const std::string& query_id);
  void FlushOutbox(uint64_t now_ms);
  void Close(uint64_t now_ms, SessionClose reason);
  void AbandonLiveQueries();

  const uint64_t id_;
  ByteStream* stream_;
  Scheduler* scheduler_;
  SessionOptions options_;
  TraceSink* trace_;
  std::shared_ptr<SessionWaker> waker_;

  State state_ = State::kAwaitHello;
  SessionClose close_reason_ = SessionClose::kOpen;
  std::atomic<bool> drain_requested_{false};
  bool drain_sent_ = false;
  std::string tenant_;

  FrameDecoder decoder_;
  std::deque<Outgoing> outbox_;
  bool started_ = false;            // first Pump initializes the clocks
  uint64_t last_inbound_ms_ = 0;    // last completed inbound frame
  uint64_t partial_since_ms_ = 0;   // first byte of the pending frame
  bool partial_pending_ = false;
  uint64_t stall_since_ms_ = 0;     // first stalled outbound write
  bool stalled_ = false;

  std::map<std::string, LiveQuery> queries_;  // by wire id
  SessionCounters counters_;
};

}  // namespace server
}  // namespace iqlkit

#endif  // IQLKIT_SERVER_SESSION_H_
