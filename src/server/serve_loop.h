#ifndef IQLKIT_SERVER_SERVE_LOOP_H_
#define IQLKIT_SERVER_SERVE_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "server/session.h"
#include "server/wire.h"

namespace iqlkit {
namespace server {

// Serving knobs shared by the real TCP server and the deterministic
// simulation.
struct ServeOptions {
  SessionOptions session;
  // Concurrent-connection ceiling; accepts beyond it are refused (the
  // socket is closed before HELLO, exactly like an injected refusal).
  size_t max_sessions = 64;
  // Graceful-drain grace window: after this long, running queries are
  // preempted (their partials checkpoint via the durability path) and,
  // after a second window, surviving connections are force-closed.
  uint64_t drain_grace_ms = 2000;
  // Event log (ACCEPT/REFUSE/session lifecycle); sessions share it.
  std::ostream* trace = nullptr;
};

// Aggregated serving outcome, stable whether the sessions ran on threads
// over TCP or single-threaded in simulation.
struct ServeStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_refused = 0;  // injected refusal or max_sessions
  SessionCounters totals;         // summed over every closed session
  std::map<std::string, uint64_t> close_reasons;  // SessionCloseName -> n
};

// ---- real server -----------------------------------------------------------

// A ByteStream over a nonblocking TCP socket. Write() accepts whole
// frames: bytes the kernel will not take yet are stashed (at most one
// frame's tail) and drained by Flush(); a Write while a tail is pending
// reports a stall without consuming anything, so the caller's retry
// cannot duplicate bytes.
class FdStream : public ByteStream {
 public:
  explicit FdStream(int fd) : fd_(fd) {}
  ~FdStream() override { Close(); }

  Result<size_t> Read(std::string* out, size_t max_bytes) override;
  Status Write(std::string_view bytes) override;
  Status Flush() override;
  void Close() override;
  bool closed() const override { return closed_; }
  // A frame tail is stashed: the poller should wake on writability.
  bool has_pending() const { return !pending_.empty(); }

 private:
  int fd_;
  bool closed_ = false;
  std::string pending_;  // unsent tail of the last accepted frame
};

// The TCP serve loop: accept connections, run one Session per connection
// on its own thread, drain gracefully on request. A connection thread
// sleeps in poll() on its socket and its session's wake descriptor
// (written when one of the session's queries goes terminal, and on drain
// and force-close), with the session's nearest timeout as the only timer.
//
//   Listen(port)  -- bind + listen; port 0 binds an ephemeral port and
//                    the bound port is returned (and printed by iqlserve)
//   Serve()       -- blocks: accepts until RequestDrain(), then runs the
//                    drain state machine (stop accepting -> grace ->
//                    PreemptAll -> grace -> force close) and joins
//   RequestDrain()-- async-signal-safe (one atomic store); SIGTERM calls
//                    this from the handler
//
// Every accepted query reaches exactly one terminal state: delivered on
// the wire, or abandoned-and-cancelled in the scheduler.
class TcpServer {
 public:
  TcpServer(Scheduler* scheduler, const ServeOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 127.0.0.1:<port> (0 = ephemeral) and listens. Returns the
  // bound port.
  Result<uint16_t> Listen(uint16_t port);

  // Accept/serve until a drain completes. Returns aggregate stats.
  ServeStats Serve();

  void RequestDrain() { drain_requested_.store(true); }
  uint16_t port() const { return port_; }

 private:
  void ConnectionLoop(int fd, uint64_t session_id,
                      std::shared_ptr<SessionWaker> waker);
  void WakeAllSessions();
  uint64_t NowMs() const;

  Scheduler* scheduler_;
  ServeOptions options_;
  TraceSink trace_;
  std::chrono::steady_clock::time_point start_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> force_close_{false};
  std::atomic<size_t> live_sessions_{0};

  std::mutex mu_;  // guards threads_, wakers_ and stats_
  std::vector<std::thread> threads_;
  std::map<uint64_t, std::shared_ptr<SessionWaker>> wakers_;  // live sessions
  ServeStats stats_;
};

// ---- deterministic simulation ----------------------------------------------

// One scripted query of a simulated client.
struct SimQuery {
  uint64_t at_ms = 0;  // submit once the virtual clock reaches this
  std::string id;      // wire id (unique per client)
  std::string source;  // IQL source unit
  std::string cls = "batch";
  int64_t priority = 0;
  uint64_t cancel_at_ms = 0;  // 0 = never send CANCEL
};

// One simulated in-process client: connects at t=0, HELLOs, submits its
// scripted queries, requests pages one at a time, heartbeats, and records
// what came back.
struct SimClientSpec {
  std::string tenant;
  std::vector<SimQuery> queries;
  uint64_t disconnect_at_ms = 0;  // 0 = stay until drained/finished
};

// What one simulated client observed.
struct SimClientReport {
  bool refused = false;  // injected refusal: never connected
  bool drained = false;  // saw a DRAIN frame
  uint64_t pages = 0;
  // wire id -> terminal observation: "outcome:<name>" from a final PAGE,
  // or "error:<CODE>" from a structured ERROR frame. A query missing here
  // never reached the client (its session died first).
  std::map<std::string, std::string> terminal;
  // wire id -> concatenated PAGE data fields (the full fact listing once
  // the query is terminal; byte-identical to a standalone evaluation).
  std::map<std::string, std::string> data;
};

// Runs scripted clients against in-process sessions on one thread with a
// virtual millisecond clock: step clients, pump sessions, run the
// scheduler until idle, advance 1ms. With a deterministic scheduler and a
// seeded fault injector the interleaving -- and therefore every trace
// line and frame byte -- is a pure function of (specs, seed).
//
// `drain_at_ms` > 0 triggers the graceful-drain path at that instant
// (BeginDrain + DRAIN frames + PreemptAll of still-queued work).
struct SimOutcome {
  ServeStats stats;
  std::vector<SimClientReport> clients;
};
SimOutcome ServeSimulated(Scheduler* scheduler, const ServeOptions& options,
                          const std::vector<SimClientSpec>& specs,
                          uint64_t drain_at_ms, uint64_t max_ms);

}  // namespace server
}  // namespace iqlkit

#endif  // IQLKIT_SERVER_SERVE_LOOP_H_
