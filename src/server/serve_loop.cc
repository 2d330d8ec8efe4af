#include "server/serve_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

#include "base/fault_injection.h"

namespace iqlkit {
namespace server {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void RecordClose(ServeStats* stats, const Session& session) {
  const SessionCounters& c = session.counters();
  SessionCounters& t = stats->totals;
  t.frames_in += c.frames_in;
  t.frames_out += c.frames_out;
  t.heartbeats += c.heartbeats;
  t.queries_accepted += c.queries_accepted;
  t.queries_rejected += c.queries_rejected;
  t.pages_sent += c.pages_sent;
  t.delivered_completed += c.delivered_completed;
  t.delivered_tripped += c.delivered_tripped;
  t.delivered_cancelled += c.delivered_cancelled;
  t.delivered_failed += c.delivered_failed;
  t.abandoned += c.abandoned;
  ++stats->close_reasons[SessionCloseName(session.close_reason())];
}

}  // namespace

// ---- FdStream --------------------------------------------------------------

Result<size_t> FdStream::Read(std::string* out, size_t max_bytes) {
  if (closed_) return size_t{0};
  char buf[16 * 1024];
  size_t total = 0;
  while (total < max_bytes) {
    size_t want = max_bytes - total;
    if (want > sizeof(buf)) want = sizeof(buf);
    ssize_t n = recv(fd_, buf, want, 0);
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      closed_ = true;  // clean EOF from the peer
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closed_ = true;
    return NetworkError(Errno("recv failed"));
  }
  return total;
}

Status FdStream::Write(std::string_view bytes) {
  if (closed_) return NetworkError("connection is closed");
  Status flushed = Flush();
  if (!flushed.ok()) return flushed;
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Accept the tail: it is queued here and drained by Flush(), so the
      // caller never retries (and never duplicates) a partially-sent frame.
      pending_.assign(bytes.substr(off));
      return Status::Ok();
    }
    if (n < 0 && errno == EINTR) continue;
    closed_ = true;
    return NetworkError(Errno("send failed"));
  }
  return Status::Ok();
}

Status FdStream::Flush() {
  while (!pending_.empty()) {
    ssize_t n = send(fd_, pending_.data(), pending_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      pending_.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return NetworkError("write stall: socket buffer full (" +
                          std::to_string(pending_.size()) +
                          " bytes pending)");
    }
    if (n < 0 && errno == EINTR) continue;
    closed_ = true;
    return NetworkError(Errno("send failed"));
  }
  return Status::Ok();
}

void FdStream::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
}

// ---- TcpServer -------------------------------------------------------------

TcpServer::TcpServer(Scheduler* scheduler, const ServeOptions& options)
    : scheduler_(scheduler),
      options_(options),
      trace_(options.trace),
      start_(std::chrono::steady_clock::now()) {}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

uint64_t TcpServer::NowMs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

Result<uint16_t> TcpServer::Listen(uint16_t port) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return NetworkError(Errno("socket failed"));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return NetworkError(Errno("bind failed"));
  }
  if (listen(listen_fd_, 64) != 0) {
    return NetworkError(Errno("listen failed"));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return NetworkError(Errno("getsockname failed"));
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);
  return port_;
}

void TcpServer::ConnectionLoop(int fd, uint64_t session_id,
                               std::shared_ptr<SessionWaker> waker) {
  SetNonBlocking(fd);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  FdStream raw(fd);
  FaultyStream stream(&raw);
  Session session(session_id, &stream, scheduler_, options_.session, &trace_,
                  waker);
  for (;;) {
    uint64_t now = NowMs();
    if (force_close_.load()) session.ForceClose(now);
    if (drain_requested_.load()) session.RequestDrain();
    if (!session.Pump(now)) break;
    // Sleep until inbound bytes, writability (while output is stalled), a
    // wake-up (a query went terminal, drain, force-close), or the
    // session's next timeout -- whichever comes first.
    pollfd pfds[2] = {};
    pfds[0].fd = fd;
    pfds[0].events = POLLIN;
    if (session.wants_write() || raw.has_pending()) pfds[0].events |= POLLOUT;
    pfds[1].fd = waker->fd();
    pfds[1].events = POLLIN;
    uint64_t deadline = session.NextDeadlineMs();
    now = NowMs();
    int timeout = deadline <= now ? 0
                                  : static_cast<int>(std::min<uint64_t>(
                                        deadline - now, INT_MAX));
    poll(pfds, 2, timeout);
    if (pfds[1].revents & POLLIN) waker->ClearFd();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    RecordClose(&stats_, session);
    wakers_.erase(session_id);
  }
  live_sessions_.fetch_sub(1);
}

void TcpServer::WakeAllSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, waker] : wakers_) waker->Wake();
}

ServeStats TcpServer::Serve() {
  uint64_t next_session_id = 1;
  while (!drain_requested_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int ready = poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Refusal: injected (FaultSite::kNetwork drawn at the accept site,
    // like every other refused-accept a client might see) or the
    // connection ceiling.
    bool refused = FaultInjector::Global().ShouldFail(FaultSite::kNetwork);
    const char* why = refused ? "injected" : "max-sessions";
    if (!refused && live_sessions_.load() >= options_.max_sessions) {
      refused = true;
    }
    int wake_fd = -1;
    if (!refused) {
      wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (wake_fd < 0) {
        refused = true;  // a session nothing can wake would hang
        why = "no-wake-fd";
      }
    }
    if (refused) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.sessions_refused;
      trace_.Line(NowMs(), "REFUSE reason=" + std::string(why));
      continue;
    }
    uint64_t id = next_session_id++;
    auto waker = std::make_shared<SessionWaker>(wake_fd);
    live_sessions_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.sessions_accepted;
    wakers_.emplace(id, waker);
    threads_.emplace_back(
        [this, fd, id, waker] { ConnectionLoop(fd, id, waker); });
  }

  // Drain: stop accepting, stop admitting, let the grace window run, then
  // preempt what is still running (partials checkpoint via durability)
  // and give sessions one more window to deliver terminal pages.
  ::close(listen_fd_);
  listen_fd_ = -1;
  trace_.Line(NowMs(), "DRAIN begin");
  WakeAllSessions();  // each announces DRAIN at its next pump
  scheduler_->BeginDrain();
  uint64_t deadline = NowMs() + options_.drain_grace_ms;
  while (live_sessions_.load() > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (live_sessions_.load() > 0) {
    trace_.Line(NowMs(), "DRAIN preempt");
    scheduler_->PreemptAll("server drain");
    deadline = NowMs() + options_.drain_grace_ms;
    while (live_sessions_.load() > 0 && NowMs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (live_sessions_.load() > 0) {
    trace_.Line(NowMs(), "DRAIN force-close");
    force_close_.store(true);
    WakeAllSessions();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) t.join();
  trace_.Line(NowMs(), "DRAIN done");
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---- deterministic simulation ----------------------------------------------

namespace {

// One scripted in-process client. Single-threaded with the serve loop: the
// step function runs to quiescence against the bounded duplex each tick.
class SimClient {
 public:
  SimClient(const SimClientSpec& spec, const ServeOptions& options)
      : spec_(spec),
        options_(options),
        stream_(&duplex_, /*server_side=*/false),
        sent_(spec.queries.size(), false),
        cancelled_(spec.queries.size(), false) {}

  MemoryDuplex* duplex() { return &duplex_; }
  const SimClientReport& report() const { return report_; }
  SimClientReport* mutable_report() { return &report_; }
  bool done() const { return done_; }

  void Step(uint64_t now_ms) {
    if (done_) return;
    if (report_.refused) {
      done_ = true;
      return;
    }
    if (!hello_sent_) {
      Frame hello;
      hello.type = FrameType::kHello;
      hello.body.SetInt("version", kWireVersion)
          .SetString("tenant", spec_.tenant);
      Send(hello);
      hello_sent_ = true;
    }
    if (spec_.disconnect_at_ms > 0 && now_ms >= spec_.disconnect_at_ms) {
      stream_.Close();
      done_ = true;
      return;
    }
    ReadFrames(now_ms);
    if (done_) return;
    if (hello_acked_ && !report_.drained) {
      for (size_t i = 0; i < spec_.queries.size(); ++i) {
        const SimQuery& q = spec_.queries[i];
        if (sent_[i] || q.at_ms > now_ms) continue;
        Frame query;
        query.type = FrameType::kQuery;
        query.body.SetString("id", q.id)
            .SetString("source", q.source)
            .SetString("class", q.cls)
            .SetInt("priority", q.priority);
        Send(query);
        Frame first_page;
        first_page.type = FrameType::kPage;
        first_page.body.SetString("id", q.id).SetInt("want", 0);
        Send(first_page);
        sent_[i] = true;
      }
    }
    for (size_t i = 0; i < spec_.queries.size(); ++i) {
      const SimQuery& q = spec_.queries[i];
      if (!sent_[i] || cancelled_[i] || q.cancel_at_ms == 0 ||
          q.cancel_at_ms > now_ms) {
        continue;
      }
      if (report_.terminal.count(q.id) != 0) continue;  // already terminal
      Frame cancel;
      cancel.type = FrameType::kCancel;
      cancel.body.SetString("id", q.id);
      Send(cancel);
      cancelled_[i] = true;
    }
    // Heartbeat at half the advertised cadence so long-running queries do
    // not idle the session out.
    if (hello_acked_ && heartbeat_ms_ > 0 &&
        now_ms - last_send_ms_ >= heartbeat_ms_ / 2) {
      Frame ping;
      ping.type = FrameType::kHello;
      ping.body.SetBool("ping", true);
      Send(ping);
      last_send_ms_ = now_ms;
    }
    // Finished: every scripted query is terminal and no disconnect or
    // drain keeps the session open for us.
    if (hello_acked_ && AllTerminal() && spec_.disconnect_at_ms == 0) {
      stream_.Close();
      done_ = true;
    }
  }

 private:
  bool AllTerminal() const {
    for (const SimQuery& q : spec_.queries) {
      if (report_.terminal.count(q.id) == 0) return false;
    }
    return true;
  }

  void Send(const Frame& frame) {
    if (!stream_.Write(EncodeFrame(frame)).ok()) done_ = true;
  }

  void ReadFrames(uint64_t now_ms) {
    (void)now_ms;
    for (;;) {
      std::string chunk;
      auto got = stream_.Read(&chunk, 64 * 1024);
      if (!got.ok() || *got == 0) {
        if (got.ok() && *got == 0 && stream_.closed()) done_ = true;
        break;
      }
      decoder_.Feed(chunk);
    }
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) {  // torn frame from an injected fault
        done_ = true;
        return;
      }
      if (!next->has_value()) return;
      const Frame& frame = **next;
      switch (frame.type) {
        case FrameType::kHello:
          if (frame.body.BoolOr("pong", false)) break;
          hello_acked_ = true;
          heartbeat_ms_ =
              static_cast<uint64_t>(frame.body.IntOr("heartbeat_ms", 10000));
          break;
        case FrameType::kPage: {
          ++report_.pages;
          std::string id = frame.body.StringOr("id", "");
          report_.data[id] += frame.body.StringOr("data", "");
          if (frame.body.BoolOr("done", false)) {
            report_.terminal[id] =
                "outcome:" + frame.body.StringOr("outcome", "?");
          } else {
            Frame want;
            want.type = FrameType::kPage;
            want.body.SetString("id", id)
                .SetInt("want", frame.body.IntOr("seq", 0) + 1);
            Send(want);
          }
          break;
        }
        case FrameType::kError: {
          std::string id = frame.body.StringOr("id", "");
          if (!id.empty()) {
            report_.terminal[id] = "error:" + frame.body.StringOr("code", "?");
          }
          break;
        }
        case FrameType::kDrain:
          report_.drained = true;
          break;
        default:
          break;
      }
    }
  }

  SimClientSpec spec_;
  ServeOptions options_;
  MemoryDuplex duplex_;
  MemoryStream stream_;
  FrameDecoder decoder_;
  SimClientReport report_;
  bool hello_sent_ = false;
  bool hello_acked_ = false;
  bool done_ = false;
  uint64_t heartbeat_ms_ = 0;
  uint64_t last_send_ms_ = 0;
  std::vector<bool> sent_;
  std::vector<bool> cancelled_;
};

}  // namespace

SimOutcome ServeSimulated(Scheduler* scheduler, const ServeOptions& options,
                          const std::vector<SimClientSpec>& specs,
                          uint64_t drain_at_ms, uint64_t max_ms) {
  SimOutcome outcome;
  TraceSink trace(options.trace);

  std::vector<std::unique_ptr<SimClient>> clients;
  std::vector<std::unique_ptr<FaultyStream>> streams;
  std::vector<std::unique_ptr<MemoryStream>> server_ends;
  std::vector<std::unique_ptr<Session>> sessions;
  uint64_t next_session_id = 1;
  for (const SimClientSpec& spec : specs) {
    clients.push_back(std::make_unique<SimClient>(spec, options));
    SimClient* client = clients.back().get();
    // Refusal draws happen at the (virtual) accept site, in client order,
    // so the sequence of injector draws is deterministic.
    bool refused = FaultInjector::Global().ShouldFail(FaultSite::kNetwork) ||
                   sessions.size() >= options.max_sessions;
    if (refused) {
      client->mutable_report()->refused = true;
      client->duplex()->c2s.Close();
      client->duplex()->s2c.Close();
      ++outcome.stats.sessions_refused;
      trace.Line(0, "REFUSE client=" + std::to_string(clients.size() - 1));
      server_ends.push_back(nullptr);
      streams.push_back(nullptr);
      sessions.push_back(nullptr);
      continue;
    }
    server_ends.push_back(
        std::make_unique<MemoryStream>(client->duplex(), /*server_side=*/true));
    streams.push_back(std::make_unique<FaultyStream>(server_ends.back().get()));
    sessions.push_back(std::make_unique<Session>(
        next_session_id++, streams.back().get(), scheduler, options.session,
        &trace));
    ++outcome.stats.sessions_accepted;
  }

  bool drained = false;
  for (uint64_t now = 0; now < max_ms; ++now) {
    if (drain_at_ms > 0 && now == drain_at_ms && !drained) {
      drained = true;
      trace.Line(now, "DRAIN begin");
      scheduler->BeginDrain();
      // In deterministic mode attempts run atomically inside
      // RunUntilIdle(), so nothing is mid-run here: PreemptAll sheds the
      // *queued* backlog and sessions deliver what already finished.
      scheduler->PreemptAll("server drain");
      for (auto& session : sessions) {
        if (session != nullptr) session->RequestDrain();
      }
    }
    bool any_open = false;
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->Step(now);
      if (sessions[i] != nullptr && sessions[i]->open()) {
        sessions[i]->Pump(now);
      }
      // Everything submitted this tick runs to a terminal state before
      // the clients observe the next tick: deterministic interleaving.
      scheduler->RunUntilIdle();
      if (sessions[i] != nullptr && sessions[i]->open()) {
        sessions[i]->Pump(now);
        any_open = any_open || sessions[i]->open();
      }
      any_open = any_open || !clients[i]->done();
    }
    if (!any_open) break;
  }
  for (auto& session : sessions) {
    if (session != nullptr && session->open()) session->ForceClose(max_ms);
  }
  for (size_t i = 0; i < clients.size(); ++i) {
    if (sessions[i] != nullptr) RecordClose(&outcome.stats, *sessions[i]);
    outcome.clients.push_back(clients[i]->report());
  }
  return outcome;
}

}  // namespace server
}  // namespace iqlkit
