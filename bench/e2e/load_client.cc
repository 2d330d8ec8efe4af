#include "load_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace iqlbench {
namespace {

using iqlkit::server::EncodeFrame;
using iqlkit::server::Frame;
using iqlkit::server::FrameType;

// How long in-flight queries may take to finish once the last phase ends.
constexpr int64_t kSettleNs = 60'000'000'000;
// Failure messages kept verbatim; the rest are only counted.
constexpr size_t kMaxMessages = 8;

std::string WireId(uint64_t query) { return QueryId('q', query); }

}  // namespace

LoadClient::LoadClient(const std::vector<Unit>* pool, uint64_t stream_seed,
                       SpanLog* spans)
    : pool_(pool), stream_(pool->size(), stream_seed), spans_(spans) {}

LoadClient::~LoadClient() { Close(); }

void LoadClient::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    conn.alive = false;
  }
}

void LoadClient::Fail(LoadReport* report, const std::string& message) {
  ++report->failed;
  if (report->failures.size() < kMaxMessages) {
    report->failures.push_back(message);
  }
}

void LoadClient::Send(Conn* conn, const Frame& frame, QueryRecord* record) {
  std::string bytes = EncodeFrame(frame);
  if (record != nullptr) record->bytes_out += bytes.size();
  conn->outbox += bytes;
}

void LoadClient::Flush(Conn* conn) {
  while (conn->alive && !conn->outbox.empty()) {
    ssize_t n = send(conn->fd, conn->outbox.data(), conn->outbox.size(),
                     MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      // EAGAIN leaves the tail for POLLOUT; anything else is a lost
      // connection, noticed by the next read.
      return;
    }
  }
}

iqlkit::Status LoadClient::Connect(uint16_t port, size_t connections,
                                   double timeout_s) {
  for (size_t i = 0; i < connections; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return iqlkit::NetworkError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return iqlkit::NetworkError(std::string("connect failed: ") +
                                  std::strerror(errno));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.emplace_back();
    Conn& conn = conns_.back();
    conn.fd = fd;
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", iqlkit::server::kWireVersion)
        .SetString("tenant", "iqlbench");
    Send(&conn, hello, nullptr);
    Flush(&conn);
  }
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  for (Conn& conn : conns_) {
    while (!conn.hello_acked) {
      int64_t left_ms = (deadline - NowNs()) / 1000000;
      pollfd pfd{conn.fd, POLLIN, 0};
      if (left_ms <= 0 || poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
        return iqlkit::NetworkError("HELLO not acknowledged in time");
      }
      char buf[4096];
      ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
      if (n <= 0) return iqlkit::NetworkError("connection closed during HELLO");
      conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      auto frame = conn.decoder.Next();
      if (!frame.ok()) return frame.status();
      if (!frame->has_value()) continue;
      if ((*frame)->type != FrameType::kHello) {
        return iqlkit::NetworkError(std::string("expected HELLO, got ") +
                                    FrameTypeName((*frame)->type));
      }
      conn.hello_acked = true;
    }
  }
  for (Conn& conn : conns_) {
    int flags = fcntl(conn.fd, F_GETFL, 0);
    fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
  }
  return iqlkit::Status::Ok();
}

void LoadClient::StartQuery(Conn* conn, size_t phase, LoadReport* report) {
  QueryRecord record;
  record.query = next_query_++;
  record.phase = phase;
  conn->unit = stream_.Next();
  conn->data.clear();
  conn->inflight = static_cast<long>(report->queries.size());
  std::string id = WireId(record.query);
  Frame query;
  query.type = FrameType::kQuery;
  query.body.SetString("id", id)
      .SetString("source", (*pool_)[conn->unit].source);
  Frame want;
  want.type = FrameType::kPage;
  want.body.SetString("id", id).SetInt("want", 0);
  Send(conn, query, &record);
  Send(conn, want, &record);
  record.sent_ns = NowNs();
  conn->page_request_ns = record.sent_ns;
  report->queries.push_back(record);
  Flush(conn);
}

void LoadClient::Lose(Conn* conn, const std::string& why, LoadReport* report) {
  if (conn->inflight >= 0) {
    Fail(report, "query " + WireId(report->queries[conn->inflight].query) +
                     " lost with its connection: " + why);
  } else {
    Fail(report, "connection lost: " + why);
  }
  conn->inflight = -1;
  conn->alive = false;
  ::close(conn->fd);
  conn->fd = -1;
}

void LoadClient::OnFrame(Conn* conn, const Frame& frame,
                         const std::vector<Phase>& phases,
                         LoadReport* report) {
  if (frame.type == FrameType::kHello) return;  // pong
  if (conn->inflight < 0) {
    Fail(report, std::string("unsolicited ") + FrameTypeName(frame.type) +
                     " frame");
    return;
  }
  QueryRecord& record = report->queries[conn->inflight];
  std::string id = WireId(record.query);
  if (frame.type != FrameType::kPage ||
      frame.body.StringOr("id", "") != id) {
    Fail(report, "query " + id + ": " + FrameTypeName(frame.type) + " " +
                     frame.body.StringOr("code", "") + " " +
                     frame.body.StringOr("message", ""));
    conn->inflight = -1;
    return;
  }
  int64_t now = NowNs();
  bool trace = phases[record.phase].trace;
  if (++record.pages == 1) record.first_page_ns = now;
  if (trace) {
    spans_->Add({record.query, "client.page", "client.query",
                 conn->page_request_ns, now});
  }
  conn->data += frame.body.StringOr("data", "");
  if (!frame.body.BoolOr("done", false)) {
    Frame want;
    want.type = FrameType::kPage;
    want.body.SetString("id", id)
        .SetInt("want", frame.body.IntOr("seq", 0) + 1);
    Send(conn, want, &record);
    conn->page_request_ns = NowNs();
    Flush(conn);
    return;
  }
  record.done_ns = now;
  conn->inflight = -1;
  if (trace) {
    spans_->Add({record.query, "client.query", "", record.sent_ns, now});
  }
  const Unit& unit = (*pool_)[conn->unit];
  std::string outcome = frame.body.StringOr("outcome", "?");
  if (outcome != "completed") {
    Fail(report, "query " + id + " (" + unit.kind + "): outcome " + outcome +
                     " " + frame.body.StringOr("status", ""));
  } else if (conn->data != unit.expected) {
    Fail(report, "query " + id + " (" + unit.kind + "): served result (" +
                     std::to_string(conn->data.size()) +
                     " bytes) differs from the reference (" +
                     std::to_string(unit.expected.size()) + " bytes)");
  } else {
    record.ok = true;
  }
}

LoadReport LoadClient::Run(const std::vector<Phase>& phases,
                           const std::function<void(size_t)>& boundary) {
  LoadReport report;
  auto ns = [](double seconds) { return static_cast<int64_t>(seconds * 1e9); };
  size_t phase = 0;
  int64_t phase_end = NowNs();
  report.phase_start_ns.push_back(phase_end);
  phase_end += ns(phases[0].seconds);
  boundary(0);
  std::vector<pollfd> pfds;
  for (;;) {
    int64_t now = NowNs();
    while (phase < phases.size() && now >= phase_end) {
      report.phase_start_ns.push_back(phase_end);
      boundary(++phase);
      if (phase < phases.size()) phase_end += ns(phases[phase].seconds);
    }
    bool issuing = phase < phases.size();
    size_t alive = 0;
    size_t inflight = 0;
    for (Conn& conn : conns_) {
      if (!conn.alive) continue;
      ++alive;
      if (issuing && conn.inflight < 0) StartQuery(&conn, phase, &report);
      if (conn.inflight >= 0) ++inflight;
    }
    if (alive == 0 || (!issuing && inflight == 0)) break;
    if (!issuing && now > phase_end + kSettleNs) {
      for (Conn& conn : conns_) {
        if (conn.alive) Lose(&conn, "no terminal PAGE in time", &report);
      }
      break;
    }
    pfds.clear();
    for (Conn& conn : conns_) {
      if (!conn.alive) continue;
      short events = POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }
    int64_t wait_ms =
        std::min<int64_t>(issuing ? (phase_end - now) / 1000000 + 1 : 50, 50);
    poll(pfds.data(), pfds.size(), static_cast<int>(wait_ms));
    size_t p = 0;
    for (Conn& conn : conns_) {
      if (!conn.alive) continue;
      short revents = pfds[p++].revents;
      if (revents & POLLOUT) Flush(&conn);
      if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[64 * 1024];
      for (;;) {
        ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          if (conn.inflight >= 0) {
            report.queries[conn.inflight].bytes_in += static_cast<uint64_t>(n);
          }
          conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        Lose(&conn, n == 0 ? "closed by the server" : std::strerror(errno),
             &report);
        break;
      }
      while (conn.alive) {
        auto frame = conn.decoder.Next();
        if (!frame.ok()) {
          Lose(&conn, frame.status().ToString(), &report);
          break;
        }
        if (!frame->has_value()) break;
        OnFrame(&conn, **frame, phases, &report);
      }
    }
  }
  // A loop that lost every connection ends early; close its phases now.
  while (report.phase_start_ns.size() < phases.size() + 1) {
    report.phase_start_ns.push_back(NowNs());
  }
  report.completions.assign(phases.size(), 0);
  for (const QueryRecord& q : report.queries) {
    if (!q.ok) continue;
    for (size_t i = 0; i < phases.size(); ++i) {
      if (q.done_ns >= report.phase_start_ns[i] &&
          q.done_ns < report.phase_start_ns[i + 1]) {
        ++report.completions[i];
      }
    }
  }
  return report;
}

}  // namespace iqlbench
