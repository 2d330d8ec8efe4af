#include "server/session.h"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace iqlkit {
namespace server {

const char* SessionCloseName(SessionClose reason) {
  switch (reason) {
    case SessionClose::kOpen:
      return "open";
    case SessionClose::kPeerClosed:
      return "peer-closed";
    case SessionClose::kIdleTimeout:
      return "idle-timeout";
    case SessionClose::kReadTimeout:
      return "read-timeout";
    case SessionClose::kWriteTimeout:
      return "write-timeout";
    case SessionClose::kProtocolError:
      return "protocol-error";
    case SessionClose::kDrained:
      return "drained";
    case SessionClose::kForced:
      return "forced";
  }
  return "unknown";
}

void TraceSink::Line(uint64_t tick, const std::string& text) {
  if (out_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  (*out_) << "[" << tick << "] " << text << "\n";
}

SessionWaker::~SessionWaker() {
  if (fd_ >= 0) ::close(fd_);
}

void SessionWaker::Signal(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  // A non-empty list means the descriptor is already armed, or the owner
  // cleared it and has yet to Take -- either way this ticket is seen.
  if (tickets_.empty()) Wake();
  tickets_.push_back(ticket);
}

std::vector<uint64_t> SessionWaker::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(tickets_, {});
}

void SessionWaker::Wake() {
  if (fd_ < 0) return;
  uint64_t one = 1;  // eventfd semantics: adds to the counter
  ssize_t n = ::write(fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means the counter is already nonzero: still armed
}

void SessionWaker::ClearFd() {
  if (fd_ < 0) return;
  uint64_t count = 0;
  ssize_t n = ::read(fd_, &count, sizeof(count));
  (void)n;  // nonblocking: EAGAIN when nothing was pending
}

Session::Session(uint64_t id, ByteStream* stream, Scheduler* scheduler,
                 const SessionOptions& options, TraceSink* trace,
                 std::shared_ptr<SessionWaker> waker)
    : id_(id),
      stream_(stream),
      scheduler_(scheduler),
      options_(options),
      trace_(trace),
      waker_(waker != nullptr ? std::move(waker)
                              : std::make_shared<SessionWaker>()) {}

void Session::Trace(uint64_t now_ms, const std::string& text) {
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Line(now_ms, "s" + std::to_string(id_) + " " + text);
  }
}

bool Session::Pump(uint64_t now_ms) {
  if (!open()) return false;
  if (!started_) {
    started_ = true;
    last_inbound_ms_ = now_ms;
    Trace(now_ms, "ACCEPT");
  }

  // Drain request (from SIGTERM or an explicit DRAIN trigger): announce
  // once, stop accepting QUERY frames, keep pumping until every live
  // query has delivered its terminal page.
  if (drain_requested_.load() && !drain_sent_ && state_ != State::kAwaitHello) {
    Frame drain;
    drain.type = FrameType::kDrain;
    drain.body.SetString("reason", "server draining");
    SendFrame(now_ms, drain);
    drain_sent_ = true;
    state_ = State::kDraining;
    Trace(now_ms, "DRAIN announced");
    if (!open()) return false;
  }

  // Inbound: move available bytes into the decoder, then handle every
  // complete frame. Stalls leave the pending bytes for the next pump;
  // resets and torn reads end the session.
  for (;;) {
    std::string chunk;
    auto got = stream_->Read(&chunk, 64 * 1024);
    if (!got.ok()) {
      if (IsStallError(got.status())) break;  // retry next pump
      Trace(now_ms, "READ error: " + got.status().ToString());
      Close(now_ms, SessionClose::kPeerClosed);
      return false;
    }
    if (*got == 0) {
      if (stream_->closed()) {
        Close(now_ms, SessionClose::kPeerClosed);
        return false;
      }
      break;  // no bytes available yet
    }
    decoder_.Feed(chunk);
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) {
        Trace(now_ms, "DECODE error: " + next.status().ToString());
        SendError(now_ms, next.status(), "");
        Close(now_ms, SessionClose::kProtocolError);
        return false;
      }
      if (!next->has_value()) break;
      ++counters_.frames_in;
      last_inbound_ms_ = now_ms;
      partial_pending_ = false;
      HandleFrame(now_ms, **next);
      if (!open()) return false;
    }
  }

  // A frame whose header arrived but whose tail has not: start (or check)
  // the torn-frame clock.
  if (decoder_.buffered() > 0) {
    if (!partial_pending_) {
      partial_pending_ = true;
      partial_since_ms_ = now_ms;
    } else if (now_ms - partial_since_ms_ >= options_.read_timeout_ms) {
      Trace(now_ms, "READ timeout: torn frame");
      Close(now_ms, SessionClose::kReadTimeout);
      return false;
    }
  } else {
    partial_pending_ = false;
  }

  PollQueries(now_ms);
  if (!open()) return false;
  EmitPages();
  if (!open()) return false;
  FlushOutbox(now_ms);
  if (!open()) return false;

  // Idle timeout: no completed inbound frame for too long. Queries still
  // in flight do not excuse the client from heartbeating.
  if (now_ms - last_inbound_ms_ >= options_.idle_timeout_ms) {
    Trace(now_ms, "IDLE timeout");
    Close(now_ms, SessionClose::kIdleTimeout);
    return false;
  }

  // Drain completion: everything delivered and flushed.
  if (state_ == State::kDraining && queries_.empty() && outbox_.empty()) {
    Close(now_ms, SessionClose::kDrained);
    return false;
  }
  return open();
}

void Session::HandleFrame(uint64_t now_ms, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello:
      HandleHello(now_ms, frame);
      return;
    case FrameType::kQuery:
      HandleQuery(now_ms, frame);
      return;
    case FrameType::kPage:
      HandlePage(now_ms, frame);
      return;
    case FrameType::kCancel:
      HandleCancel(now_ms, frame);
      return;
    case FrameType::kError:
      // The client reported a failure on its side; log and close cleanly.
      Trace(now_ms, "client ERROR: " + frame.body.StringOr("message", ""));
      Close(now_ms, SessionClose::kPeerClosed);
      return;
    case FrameType::kDrain:
      // DRAIN is server-to-client only.
      SendError(now_ms, NetworkError("DRAIN is not a client frame"), "");
      Close(now_ms, SessionClose::kProtocolError);
      return;
  }
}

void Session::HandleHello(uint64_t now_ms, const Frame& frame) {
  if (frame.body.BoolOr("ping", false)) {
    ++counters_.heartbeats;
    Frame pong;
    pong.type = FrameType::kHello;
    pong.body.SetBool("pong", true);
    SendFrame(now_ms, pong);
    return;
  }
  if (state_ != State::kAwaitHello) {
    SendError(now_ms, NetworkError("duplicate HELLO"), "");
    Close(now_ms, SessionClose::kProtocolError);
    return;
  }
  int64_t version = frame.body.IntOr("version", -1);
  if (version != kWireVersion) {
    SendError(now_ms,
              NetworkError("protocol version mismatch: peer speaks " +
                           std::to_string(version) + ", server speaks " +
                           std::to_string(kWireVersion)),
              "");
    Close(now_ms, SessionClose::kProtocolError);
    return;
  }
  tenant_ = frame.body.StringOr("tenant", "");
  state_ = State::kReady;
  Frame ack;
  ack.type = FrameType::kHello;
  ack.body.SetInt("version", kWireVersion)
      .SetInt("session", static_cast<int64_t>(id_))
      .SetInt("max_inflight", static_cast<int64_t>(options_.max_inflight))
      .SetInt("page_rows", static_cast<int64_t>(options_.page_rows))
      .SetInt("heartbeat_ms",
              static_cast<int64_t>(options_.heartbeat_interval_ms));
  SendFrame(now_ms, ack);
  Trace(now_ms, "HELLO tenant=" + (tenant_.empty() ? "-" : tenant_));
}

void Session::HandleQuery(uint64_t now_ms, const Frame& frame) {
  if (state_ == State::kAwaitHello) {
    SendError(now_ms, NetworkError("QUERY before HELLO"), "");
    Close(now_ms, SessionClose::kProtocolError);
    return;
  }
  auto wire_id = frame.body.GetString("id");
  if (!wire_id.ok()) {
    ++counters_.queries_rejected;
    SendError(now_ms, wire_id.status(), "");
    return;
  }
  auto source = frame.body.GetString("source");
  if (!source.ok()) {
    ++counters_.queries_rejected;
    SendError(now_ms, source.status(), *wire_id);
    return;
  }
  if (queries_.count(*wire_id) != 0) {
    ++counters_.queries_rejected;
    SendError(now_ms,
              AlreadyExistsError("query id '" + *wire_id +
                                 "' is already in flight on this session"),
              *wire_id);
    return;
  }
  if (state_ == State::kDraining || drain_requested_.load()) {
    ++counters_.queries_rejected;
    SendError(now_ms, UnavailableError("session is draining"), *wire_id);
    return;
  }
  if (queries_.size() >= options_.max_inflight) {
    ++counters_.queries_rejected;
    SendError(now_ms,
              OverloadedError("session in-flight quota (" +
                              std::to_string(options_.max_inflight) +
                              ") exceeded"),
              *wire_id);
    return;
  }

  QueryRequest request;
  // Scheduler ids are namespaced by session so two clients using the same
  // wire id never collide in traces or durable directories.
  request.id = "s" + std::to_string(id_) + ":" + *wire_id;
  request.source = *source;
  auto cls = ParseQueryClass(frame.body.StringOr("class", "batch"));
  if (!cls.ok()) {
    ++counters_.queries_rejected;
    SendError(now_ms, cls.status(), *wire_id);
    return;
  }
  request.cls = *cls;
  request.priority = static_cast<int>(frame.body.IntOr("priority", 0));
  int64_t max_steps = frame.body.IntOr("max_steps", 0);
  if (max_steps > 0) {
    request.limits.max_steps_per_stage = static_cast<uint64_t>(max_steps);
  }
  int64_t timeout_ms = frame.body.IntOr("timeout_ms", 0);
  if (timeout_ms > 0) {
    request.limits.deadline_seconds = static_cast<double>(timeout_ms) / 1000.0;
  }
  int64_t max_memory = frame.body.IntOr("max_memory", 0);
  if (max_memory > 0) {
    request.limits.max_memory_bytes = static_cast<uint64_t>(max_memory);
  }
  int64_t reserve = frame.body.IntOr("reserve", 0);
  if (reserve > 0) request.reserve_bytes = static_cast<uint64_t>(reserve);

  auto ticket = scheduler_->Submit(
      std::move(request),
      [waker = waker_](uint64_t done) { waker->Signal(done); });
  if (!ticket.ok()) {
    ++counters_.queries_rejected;
    SendError(now_ms, ticket.status(), *wire_id);
    return;
  }
  LiveQuery live;
  live.ticket = *ticket;
  live.wire_id = *wire_id;
  queries_.emplace(*wire_id, std::move(live));
  ++counters_.queries_accepted;
  Trace(now_ms, "QUERY id=" + *wire_id + " ticket=" + std::to_string(*ticket));
}

void Session::HandlePage(uint64_t now_ms, const Frame& frame) {
  auto wire_id = frame.body.GetString("id");
  if (!wire_id.ok()) {
    SendError(now_ms, wire_id.status(), "");
    return;
  }
  auto it = queries_.find(*wire_id);
  if (it == queries_.end()) {
    SendError(now_ms,
              NotFoundError("no query '" + *wire_id + "' on this session"),
              *wire_id);
    return;
  }
  it->second.pending_want = frame.body.IntOr("want", it->second.next_seq);
}

void Session::HandleCancel(uint64_t now_ms, const Frame& frame) {
  auto wire_id = frame.body.GetString("id");
  if (!wire_id.ok()) {
    SendError(now_ms, wire_id.status(), "");
    return;
  }
  auto it = queries_.find(*wire_id);
  if (it == queries_.end()) {
    SendError(now_ms,
              NotFoundError("no query '" + *wire_id + "' on this session"),
              *wire_id);
    return;
  }
  scheduler_->Cancel(it->second.ticket, "client cancel");
  // Whatever the race resolves to (cancelled, or completed first), push
  // the terminal page without waiting for a credit so the client always
  // sees exactly one terminal frame.
  it->second.push_terminal = true;
  Trace(now_ms, "CANCEL id=" + *wire_id);
}

void Session::PollQueries(uint64_t now_ms) {
  std::vector<uint64_t> signalled = waker_->Take();
  if (signalled.empty()) return;
  std::sort(signalled.begin(), signalled.end());
  // Walk the (quota-bounded) live map rather than the signal order, so
  // results are materialized in wire-id order however completions raced.
  for (auto& [wire_id, live] : queries_) {
    if (live.result_ready ||
        !std::binary_search(signalled.begin(), signalled.end(), live.ticket)) {
      continue;
    }
    auto result = scheduler_->TryWait(live.ticket);
    if (!result.has_value()) continue;
    live.result = std::move(*result);
    live.result_ready = true;
    live.pages = CutPages(live.result.facts, options_.page_rows);
    Trace(now_ms, "RESULT id=" + wire_id + " outcome=" +
                      QueryOutcomeName(live.result.outcome) + " pages=" +
                      std::to_string(live.pages.size()));
  }
}

std::vector<Session::PageSlice> Session::CutPages(const std::string& facts,
                                                  size_t first_rows) {
  std::vector<PageSlice> pages;
  size_t rows_cap = std::max<size_t>(first_rows, 1);
  size_t pos = 0;
  while (pos < facts.size()) {
    size_t end = pos;
    for (size_t rows = 0; rows < rows_cap && end < facts.size(); ++rows) {
      size_t eol = facts.find('\n', end);
      size_t line_end = eol == std::string::npos ? facts.size() : eol + 1;
      if (line_end - pos > kMaxPageBytes) {
        // A line that fits a page of its own starts the next one; a line
        // longer than any page is cut at the ceiling.
        if (end == pos) end = pos + kMaxPageBytes;
        break;
      }
      end = line_end;
    }
    pages.push_back({pos, end - pos});
    pos = end;
    if (rows_cap <= std::numeric_limits<size_t>::max() / 2) rows_cap *= 2;
  }
  // At least one page, so the terminal frame always exists.
  if (pages.empty()) pages.push_back({0, 0});
  return pages;
}

void Session::EmitPages() {
  // Only enqueues (Pump flushes right after): delivery is counted -- and
  // the query retired -- in FlushOutbox, when the terminal frame actually
  // reaches the stream. A session that dies with the frame still queued
  // abandons the query instead of reporting it delivered.
  for (auto& [wire_id, live] : queries_) {
    if (!live.result_ready || live.terminal_sent) continue;
    int64_t last = static_cast<int64_t>(live.pages.size()) - 1;
    int64_t seq = -1;
    if (live.push_terminal) {
      seq = last;  // cancel/drain: skip straight to the terminal page
    } else if (live.pending_want >= 0) {
      seq = live.pending_want > last ? last : live.pending_want;
    }
    if (seq < 0) continue;
    const PageSlice& slice = live.pages[static_cast<size_t>(seq)];
    Frame page;
    page.type = FrameType::kPage;
    page.body.SetString("id", live.wire_id)
        .SetInt("seq", seq)
        .SetString("data", std::string_view(live.result.facts)
                               .substr(slice.offset, slice.length))
        .SetBool("done", seq == last);
    if (seq == last) {
      page.body.SetString("outcome", QueryOutcomeName(live.result.outcome))
          .SetString("code", std::string(StatusCodeName(
                                 live.result.status.code())))
          .SetString("status", live.result.status.ok()
                                   ? ""
                                   : live.result.status.message())
          .SetInt("attempts", live.result.attempts);
    }
    live.pending_want = -1;
    live.push_terminal = false;
    live.next_seq = seq + 1;
    Outgoing out;
    out.bytes = EncodeFrame(page);
    if (seq == last) {
      live.terminal_sent = true;
      out.done_id = wire_id;
      out.outcome = live.result.outcome;
    }
    outbox_.push_back(std::move(out));
    ++counters_.pages_sent;
  }
}

void Session::SendFrame(uint64_t now_ms, const Frame& frame) {
  Outgoing out;
  out.bytes = EncodeFrame(frame);
  outbox_.push_back(std::move(out));
  FlushOutbox(now_ms);
}

void Session::SendError(uint64_t now_ms, const Status& status,
                        const std::string& query_id) {
  Frame frame;
  frame.type = FrameType::kError;
  frame.body.SetString("code", std::string(StatusCodeName(status.code())))
      .SetString("message", status.message());
  if (!query_id.empty()) frame.body.SetString("id", query_id);
  SendFrame(now_ms, frame);
}

void Session::FlushOutbox(uint64_t now_ms) {
  Status wrote = stream_->Flush();
  while (wrote.ok() && !outbox_.empty()) {
    wrote = stream_->Write(outbox_.front().bytes);
    if (wrote.ok()) {
      ++counters_.frames_out;
      if (!outbox_.front().done_id.empty()) {
        switch (outbox_.front().outcome) {
          case QueryOutcome::kCompleted:
            ++counters_.delivered_completed;
            break;
          case QueryOutcome::kTrippedPartial:
            ++counters_.delivered_tripped;
            break;
          case QueryOutcome::kCancelled:
            ++counters_.delivered_cancelled;
            break;
          default:
            ++counters_.delivered_failed;
            break;
        }
        Trace(now_ms, "DONE id=" + outbox_.front().done_id);
        queries_.erase(outbox_.front().done_id);
      }
      outbox_.pop_front();
    }
  }
  if (wrote.ok()) {
    stalled_ = false;
    return;
  }
  if (IsStallError(wrote)) {
    // Slow client: charge the stall against the write budget; the frame
    // stays queued and is retried on the next pump.
    if (!stalled_) {
      stalled_ = true;
      stall_since_ms_ = now_ms;
    } else if (now_ms - stall_since_ms_ >= options_.write_timeout_ms) {
      Trace(now_ms, "WRITE timeout: slow client");
      Close(now_ms, SessionClose::kWriteTimeout);
    }
    return;
  }
  Trace(now_ms, "WRITE error: " + wrote.ToString());
  Close(now_ms, SessionClose::kPeerClosed);
}

void Session::Close(uint64_t now_ms, SessionClose reason) {
  if (!open()) return;
  close_reason_ = reason;
  AbandonLiveQueries();
  stream_->Close();
  Trace(now_ms, "CLOSE reason=" + std::string(SessionCloseName(reason)));
}

void Session::ForceClose(uint64_t now_ms) {
  if (!open()) return;
  Close(now_ms, SessionClose::kForced);
}

uint64_t Session::NextDeadlineMs() const {
  auto after = [](uint64_t since, uint64_t budget) {
    return budget > std::numeric_limits<uint64_t>::max() - since
               ? std::numeric_limits<uint64_t>::max()
               : since + budget;
  };
  uint64_t deadline = after(last_inbound_ms_, options_.idle_timeout_ms);
  if (partial_pending_) {
    deadline = std::min(deadline,
                        after(partial_since_ms_, options_.read_timeout_ms));
  }
  if (stalled_) {
    deadline = std::min(deadline,
                        after(stall_since_ms_, options_.write_timeout_ms));
  }
  return deadline;
}

void Session::AbandonLiveQueries() {
  for (auto& [wire_id, live] : queries_) {
    // The scheduler still drives the query to a terminal state and then
    // retires it; the session just will not be there to deliver it.
    scheduler_->Abandon(live.ticket, "session closed");
    ++counters_.abandoned;
  }
  queries_.clear();
}

}  // namespace server
}  // namespace iqlkit
