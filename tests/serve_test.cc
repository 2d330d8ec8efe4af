// Serving tests: the session state machine over in-memory streams, the
// deterministic simulated-client serve loop, client-paced paging, cancel,
// per-session quotas, timeouts, graceful drain, and byte-identical
// trace replay per seed.

#include "server/serve_loop.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/wire.h"

namespace iqlkit {
namespace server {
namespace {

constexpr char kTcSource[] = R"(
schema {
  relation E  : [D, D];
  relation TC : [D, D];
}
input E;
output TC;
instance {
  E(1, 2);
  E(2, 3);
  E(3, 4);
}
program {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
)";

constexpr char kBadSource[] = "schema { this is not IQL ";

// Invents a fresh oid per step and never converges: stays running until
// cancelled (or its step budget trips).
constexpr char kDivergentSource[] = R"(
schema { relation R3 : [P, P]; class P : D; }
instance { P(@a); P(@b); R3([@a, @b]); }
program { R3(y, z) :- R3(x, y). }
)";

SchedulerOptions DetScheduler(uint64_t seed = 0) {
  SchedulerOptions options;
  options.deterministic = true;
  options.seed = seed;
  return options;
}

// A hand-driven client end of a MemoryDuplex for session-level tests.
struct TestClient {
  explicit TestClient(MemoryDuplex* duplex)
      : stream(duplex, /*server_side=*/false) {}

  void Send(const Frame& frame) {
    ASSERT_TRUE(stream.Write(EncodeFrame(frame)).ok());
  }
  void SendHello() {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", kWireVersion).SetString("tenant", "test");
    Send(hello);
  }
  void SendQuery(const std::string& id, const std::string& source) {
    Frame query;
    query.type = FrameType::kQuery;
    query.body.SetString("id", id).SetString("source", source);
    Send(query);
  }
  void SendWant(const std::string& id, int64_t want) {
    Frame page;
    page.type = FrameType::kPage;
    page.body.SetString("id", id).SetInt("want", want);
    Send(page);
  }

  std::vector<Frame> Drain() {
    std::vector<Frame> frames;
    for (;;) {
      std::string chunk;
      auto got = stream.Read(&chunk, 1 << 16);
      if (!got.ok() || *got == 0) break;
      decoder.Feed(chunk);
    }
    for (;;) {
      auto next = decoder.Next();
      if (!next.ok() || !next->has_value()) break;
      frames.push_back(std::move(**next));
    }
    return frames;
  }

  MemoryStream stream;
  FrameDecoder decoder;
};

class SessionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(SessionTest, HandshakeThenQueryThenPagedResult) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;  // force multiple pages
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);

  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].body.GetInt("version").value(), kWireVersion);
  EXPECT_EQ(frames[0].body.GetInt("session").value(), 1);
  EXPECT_EQ(frames[0].body.GetInt("page_rows").value(), 2);

  client.SendQuery("q1", kTcSource);
  client.SendWant("q1", 0);
  ASSERT_TRUE(session.Pump(1));
  scheduler.RunUntilIdle();
  ASSERT_TRUE(session.Pump(2));

  // Page 0 arrives; request pages one at a time until done.
  std::string data;
  bool done = false;
  std::string outcome;
  for (int round = 0; round < 64 && !done; ++round) {
    for (const Frame& frame : client.Drain()) {
      ASSERT_EQ(frame.type, FrameType::kPage);
      data += frame.body.StringOr("data", "");
      if (frame.body.GetBool("done").value()) {
        done = true;
        outcome = frame.body.GetString("outcome").value();
      } else {
        client.SendWant("q1", frame.body.GetInt("seq").value() + 1);
      }
    }
    session.Pump(3 + round);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, "completed");
  EXPECT_NE(data.find("TC("), std::string::npos);
  EXPECT_EQ(session.counters().delivered_completed, 1u);
  EXPECT_EQ(session.live_queries(), 0u);

  // The paged bytes are exactly a standalone evaluation's facts.
  Scheduler standalone(DetScheduler());
  QueryRequest request;
  request.id = "ref";
  request.source = kTcSource;
  auto ticket = standalone.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(data, standalone.Wait(*ticket).facts);
}

TEST_F(SessionTest, VersionMismatchIsRefusedBeforeAnyQuery) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body.SetInt("version", 99);
  client.Send(hello);
  EXPECT_FALSE(session.Pump(0));
  EXPECT_EQ(session.close_reason(), SessionClose::kProtocolError);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].body.GetString("code").value(), "NETWORK_ERROR");
}

TEST_F(SessionTest, QueryBeforeHelloIsAProtocolError) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendQuery("q", kTcSource);
  EXPECT_FALSE(session.Pump(0));
  EXPECT_EQ(session.close_reason(), SessionClose::kProtocolError);
}

TEST_F(SessionTest, FailedQueryDeliversTerminalPageWithStatus) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("bad", kBadSource);
  client.SendWant("bad", 0);
  session.Pump(1);
  scheduler.RunUntilIdle();
  session.Pump(2);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPage);
  EXPECT_TRUE(frames[0].body.GetBool("done").value());
  EXPECT_EQ(frames[0].body.GetString("outcome").value(), "failed");
  EXPECT_FALSE(frames[0].body.GetString("status").value().empty());
  EXPECT_EQ(session.counters().delivered_failed, 1u);
}

TEST_F(SessionTest, InflightQuotaRejectsLocally) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.max_inflight = 1;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("a", kTcSource);
  client.SendQuery("b", kTcSource);  // over quota
  client.SendQuery("a", kTcSource);  // duplicate id
  session.Pump(1);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].body.GetString("code").value(), "OVERLOAD");
  EXPECT_EQ(frames[0].body.GetString("id").value(), "b");
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_EQ(frames[1].body.GetString("code").value(), "ALREADY_EXISTS");
  EXPECT_EQ(session.counters().queries_accepted, 1u);
  EXPECT_EQ(session.counters().queries_rejected, 2u);
  // The session's rejects never reached scheduler admission.
  EXPECT_EQ(scheduler.counters().submitted, 1u);
}

TEST_F(SessionTest, CancelPushesATerminalPageUnasked) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("q", kTcSource);
  session.Pump(1);  // admitted (queued; deterministic mode has not run it)
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.body.SetString("id", "q");
  client.Send(cancel);
  session.Pump(2);
  scheduler.RunUntilIdle();
  session.Pump(3);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPage);
  EXPECT_TRUE(frames[0].body.GetBool("done").value());
  EXPECT_EQ(frames[0].body.GetString("outcome").value(), "cancelled");
  EXPECT_EQ(session.counters().delivered_cancelled, 1u);
  EXPECT_EQ(scheduler.counters().cancelled, 1u);
}

TEST_F(SessionTest, IdleTimeoutClosesTheSession) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.idle_timeout_ms = 100;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  ASSERT_TRUE(session.Pump(99));
  EXPECT_FALSE(session.Pump(100));
  EXPECT_EQ(session.close_reason(), SessionClose::kIdleTimeout);
}

TEST_F(SessionTest, HeartbeatsKeepAnIdleSessionAlive) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.idle_timeout_ms = 100;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  for (uint64_t t = 80; t <= 400; t += 80) {
    Frame ping;
    ping.type = FrameType::kHello;
    ping.body.SetBool("ping", true);
    client.Send(ping);
    ASSERT_TRUE(session.Pump(t)) << "t=" << t;
  }
  EXPECT_EQ(session.counters().heartbeats, 5u);
  // Pongs came back alongside the HELLO ack.
  EXPECT_GE(client.Drain().size(), 6u);
}

TEST_F(SessionTest, TornFrameHitsTheReadTimeout) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.read_timeout_ms = 50;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  std::string frame = EncodeFrame([] {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", kWireVersion);
    return hello;
  }());
  // Only half the frame ever arrives.
  ASSERT_TRUE(client.stream.Write(frame.substr(0, frame.size() / 2)).ok());
  ASSERT_TRUE(session.Pump(0));
  ASSERT_TRUE(session.Pump(49));
  EXPECT_FALSE(session.Pump(50));
  EXPECT_EQ(session.close_reason(), SessionClose::kReadTimeout);
}

TEST_F(SessionTest, SlowClientHitsTheWriteTimeout) {
  Scheduler scheduler(DetScheduler());
  // A tiny outbound pipe the "client" never drains: the HELLO ack fits,
  // result pages do not. The inbound direction stays roomy.
  MemoryDuplex duplex(/*c2s_capacity=*/1 << 20, /*s2c_capacity=*/160);
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.write_timeout_ms = 50;
  options.page_rows = 1024;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  client.Drain();  // take the ack, then stop draining
  client.SendQuery("q", kTcSource);
  client.SendWant("q", 0);
  ASSERT_TRUE(session.Pump(1));
  scheduler.RunUntilIdle();
  ASSERT_TRUE(session.Pump(2));  // page stalls against the full pipe
  ASSERT_TRUE(session.Pump(51));
  EXPECT_FALSE(session.Pump(52));
  EXPECT_EQ(session.close_reason(), SessionClose::kWriteTimeout);
  // The undelivered query was cancelled in the scheduler, not leaked.
  EXPECT_EQ(session.counters().abandoned, 1u);
}

TEST_F(SessionTest, PeerDisappearingAbandonsAndCancels) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("q", kTcSource);
  session.Pump(1);
  client.stream.Close();
  EXPECT_FALSE(session.Pump(2));
  EXPECT_EQ(session.close_reason(), SessionClose::kPeerClosed);
  EXPECT_EQ(session.counters().abandoned, 1u);
  scheduler.RunUntilIdle();
  auto c = scheduler.counters();
  EXPECT_EQ(c.admitted, c.completed + c.tripped_partial + c.failed +
                            c.cancelled);
}

TEST_F(SessionTest, ClosedSessionLeavesNoLiveEntries) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  // "collected": terminal and collected by the session, never paged.
  client.SendQuery("collected", kTcSource);
  session.Pump(1);
  scheduler.RunUntilIdle();
  session.Pump(2);
  // "finished": terminal in the scheduler, not yet collected.
  client.SendQuery("finished", kTcSource);
  session.Pump(3);
  scheduler.RunUntilIdle();
  EXPECT_EQ(scheduler.counters().live, 1u);
  // "queued": admitted by the same pump that reads the peer's EOF, so it
  // is still queued when the session abandons it.
  client.SendQuery("queued", kTcSource);
  client.stream.Close();
  EXPECT_FALSE(session.Pump(4));
  EXPECT_EQ(session.counters().abandoned, 3u);
  scheduler.RunUntilIdle();
  auto c = scheduler.counters();
  EXPECT_EQ(c.live, 0u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.cancelled, 1u);
}

TEST_F(SessionTest, ClosedSessionRetiresItsRunningQuery) {
  SchedulerOptions sched;
  sched.workers = 1;
  Scheduler scheduler(sched);
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  Frame slow;
  slow.type = FrameType::kQuery;
  slow.body.SetString("id", "slow")
      .SetString("source", kDivergentSource)
      .SetInt("max_steps", 1000000);
  client.Send(slow);
  client.SendQuery("behind", kTcSource);  // queued behind the one worker
  session.Pump(1);
  client.stream.Close();
  EXPECT_FALSE(session.Pump(2));
  EXPECT_EQ(session.counters().abandoned, 2u);
  scheduler.RunUntilIdle();
  auto c = scheduler.counters();
  EXPECT_EQ(c.live, 0u);
  EXPECT_EQ(c.admitted,
            c.completed + c.tripped_partial + c.failed + c.cancelled);
}

// Sends one query and requests its pages in order until the terminal one;
// returns every PAGE frame received.
std::vector<Frame> PageFrames(Session* session, TestClient* client,
                              Scheduler* scheduler, uint64_t* now,
                              const std::string& id,
                              const std::string& source) {
  client->SendQuery(id, source);
  client->SendWant(id, 0);
  session->Pump((*now)++);
  scheduler->RunUntilIdle();
  std::vector<Frame> pages;
  for (int round = 0; round < 64; ++round) {
    session->Pump((*now)++);
    for (Frame& frame : client->Drain()) {
      pages.push_back(std::move(frame));
      const Frame& page = pages.back();
      if (page.body.BoolOr("done", true)) return pages;
      client->SendWant(id, page.body.GetInt("seq").value() + 1);
    }
  }
  ADD_FAILURE() << "query " << id << " never delivered its last page";
  return pages;
}

// Sends one query and pages it to completion; returns the paged facts.
std::string QueryAndPage(Session* session, TestClient* client,
                         Scheduler* scheduler, uint64_t* now,
                         const std::string& id, const std::string& source) {
  std::string data;
  for (const Frame& frame :
       PageFrames(session, client, scheduler, now, id, source)) {
    data += frame.body.StringOr("data", "");
  }
  return data;
}

// The facts a standalone evaluation of `source` writes.
std::string StandaloneFacts(const std::string& source) {
  Scheduler scheduler(DetScheduler());
  QueryRequest request;
  request.id = "ref";
  request.source = source;
  auto ticket = scheduler.Submit(std::move(request));
  return ticket.ok() ? scheduler.Wait(*ticket).facts : std::string();
}

// Transitive closure over the chain 1 -> 2 -> ... -> nodes:
// nodes * (nodes - 1) / 2 TC rows.
std::string ChainTcSource(int nodes) {
  std::string source =
      "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
      "input E;\noutput TC;\ninstance {\n";
  for (int i = 1; i < nodes; ++i) {
    source += "  E(" + std::to_string(i) + ", " + std::to_string(i + 1) +
              ");\n";
  }
  source +=
      "}\nprogram {\n"
      "  TC(x, y) :- E(x, y).\n"
      "  TC(x, z) :- TC(x, y), E(y, z).\n"
      "}\n";
  return source;
}

// Fact lines in a page's data.
size_t Rows(const std::string& data) {
  return static_cast<size_t>(std::count(data.begin(), data.end(), '\n'));
}

TEST_F(SessionTest, PagesDoubleFromPageRows) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  uint64_t now = 0;
  session.Pump(now++);
  client.Drain();

  // 21 TC rows between the `instance {` and `}` lines: 23 lines.
  const std::string source = ChainTcSource(7);
  std::vector<Frame> pages =
      PageFrames(&session, &client, &scheduler, &now, "q", source);
  std::vector<size_t> rows;
  std::string data;
  for (const Frame& page : pages) {
    EXPECT_EQ(page.body.GetInt("seq").value(),
              static_cast<int64_t>(rows.size()));
    rows.push_back(Rows(page.body.StringOr("data", "")));
    data += page.body.StringOr("data", "");
  }
  EXPECT_EQ(rows, (std::vector<size_t>{2, 4, 8, 9}));
  EXPECT_EQ(session.counters().pages_sent, pages.size());
  EXPECT_EQ(session.counters().delivered_completed, 1u);
  EXPECT_EQ(data, StandaloneFacts(source));
}

TEST_F(SessionTest, CancelMidStreamPushesOneTerminalPage) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("q", ChainTcSource(7));
  client.SendWant("q", 0);
  session.Pump(1);
  scheduler.RunUntilIdle();
  session.Pump(2);
  auto first = client.Drain();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].body.GetInt("seq").value(), 0);
  EXPECT_FALSE(first[0].body.GetBool("done").value());

  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.body.SetString("id", "q");
  client.Send(cancel);
  session.Pump(3);
  session.Pump(4);
  auto rest = client.Drain();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].type, FrameType::kPage);
  EXPECT_EQ(rest[0].body.GetInt("seq").value(), 3);  // the last page
  EXPECT_TRUE(rest[0].body.GetBool("done").value());
  EXPECT_EQ(session.counters().pages_sent, 2u);
  EXPECT_EQ(session.live_queries(), 0u);
  EXPECT_EQ(session.counters().delivered_completed +
                session.counters().delivered_cancelled,
            1u);
}

TEST_F(SessionTest, LongFactLinesAreCutAtThePageCeiling) {
  // Lines of 0.4 and 1.2 page ceilings: no page of 64 rows may carry
  // them whole, and the longest must be split inside the line.
  std::string source =
      "schema { relation R : D; }\ninput R;\noutput R;\ninstance {\n";
  for (char c : {'a', 'b', 'c', 'd'}) {
    source += "  R(\"" + std::string(kMaxPageBytes * 2 / 5, c) + "\");\n";
  }
  source += "  R(\"" + std::string(kMaxPageBytes * 6 / 5, 'z') + "\");\n";
  source += "  R(\"short\");\n}\n";

  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  uint64_t now = 0;
  session.Pump(now++);
  client.Drain();

  std::vector<Frame> pages =
      PageFrames(&session, &client, &scheduler, &now, "q", source);
  ASSERT_FALSE(pages.empty());
  EXPECT_TRUE(pages.back().body.GetBool("done").value());
  std::string data;
  bool split_line = false;
  for (const Frame& page : pages) {
    std::string part = page.body.StringOr("data", "");
    // The client's decoder accepted the frame, so it is inside
    // kMaxFramePayload; its facts are inside the page ceiling.
    EXPECT_LE(part.size(), kMaxPageBytes);
    if (!part.empty() && part.back() != '\n') split_line = true;
    data += part;
  }
  EXPECT_TRUE(split_line);
  EXPECT_GE(pages.size(), 4u);
  EXPECT_EQ(data, StandaloneFacts(source));
  EXPECT_EQ(session.counters().delivered_completed, 1u);
}

TEST_F(SessionTest, ReusedWireIdWithOtherFactsIsEvaluatedAfresh) {
  // Same schema and rules as kTcSource, a shorter chain.
  constexpr char kShortTc[] = R"(
schema {
  relation E  : [D, D];
  relation TC : [D, D];
}
input E;
output TC;
instance {
  E(1, 2);
}
program {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
)";
  std::string dir = ::testing::TempDir() + "/iqlkit_serve_reuse";
  std::filesystem::remove_all(dir);
  std::string long_facts = StandaloneFacts(kTcSource);
  std::string short_facts = StandaloneFacts(kShortTc);
  ASSERT_NE(long_facts, short_facts);

  SchedulerOptions sched = DetScheduler();
  sched.data_dir = dir;
  Scheduler scheduler(sched);
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  uint64_t now = 0;
  session.Pump(now++);
  client.Drain();
  // The wire id is free again once its answer is delivered; the second
  // program must not be answered from the first one's final snapshot.
  EXPECT_EQ(QueryAndPage(&session, &client, &scheduler, &now, "q", kTcSource),
            long_facts);
  EXPECT_EQ(QueryAndPage(&session, &client, &scheduler, &now, "q", kShortTc),
            short_facts);
  EXPECT_EQ(QueryAndPage(&session, &client, &scheduler, &now, "q", kTcSource),
            long_facts);
  EXPECT_EQ(session.counters().delivered_completed, 3u);
  std::filesystem::remove_all(dir);
}

TEST_F(SessionTest, NextDeadlineTracksTheNearestTimeout) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.idle_timeout_ms = 100;
  options.read_timeout_ms = 30;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(10));
  EXPECT_EQ(session.NextDeadlineMs(), 110u);  // idle
  EXPECT_FALSE(session.wants_write());
  std::string frame = EncodeFrame([] {
    Frame ping;
    ping.type = FrameType::kHello;
    ping.body.SetBool("ping", true);
    return ping;
  }());
  ASSERT_TRUE(client.stream.Write(frame.substr(0, 3)).ok());
  ASSERT_TRUE(session.Pump(20));
  EXPECT_EQ(session.NextDeadlineMs(), 50u);  // torn frame: read timeout
  ASSERT_TRUE(client.stream.Write(frame.substr(3)).ok());
  ASSERT_TRUE(session.Pump(25));
  EXPECT_EQ(session.NextDeadlineMs(), 125u);  // idle again, reset by ping
}

// ---- real TCP server -------------------------------------------------------

// A blocking loopback client for the TCP server.
class TcpTestClient {
 public:
  explicit TcpTestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) == 0;
  }
  ~TcpTestClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }

  // All frames in one write, so the server sees no later inbound bytes.
  bool Send(std::initializer_list<Frame> frames) {
    std::string bytes;
    for (const Frame& frame : frames) bytes += EncodeFrame(frame);
    return send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  // The next frame, or nullopt on EOF, a decode error, or `timeout_ms`
  // without a byte.
  std::optional<Frame> Read(int timeout_ms) {
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) return std::nullopt;
      if (next->has_value()) return std::move(**next);
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
      char buf[4096];
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

// The connection thread has no polling tick: a finished query reaches the
// client only because the scheduler's completion wakes the session, and
// the drain only because the serve loop pokes it. Either path broken would
// leave the client waiting for the 30 s idle timeout.
TEST_F(SessionTest, TcpSessionIsWokenByCompletionAndDrain) {
  SchedulerOptions sched;
  sched.workers = 2;
  Scheduler scheduler(sched);
  TcpServer server(&scheduler, ServeOptions{});
  auto port = server.Listen(0);
  ASSERT_TRUE(port.ok()) << port.status();
  ServeStats stats;
  std::thread serving([&] { stats = server.Serve(); });
  // A failed ASSERT returns early: drain and join so the test fails
  // instead of terminating on a joinable thread.
  struct JoinOnExit {
    TcpServer* server;
    std::thread* thread;
    ~JoinOnExit() {
      if (!thread->joinable()) return;
      server->RequestDrain();
      thread->join();
    }
  } join_on_exit{&server, &serving};
  {
    TcpTestClient client(*port);
    ASSERT_TRUE(client.connected());
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", kWireVersion);
    ASSERT_TRUE(client.Send({hello}));
    auto ack = client.Read(5000);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, FrameType::kHello);

    constexpr int kTimeoutMs = 5000;
    for (int q = 0; q < 3; ++q) {
      std::string id = "q" + std::to_string(q);
      Frame query;
      query.type = FrameType::kQuery;
      query.body.SetString("id", id).SetString("source", kTcSource);
      Frame want;
      want.type = FrameType::kPage;
      want.body.SetString("id", id).SetInt("want", 0);
      ASSERT_TRUE(client.Send({query, want}));
      auto start = std::chrono::steady_clock::now();
      auto page = client.Read(kTimeoutMs);
      ASSERT_TRUE(page.has_value()) << id;
      EXPECT_LT(std::chrono::steady_clock::now() - start,
                std::chrono::milliseconds(kTimeoutMs));
      ASSERT_EQ(page->type, FrameType::kPage);
      EXPECT_TRUE(page->body.BoolOr("done", false));
      EXPECT_EQ(page->body.StringOr("outcome", ""), "completed");
    }

    server.RequestDrain();
    auto drain = client.Read(kTimeoutMs);
    ASSERT_TRUE(drain.has_value());
    EXPECT_EQ(drain->type, FrameType::kDrain);
    EXPECT_FALSE(client.Read(kTimeoutMs).has_value());  // closed after DRAIN
  }
  serving.join();
  EXPECT_EQ(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.totals.delivered_completed, 3u);
  EXPECT_EQ(stats.close_reasons["drained"], 1u);
  EXPECT_EQ(scheduler.counters().live, 0u);
}

// ---- simulated serve loop --------------------------------------------------

std::vector<SimClientSpec> TwoClientSpecs() {
  std::vector<SimClientSpec> specs(2);
  specs[0].tenant = "alpha";
  specs[1].tenant = "beta";
  for (int q = 0; q < 3; ++q) {
    SimQuery query;
    query.id = "q" + std::to_string(q);
    query.source = kTcSource;
    query.at_ms = static_cast<uint64_t>(q);
    specs[0].queries.push_back(query);
    specs[1].queries.push_back(query);
  }
  return specs;
}

TEST_F(SessionTest, SimulatedClientsCompleteEverything) {
  Scheduler scheduler(DetScheduler(11));
  ServeOptions options;
  auto outcome = ServeSimulated(&scheduler, options, TwoClientSpecs(),
                                /*drain_at_ms=*/0, /*max_ms=*/5000);
  ASSERT_EQ(outcome.clients.size(), 2u);
  for (const auto& client : outcome.clients) {
    ASSERT_EQ(client.terminal.size(), 3u);
    for (const auto& [id, verdict] : client.terminal) {
      EXPECT_EQ(verdict, "outcome:completed") << id;
    }
  }
  EXPECT_EQ(outcome.stats.totals.delivered_completed, 6u);
  EXPECT_EQ(outcome.stats.totals.abandoned, 0u);
  // Both clients paged back byte-identical facts for the same query.
  EXPECT_EQ(outcome.clients[0].data.at("q0"), outcome.clients[1].data.at("q0"));
}

TEST_F(SessionTest, DrainMidStreamDeliversOrRejectsEverything) {
  Scheduler scheduler(DetScheduler(13));
  ServeOptions options;
  std::vector<SimClientSpec> specs(2);
  for (int c = 0; c < 2; ++c) {
    specs[c].tenant = "t" + std::to_string(c);
    for (int q = 0; q < 4; ++q) {
      SimQuery query;
      query.id = "q" + std::to_string(q);
      query.source = kTcSource;
      query.at_ms = static_cast<uint64_t>(q * 2);  // straddle the drain
      specs[c].queries.push_back(query);
    }
  }
  auto outcome = ServeSimulated(&scheduler, options, specs,
                                /*drain_at_ms=*/3, /*max_ms=*/5000);
  auto c = scheduler.counters();
  EXPECT_EQ(c.admitted,
            c.completed + c.tripped_partial + c.failed + c.cancelled);
  const auto& totals = outcome.stats.totals;
  EXPECT_EQ(totals.queries_accepted,
            totals.delivered_completed + totals.delivered_tripped +
                totals.delivered_cancelled + totals.delivered_failed +
                totals.abandoned);
  // Every client observed the drain and every pre-drain query got a
  // terminal verdict; post-drain submissions never happen (the sim client
  // stops submitting once DRAIN arrives).
  for (const auto& client : outcome.clients) {
    EXPECT_TRUE(client.drained);
    for (const auto& [id, verdict] : client.terminal) {
      EXPECT_TRUE(verdict.rfind("outcome:", 0) == 0 ||
                  verdict.rfind("error:", 0) == 0)
          << id << " -> " << verdict;
    }
  }
}

std::string RunTracedSim(uint64_t seed, const std::string& faults) {
  if (!faults.empty()) {
    auto config = FaultInjector::ParseSpec(faults);
    EXPECT_TRUE(config.ok());
    FaultInjector::Global().Configure(*config);
  }
  std::ostringstream trace;
  SchedulerOptions sched = DetScheduler(seed);
  sched.trace = &trace;
  Scheduler scheduler(sched);
  ServeOptions options;
  options.trace = &trace;
  ServeSimulated(&scheduler, options, TwoClientSpecs(), /*drain_at_ms=*/4,
                 /*max_ms=*/5000);
  FaultInjector::Global().Reset();
  return trace.str();
}

TEST_F(SessionTest, SimulatedTracesAreByteIdenticalPerSeed) {
  std::string first = RunTracedSim(42, "");
  std::string second = RunTracedSim(42, "");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // ...including under injected network faults...
  std::string faulty1 = RunTracedSim(42, "network=0.05,seed=9");
  std::string faulty2 = RunTracedSim(42, "network=0.05,seed=9");
  EXPECT_EQ(faulty1, faulty2);
  // ...and a different fault seed really changes the transcript.
  std::string other = RunTracedSim(42, "network=0.05,seed=10");
  EXPECT_NE(faulty1, other);
}

TEST_F(SessionTest, RefusedAcceptsAreDeterministicAndReported) {
  auto config = FaultInjector::ParseSpec("network=1.0,seed=2");
  ASSERT_TRUE(config.ok());
  FaultInjector::Global().Configure(*config);
  Scheduler scheduler(DetScheduler());
  ServeOptions options;
  auto outcome = ServeSimulated(&scheduler, options, TwoClientSpecs(),
                                /*drain_at_ms=*/0, /*max_ms=*/200);
  // p=1.0: every accept draw refuses.
  EXPECT_EQ(outcome.stats.sessions_refused, 2u);
  EXPECT_EQ(outcome.stats.sessions_accepted, 0u);
  EXPECT_TRUE(outcome.clients[0].refused);
  EXPECT_TRUE(outcome.clients[1].refused);
  EXPECT_EQ(scheduler.counters().submitted, 0u);
}

}  // namespace
}  // namespace server
}  // namespace iqlkit
