// Wire-protocol codec tests: frame layout, the flat-JSON payload subset,
// incremental decoding, CRC detection of torn/corrupt frames, the bounded
// in-memory streams, and FaultSite::kNetwork injection.

#include "server/wire.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "base/fault_injection.h"
#include "storage/bytes.h"
#include "storage/checksum.h"

namespace iqlkit {
namespace server {
namespace {

Frame MakeQuery(const std::string& id, const std::string& source) {
  Frame f;
  f.type = FrameType::kQuery;
  f.body.SetString("id", id).SetString("source", source);
  return f;
}

TEST(WireObject, TypedGettersEnforceKinds) {
  WireObject obj;
  obj.SetString("s", "hello").SetInt("n", -42).SetBool("b", true);
  EXPECT_EQ(obj.GetString("s").value(), "hello");
  EXPECT_EQ(obj.GetInt("n").value(), -42);
  EXPECT_TRUE(obj.GetBool("b").value());
  EXPECT_FALSE(obj.GetString("n").ok());
  EXPECT_FALSE(obj.GetInt("missing").ok());
  EXPECT_EQ(obj.GetInt("missing").status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(obj.StringOr("missing", "fb"), "fb");
  EXPECT_EQ(obj.IntOr("s", 7), 7);  // wrong kind falls back too
}

TEST(WireObject, JsonRoundTripPreservesOrderAndValues) {
  WireObject obj;
  obj.SetString("id", "q1")
      .SetInt("seq", 3)
      .SetBool("done", false)
      .SetString("data", "line \"quoted\"\nwith\ttabs\x01");
  std::string json = obj.ToJson();
  auto parsed = WireObject::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToJson(), json);  // deterministic re-encoding
  EXPECT_EQ(parsed->GetString("data").value(), "line \"quoted\"\nwith\ttabs\x01");
}

TEST(WireObject, RefusesRichJson) {
  EXPECT_FALSE(WireObject::FromJson(R"({"a":[1,2]})").ok());
  EXPECT_FALSE(WireObject::FromJson(R"({"a":{"b":1}})").ok());
  EXPECT_FALSE(WireObject::FromJson(R"({"a":1.5})").ok());
  EXPECT_FALSE(WireObject::FromJson(R"({"a":1e3})").ok());
  EXPECT_FALSE(WireObject::FromJson(R"({"a":null})").ok());
  EXPECT_FALSE(WireObject::FromJson(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(
      WireObject::FromJson(R"({"a":99999999999999999999999})").ok());
  EXPECT_TRUE(WireObject::FromJson(R"({})").ok());
  EXPECT_TRUE(WireObject::FromJson(" { \"a\" : -3 } ").ok());
}

TEST(Framing, LayoutIsLengthTypeCrcPayload) {
  Frame frame = MakeQuery("q", "src");
  std::string bytes = EncodeFrame(frame);
  std::string payload = frame.body.ToJson();
  ASSERT_EQ(bytes.size(), 4 + 1 + 4 + payload.size());
  storage::ByteReader r(bytes);
  EXPECT_EQ(r.U32(), 1 + 4 + payload.size());                // len
  EXPECT_EQ(r.U8(), static_cast<uint8_t>(FrameType::kQuery));  // type
  std::string crc_input;
  crc_input.push_back(static_cast<char>(FrameType::kQuery));
  crc_input.append(payload);
  EXPECT_EQ(r.U32(), storage::Crc32(crc_input));  // crc over type+payload
  EXPECT_EQ(bytes.substr(9), payload);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// Exact frame bytes: a change to the codec must not move a single byte on
// the wire (every escape class, a negative integer and a boolean).
TEST(Framing, EncodedFramesArePinned) {
  Frame page;
  page.type = FrameType::kPage;
  page.body.SetString("id", "q1")
      .SetInt("seq", 2)
      .SetString("data", std::string("TC([\"1\", \"2\"]);\nx\t\\") +
                             std::string("\x01\x7f\xff\x00", 4))
      .SetBool("done", true)
      .SetString("outcome", "completed")
      .SetInt("attempts", -1);
  EXPECT_EQ(Hex(EncodeFrame(page)),
            "7a0000000279fda0637b226964223a227131222c22736571223a322c226461"
            "7461223a225443285b5c22315c222c205c22325c225d293b5c6e785c745c5c"
            "5c75303030317fff5c7530303030222c22646f6e65223a747275652c226f75"
            "74636f6d65223a22636f6d706c65746564222c22617474656d707473223a2d"
            "317d");
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body.SetInt("version", 1).SetString("tenant", "t");
  EXPECT_EQ(Hex(EncodeFrame(hello)),
            "1f0000000096bff1f07b2276657273696f6e223a312c2274656e616e74223a"
            "2274227d");
}

TEST(Framing, EveryByteValueRoundTrips) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  Frame page;
  page.type = FrameType::kPage;
  page.body.SetString("data", all).SetString(all, "key");
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(page));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kPage);
  EXPECT_EQ((*next)->body.GetString("data").value(), all);
  EXPECT_EQ((*next)->body.GetString(all).value(), "key");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, DecoderReassemblesByteAtATime) {
  std::string bytes = EncodeFrame(MakeQuery("q1", "a")) +
                      EncodeFrame(MakeQuery("q2", "b"));
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char c : bytes) {
    decoder.Feed(std::string_view(&c, 1));
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].body.GetString("id").value(), "q1");
  EXPECT_EQ(frames[1].body.GetString("id").value(), "q2");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, CrcMismatchPoisonsTheDecoder) {
  std::string bytes = EncodeFrame(MakeQuery("q1", "a"));
  bytes[bytes.size() - 1] ^= 0x40;  // flip a payload bit
  FrameDecoder decoder;
  decoder.Feed(bytes);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNetworkError);
  // Sticky: feeding a good frame afterwards cannot resynchronize.
  decoder.Feed(EncodeFrame(MakeQuery("q2", "b")));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(Framing, OversizeAndUndersizeLengthsAreRejected) {
  {
    storage::ByteWriter w;
    w.U32(1 + 4 + kMaxFramePayload + 1);
    FrameDecoder decoder;
    decoder.Feed(w.Take());
    EXPECT_FALSE(decoder.Next().ok());
  }
  {
    storage::ByteWriter w;
    w.U32(3);  // below the 5-byte frame header
    FrameDecoder decoder;
    decoder.Feed(w.Take());
    EXPECT_FALSE(decoder.Next().ok());
  }
}

TEST(Framing, UnknownTypeByteIsRejected) {
  std::string payload = "{}";
  std::string crc_input;
  crc_input.push_back(static_cast<char>(17));
  crc_input.append(payload);
  storage::ByteWriter w;
  w.U32(static_cast<uint32_t>(1 + 4 + payload.size()));
  w.U8(17);
  w.U32(storage::Crc32(crc_input));
  w.Bytes(payload);
  FrameDecoder decoder;
  decoder.Feed(w.Take());
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("unknown frame type"),
            std::string::npos);
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven Crc32 must agree with.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(storage::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32(""), 0u);
  EXPECT_EQ(storage::Crc32("6789", storage::Crc32("12345")), 0xCBF43926u);
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthAndAlignment) {
  std::string buffer(64 + 8, '\0');
  uint32_t x = 0x9E3779B9u;
  for (char& c : buffer) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 64; ++len) {
      std::string_view range(buffer.data() + align, len);
      ASSERT_EQ(storage::Crc32(range), BitwiseCrc32(range))
          << "align " << align << ", length " << len;
      // Chaining at any split point gives the same value.
      size_t half = len / 2;
      ASSERT_EQ(storage::Crc32(range.substr(half),
                               storage::Crc32(range.substr(0, half))),
                BitwiseCrc32(range))
          << "align " << align << ", length " << len;
    }
  }
}

TEST(MemoryStreams, DuplexMovesBytesAndSignalsEof) {
  MemoryDuplex duplex;
  MemoryStream client(&duplex, /*server_side=*/false);
  MemoryStream server(&duplex, /*server_side=*/true);
  ASSERT_TRUE(client.Write("hello").ok());
  std::string got;
  ASSERT_EQ(server.Read(&got, 64).value(), 5u);
  EXPECT_EQ(got, "hello");
  // Empty and open: would-block, not EOF.
  got.clear();
  EXPECT_EQ(server.Read(&got, 64).value(), 0u);
  EXPECT_FALSE(server.closed());
  client.Close();
  EXPECT_EQ(server.Read(&got, 64).value(), 0u);
  EXPECT_TRUE(server.closed());
}

TEST(MemoryStreams, BoundedPipeStallsWholeFrames) {
  MemoryDuplex duplex(/*capacity=*/8);
  MemoryStream client(&duplex, /*server_side=*/false);
  Status first = client.Write("12345678");
  ASSERT_TRUE(first.ok());
  Status stalled = client.Write("9");
  ASSERT_FALSE(stalled.ok());
  EXPECT_TRUE(IsStallError(stalled));
  // All-or-nothing: the stalled byte was not queued, so draining and
  // retrying cannot duplicate anything.
  std::string got;
  MemoryStream server(&duplex, /*server_side=*/true);
  ASSERT_EQ(server.Read(&got, 64).value(), 8u);
  ASSERT_TRUE(client.Write("9").ok());
  ASSERT_EQ(server.Read(&got, 64).value(), 1u);
  EXPECT_EQ(got, "123456789");
}

class NetworkFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().Reset();
    unsetenv("IQLKIT_FAULTS");
  }

  void Arm(const std::string& spec) {
    auto config = FaultInjector::ParseSpec(spec);
    ASSERT_TRUE(config.ok()) << config.status();
    FaultInjector::Global().Configure(*config);
  }
};

TEST_F(NetworkFaultTest, SpecParsesAndModesCycle) {
  Arm("network=1.0,seed=5");
  NetworkFaultMode mode;
  // p=1: every draw injects; modes cycle by injected count (n%3 with the
  // same mapping as the storage site's short-write/fsync/lost-rename).
  ASSERT_TRUE(InjectNetworkFault(&mode));
  EXPECT_EQ(mode, NetworkFaultMode::kTornWrite);  // count 1
  ASSERT_TRUE(InjectNetworkFault(&mode));
  EXPECT_EQ(mode, NetworkFaultMode::kDisconnect);  // count 2
  ASSERT_TRUE(InjectNetworkFault(&mode));
  EXPECT_EQ(mode, NetworkFaultMode::kStall);  // count 3
  ASSERT_TRUE(InjectNetworkFault(&mode));
  EXPECT_EQ(mode, NetworkFaultMode::kTornWrite);  // count 4
}

TEST_F(NetworkFaultTest, MalformedNetworkSpecFullyResets) {
  // Malformed network= values are structured parse errors, exactly like
  // the storage site's.
  EXPECT_FALSE(FaultInjector::ParseSpec("network=banana").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("network=1.5").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("network=0.5,bogus=1").ok());
  // And via the environment: a bad spec never half-applies on top of a
  // live config -- the injector is fully reset.
  Arm("network=1.0,seed=1");
  setenv("IQLKIT_FAULTS", "network=0.5,storage=nope", 1);
  EXPECT_FALSE(FaultInjector::Global().ConfigureFromEnv().ok());
  NetworkFaultMode mode;
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(InjectNetworkFault(&mode));
  }
}

TEST_F(NetworkFaultTest, TornWriteDeliversAPrefixThenKillsTheStream) {
  Arm("network=1.0,seed=3");
  MemoryDuplex duplex;
  MemoryStream raw(&duplex, /*server_side=*/false);
  FaultyStream faulty(&raw);
  std::string frame = EncodeFrame(MakeQuery("q", "some source text"));
  Status wrote = faulty.Write(frame);  // first injection: torn write
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.code(), StatusCode::kNetworkError);
  MemoryStream server(&duplex, /*server_side=*/true);
  std::string got;
  ASSERT_TRUE(server.Read(&got, 1 << 16).ok());
  EXPECT_EQ(got.size(), frame.size() / 2);  // exactly half reached the wire
  // The receiver's decoder refuses the torn frame: either it waits for
  // bytes that never come (stream closed) or the CRC fails.
  FrameDecoder decoder;
  decoder.Feed(got);
  auto next = decoder.Next();
  if (next.ok()) {
    EXPECT_FALSE(next->has_value());
    EXPECT_TRUE(server.closed());
  }
}

TEST_F(NetworkFaultTest, StallErrorsAreDistinguished) {
  EXPECT_TRUE(IsStallError(NetworkError("injected write stall: slow client")));
  EXPECT_FALSE(IsStallError(NetworkError("injected disconnect on write")));
  EXPECT_FALSE(IsStallError(UnavailableError("stall")));  // wrong code
}

}  // namespace
}  // namespace server
}  // namespace iqlkit
