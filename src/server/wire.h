#ifndef IQLKIT_SERVER_WIRE_H_
#define IQLKIT_SERVER_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace iqlkit {
namespace server {

// The iqlserve wire protocol: length-prefixed frames with JSON payloads.
//
//   [u32 len][u8 type][u32 crc][payload]        (little-endian, like IQS1)
//
// `len` counts everything after itself (1 + 4 + payload bytes); `crc` is
// CRC-32 (storage/checksum.h) over the type byte followed by the payload,
// so a torn or bit-rotted frame is detected before its JSON is looked at.
// The payload is one *flat* JSON object (string / integer / boolean
// values only) -- rich structure travels inside string fields (IQL source
// in QUERY, serialized facts in PAGE), which keeps the codec small enough
// to audit and the frames stable enough to golden-pin.
//
// Frame types and their fields (all sessions start with a HELLO
// handshake; see session.h for the full lifecycle):
//
//   HELLO   c->s  {version, tenant}            handshake
//           s->c  {version, session, max_inflight, page_rows}
//           c->s  {ping: true}                 heartbeat, echoed with
//           s->c  {pong: true}                 the same frame type
//   QUERY   c->s  {id, source, class?, priority?, max_steps?, timeout_ms?,
//                  max_memory?, reserve?}
//   PAGE    c->s  {id, want}                   request page `want` (credit)
//           s->c  {id, seq, data, done, outcome?, status?, code?, attempts?}
//                 `data` is a byte range of the result's fact listing;
//                 the ranges of seq 0, 1, ... concatenate to the whole.
//                 Page 0 holds `page_rows` fact lines, each later page
//                 twice the lines of the one before, and no page more than
//                 kMaxPageBytes (session.h) raw bytes: a page ends early
//                 at that ceiling, at a line boundary when the line fits
//                 and inside a longer line otherwise.
//   CANCEL  c->s  {id}
//   DRAIN   s->c  {reason}                     server stops accepting
//   ERROR   both  {code, message, id?}         structured failure
enum class FrameType : uint8_t {
  kHello = 0,
  kQuery = 1,
  kPage = 2,
  kCancel = 3,
  kDrain = 4,
  kError = 5,
};

// Stable upper-case name: "HELLO", "QUERY", ...
const char* FrameTypeName(FrameType type);

// Protocol version carried in every HELLO; a mismatch is refused with an
// ERROR frame before any query is accepted.
inline constexpr int64_t kWireVersion = 1;

// Hard ceiling on one frame's payload: a hostile or corrupt length prefix
// must never drive a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;

// One value of a flat JSON payload object.
struct WireValue {
  enum class Kind : uint8_t { kString, kInt, kBool };
  Kind kind = Kind::kString;
  std::string str;
  int64_t num = 0;
  bool flag = false;

  static WireValue String(std::string s) {
    WireValue v;
    v.kind = Kind::kString;
    v.str = std::move(s);
    return v;
  }
  static WireValue Int(int64_t n) {
    WireValue v;
    v.kind = Kind::kInt;
    v.num = n;
    return v;
  }
  static WireValue Bool(bool b) {
    WireValue v;
    v.kind = Kind::kBool;
    v.flag = b;
    return v;
  }
};

// A flat JSON object in insertion order (deterministic encoding: the same
// field sequence always serializes to the same bytes, which is what makes
// simulated-client traces byte-identical per seed).
class WireObject {
 public:
  WireObject& Set(std::string_view key, WireValue value);
  WireObject& SetString(std::string_view key, std::string_view value) {
    return Set(key, WireValue::String(std::string(value)));
  }
  WireObject& SetInt(std::string_view key, int64_t value) {
    return Set(key, WireValue::Int(value));
  }
  WireObject& SetBool(std::string_view key, bool value) {
    return Set(key, WireValue::Bool(value));
  }

  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  // Typed getters: missing key or wrong kind is a structured error (the
  // session turns it into an ERROR frame, never a crash).
  Result<std::string> GetString(std::string_view key) const;
  Result<int64_t> GetInt(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;
  // Lenient forms for optional fields.
  std::string StringOr(std::string_view key, std::string_view fallback) const;
  int64_t IntOr(std::string_view key, int64_t fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;

  // {"key":"value","n":1,...} with minimal escaping (\" \\ \n \r \t and
  // \u00XX for other control bytes).
  std::string ToJson() const;
  // Parses a flat object; nested arrays/objects, floats, and null are
  // refused (the protocol never emits them).
  static Result<WireObject> FromJson(std::string_view json);

  const std::vector<std::pair<std::string, WireValue>>& fields() const {
    return fields_;
  }

 private:
  const WireValue* Find(std::string_view key) const;

  std::vector<std::pair<std::string, WireValue>> fields_;
};

struct Frame {
  FrameType type = FrameType::kError;
  WireObject body;
};

// Serializes a frame to its on-wire bytes (length prefix, type, CRC,
// JSON payload).
std::string EncodeFrame(const Frame& frame);

// Incremental frame decoder: feed bytes as they arrive, pull complete
// frames out. A CRC mismatch, an oversize or truncated-by-close frame, an
// unknown type byte, or unparseable JSON is a NETWORK_ERROR -- the decoder
// is then poisoned (the stream has lost sync; the session must close).
class FrameDecoder {
 public:
  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  // One complete frame, std::nullopt when more bytes are needed, or the
  // sticky decode error.
  Result<std::optional<Frame>> Next();

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // compacted lazily
  Status poisoned_;
};

// ---- byte streams ---------------------------------------------------------

// Transport abstraction under one session: a TCP socket in the real
// server, an in-memory duplex half for simulated clients and tests. Reads
// and writes move whole buffers; short writes only ever come from fault
// injection or a closed peer.
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // Appends up to `max_bytes` of available input to `*out`. Returns the
  // byte count (0 = clean EOF) or an error (reset, injected fault). Never
  // blocks; the caller owns readiness (poll in the real server, the step
  // loop in simulation).
  virtual Result<size_t> Read(std::string* out, size_t max_bytes) = 0;

  // Accepts the whole buffer or fails without consuming any of it. A
  // stall (peer not draining; see IsStallError) is retryable with the
  // same bytes; any other error means the wire has an incomplete frame on
  // it and the connection is unusable. An implementation may accept bytes
  // it has not yet pushed to the peer (FdStream stashes the unsent tail
  // of one frame); Flush() drains such internal buffers.
  virtual Status Write(std::string_view bytes) = 0;

  // Pushes any internally buffered bytes toward the peer. Ok when nothing
  // remains buffered; a stall error while the peer is not draining.
  virtual Status Flush() { return Status::Ok(); }

  virtual void Close() = 0;
  virtual bool closed() const = 0;
};

// One direction of an in-process connection: a byte queue with a bounded
// capacity so a stalled reader exerts real backpressure on the writer.
// The two ends of a simulated connection are two MemoryPipes; see
// MemoryDuplex.
class MemoryPipe {
 public:
  explicit MemoryPipe(size_t capacity = 1 << 20) : capacity_(capacity) {}

  size_t size() const { return data_.size(); }
  size_t capacity() const { return capacity_; }
  bool closed() const { return closed_; }
  void Close() { closed_ = true; }

  // Appends what fits; returns the bytes accepted (the rest would block).
  size_t Push(std::string_view bytes);
  // Moves up to max_bytes out of the queue.
  size_t Pull(std::string* out, size_t max_bytes);

 private:
  std::string data_;
  size_t capacity_;
  bool closed_ = false;
};

// The two ends of an in-process connection. `client` writes into `c2s`
// and reads from `s2c`; `server` is the mirror image. Single-threaded by
// design: the deterministic serve loop steps clients and sessions from
// one thread, so no locking (and no nondeterministic interleaving) exists.
struct MemoryDuplex {
  explicit MemoryDuplex(size_t capacity = 1 << 20)
      : c2s(capacity), s2c(capacity) {}
  // Asymmetric capacities, e.g. a tiny s2c to model a slow client that
  // stops draining its socket.
  MemoryDuplex(size_t c2s_capacity, size_t s2c_capacity)
      : c2s(c2s_capacity), s2c(s2c_capacity) {}
  MemoryPipe c2s;
  MemoryPipe s2c;
};

// A ByteStream view of one side of a MemoryDuplex.
class MemoryStream : public ByteStream {
 public:
  // server side reads c2s / writes s2c; client side the reverse.
  MemoryStream(MemoryDuplex* duplex, bool server_side)
      : duplex_(duplex), server_(server_side) {}

  Result<size_t> Read(std::string* out, size_t max_bytes) override;
  Status Write(std::string_view bytes) override;
  void Close() override;
  bool closed() const override;

 private:
  MemoryPipe& in() { return server_ ? duplex_->c2s : duplex_->s2c; }
  MemoryPipe& out_pipe() { return server_ ? duplex_->s2c : duplex_->c2s; }
  const MemoryPipe& in() const { return server_ ? duplex_->c2s : duplex_->s2c; }

  MemoryDuplex* duplex_;
  bool server_;
};

// ---- network fault injection ----------------------------------------------

// Deterministic failure modes for FaultSite::kNetwork, cycled by injected
// count exactly like the storage site's short-write/fsync/lost-rename
// rotation, so a seeded soak hits all of them in a reproducible order.
// kRefusedAccept is drawn at the accept site (serve_loop), the other
// three at stream reads/writes.
enum class NetworkFaultMode : uint8_t {
  kTornWrite = 0,   // half the bytes reach the wire, then the peer is gone
  kDisconnect = 1,  // connection reset mid-read/mid-write
  kStall = 2,       // the peer stops draining; the op reports a stall
};

// Consults the injector; on injection picks the mode from the injected
// count. Returns false almost always (probability p_network).
bool InjectNetworkFault(NetworkFaultMode* mode);

// A ByteStream wrapper that consults FaultSite::kNetwork on every read
// and write. Torn writes push a prefix of the frame to the wrapped
// stream and then fail (the peer sees a truncated frame and must treat
// it as NETWORK_ERROR); disconnects fail without a payload; stalls
// surface as a distinguished NETWORK_ERROR mentioning "stall" which the
// session charges against the peer's write timeout instead of closing
// instantly.
class FaultyStream : public ByteStream {
 public:
  explicit FaultyStream(ByteStream* wrapped) : wrapped_(wrapped) {}

  Result<size_t> Read(std::string* out, size_t max_bytes) override;
  Status Write(std::string_view bytes) override;
  Status Flush() override { return wrapped_->Flush(); }
  void Close() override { wrapped_->Close(); }
  bool closed() const override { return wrapped_->closed(); }

 private:
  ByteStream* wrapped_;
};

// True for wire-level failures that name an injected or real stall (the
// session maps these onto the slow-client write-timeout path).
bool IsStallError(const Status& status);

}  // namespace server
}  // namespace iqlkit

#endif  // IQLKIT_SERVER_WIRE_H_
