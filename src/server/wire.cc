#include "server/wire.h"

#include <array>

#include "base/fault_injection.h"
#include "storage/bytes.h"
#include "storage/checksum.h"

namespace iqlkit {
namespace server {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kQuery:
      return "QUERY";
    case FrameType::kPage:
      return "PAGE";
    case FrameType::kCancel:
      return "CANCEL";
    case FrameType::kDrain:
      return "DRAIN";
    case FrameType::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

// ---- WireObject ------------------------------------------------------------

WireObject& WireObject::Set(std::string_view key, WireValue value) {
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const WireValue* WireObject::Find(std::string_view key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<std::string> WireObject::GetString(std::string_view key) const {
  const WireValue* v = Find(key);
  if (v == nullptr) {
    return NetworkError("frame missing field '" + std::string(key) + "'");
  }
  if (v->kind != WireValue::Kind::kString) {
    return NetworkError("frame field '" + std::string(key) +
                        "' is not a string");
  }
  return v->str;
}

Result<int64_t> WireObject::GetInt(std::string_view key) const {
  const WireValue* v = Find(key);
  if (v == nullptr) {
    return NetworkError("frame missing field '" + std::string(key) + "'");
  }
  if (v->kind != WireValue::Kind::kInt) {
    return NetworkError("frame field '" + std::string(key) +
                        "' is not an integer");
  }
  return v->num;
}

Result<bool> WireObject::GetBool(std::string_view key) const {
  const WireValue* v = Find(key);
  if (v == nullptr) {
    return NetworkError("frame missing field '" + std::string(key) + "'");
  }
  if (v->kind != WireValue::Kind::kBool) {
    return NetworkError("frame field '" + std::string(key) +
                        "' is not a boolean");
  }
  return v->flag;
}

std::string WireObject::StringOr(std::string_view key,
                                 std::string_view fallback) const {
  const WireValue* v = Find(key);
  return v != nullptr && v->kind == WireValue::Kind::kString
             ? v->str
             : std::string(fallback);
}

int64_t WireObject::IntOr(std::string_view key, int64_t fallback) const {
  const WireValue* v = Find(key);
  return v != nullptr && v->kind == WireValue::Kind::kInt ? v->num : fallback;
}

bool WireObject::BoolOr(std::string_view key, bool fallback) const {
  const WireValue* v = Find(key);
  return v != nullptr && v->kind == WireValue::Kind::kBool ? v->flag
                                                           : fallback;
}

namespace {

constexpr size_t kFrameHeaderBytes = 4 + 1 + 4;  // len, type, crc

// How each byte appears inside a JSON string: 0 = verbatim, 'u' = \u00XX,
// anything else = the letter after a backslash.
constexpr std::array<char, 256> kJsonEscape = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = 'u';
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\r'] = 'r';
  t['\t'] = 't';
  return t;
}();

// Sizes the escaped string first, so the output grows once and the bytes
// are written in a single pass.
void AppendJsonString(std::string* out, std::string_view s) {
  size_t width = 2;  // the quotes
  for (unsigned char c : s) {
    char e = kJsonEscape[c];
    width += e == 0 ? 1 : e == 'u' ? 6 : 2;
  }
  size_t at = out->size();
  out->resize(at + width);
  char* w = out->data() + at;
  *w++ = '"';
  for (unsigned char c : s) {
    char e = kJsonEscape[c];
    if (e == 0) {
      *w++ = static_cast<char>(c);
      continue;
    }
    *w++ = '\\';
    *w++ = e;
    if (e == 'u') {
      static constexpr char kHex[] = "0123456789abcdef";
      *w++ = '0';
      *w++ = '0';
      *w++ = kHex[c >> 4];
      *w++ = kHex[c & 0xF];
    }
  }
  *w = '"';
}

void AppendObjectJson(std::string* out, const WireObject& obj) {
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : obj.fields()) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(out, key);
    out->push_back(':');
    switch (value.kind) {
      case WireValue::Kind::kString:
        AppendJsonString(out, value.str);
        break;
      case WireValue::Kind::kInt:
        out->append(std::to_string(value.num));
        break;
      case WireValue::Kind::kBool:
        out->append(value.flag ? "true" : "false");
        break;
    }
  }
  out->push_back('}');
}

// Minimal recursive-descent scanner for the flat-object subset the
// protocol emits. Anything richer (arrays, nesting, floats, null) is a
// NETWORK_ERROR: a peer sending it is not speaking this protocol.
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  Result<WireObject> Object() {
    SkipSpace();
    if (!Consume('{')) return Err("expected '{'");
    WireObject obj;
    SkipSpace();
    if (Consume('}')) {
      SkipSpace();
      return AtEnd() ? Result<WireObject>(obj) : Err("trailing bytes");
    }
    for (;;) {
      SkipSpace();
      std::string key;
      IQL_RETURN_IF_ERROR(String(&key));
      SkipSpace();
      if (!Consume(':')) return Err("expected ':'");
      SkipSpace();
      WireValue value;
      IQL_RETURN_IF_ERROR(Value(&value));
      obj.Set(key, std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    SkipSpace();
    if (!AtEnd()) return Err("trailing bytes");
    return obj;
  }

 private:
  Status Value(WireValue* out) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      std::string s;
      IQL_RETURN_IF_ERROR(String(&s));
      *out = WireValue::String(std::move(s));
      return Status::Ok();
    }
    if (Lexeme("true")) {
      *out = WireValue::Bool(true);
      return Status::Ok();
    }
    if (Lexeme("false")) {
      *out = WireValue::Bool(false);
      return Status::Ok();
    }
    return Integer(out);
  }

  Status String(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'").status();
    out->clear();
    while (pos_ < text_.size()) {
      // Unescaped runs are appended whole.
      size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out->append(text_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ == text_.size()) break;
      if (text_[pos_++] == '"') return Status::Ok();
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Err("truncated \\u escape").status();
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return Err("bad \\u escape").status();
            }
          }
          // The encoder only emits \u00XX for control bytes; anything
          // above Latin-1 would need UTF-8 encoding this codec does not
          // promise.
          if (code > 0xFF) return Err("\\u escape out of range").status();
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Err("unknown escape").status();
      }
    }
    return Err("unterminated string").status();
  }

  Status Integer(WireValue* out) {
    size_t start = pos_;
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    uint64_t magnitude = 0;
    size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      magnitude = magnitude * 10 + static_cast<uint64_t>(text_[pos_] - '0');
      if (magnitude > (uint64_t{1} << 62)) {
        return Err("integer overflow").status();
      }
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      pos_ = start;
      return Err("expected a value").status();
    }
    if (pos_ < text_.size() && (text_[pos_] == '.' || text_[pos_] == 'e' ||
                                text_[pos_] == 'E')) {
      return Err("floats are not part of the protocol").status();
    }
    int64_t value = static_cast<int64_t>(magnitude);
    *out = WireValue::Int(negative ? -value : value);
    return Status::Ok();
  }

  bool Lexeme(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ == text_.size(); }

  Result<WireObject> Err(std::string_view what) {
    return NetworkError("bad frame payload at byte " + std::to_string(pos_) +
                        ": " + std::string(what));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string WireObject::ToJson() const {
  std::string out;
  AppendObjectJson(&out, *this);
  return out;
}

Result<WireObject> WireObject::FromJson(std::string_view json) {
  return JsonScanner(json).Object();
}

// ---- framing ---------------------------------------------------------------

std::string EncodeFrame(const Frame& frame) {
  // The payload is written straight into the frame after a header
  // placeholder; length and CRC are filled in once its size is known.
  std::string out(kFrameHeaderBytes, '\0');
  AppendObjectJson(&out, frame.body);
  std::string_view payload(out);
  payload.remove_prefix(kFrameHeaderBytes);
  const char type_byte = static_cast<char>(frame.type);
  storage::ByteWriter header;
  header.U32(static_cast<uint32_t>(1 + 4 + payload.size()));
  header.U8(static_cast<uint8_t>(type_byte));
  header.U32(storage::Crc32(payload,
                            storage::Crc32(std::string_view(&type_byte, 1))));
  out.replace(0, kFrameHeaderBytes, header.bytes());
  return out;
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (!poisoned_.ok()) return poisoned_;
  std::string_view view(buffer_);
  view.remove_prefix(consumed_);
  if (view.size() < 4) return std::optional<Frame>();
  storage::ByteReader header(view.substr(0, 4));
  uint32_t len = header.U32();
  if (len < 1 + 4) {
    poisoned_ = NetworkError("frame length " + std::to_string(len) +
                             " below the 5-byte header");
    return poisoned_;
  }
  if (len > 1 + 4 + kMaxFramePayload) {
    poisoned_ = NetworkError("frame length " + std::to_string(len) +
                             " exceeds the " +
                             std::to_string(kMaxFramePayload) +
                             "-byte payload ceiling");
    return poisoned_;
  }
  if (view.size() < 4 + static_cast<size_t>(len)) {
    return std::optional<Frame>();  // wait for the rest
  }
  std::string_view body = view.substr(4, len);
  uint8_t type_byte = static_cast<uint8_t>(body[0]);
  storage::ByteReader crc_reader(body.substr(1, 4));
  uint32_t want_crc = crc_reader.U32();
  std::string_view payload = body.substr(5);
  if (storage::Crc32(payload, storage::Crc32(body.substr(0, 1))) != want_crc) {
    poisoned_ = NetworkError("frame CRC mismatch (torn or corrupt frame)");
    return poisoned_;
  }
  if (type_byte > static_cast<uint8_t>(FrameType::kError)) {
    poisoned_ = NetworkError("unknown frame type " + std::to_string(type_byte));
    return poisoned_;
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type_byte);
  auto parsed = WireObject::FromJson(payload);
  if (!parsed.ok()) {
    poisoned_ = parsed.status();
    return poisoned_;
  }
  frame.body = std::move(*parsed);
  consumed_ += 4 + static_cast<size_t>(len);
  // Compact once the dead prefix dominates; keeps Feed() amortized O(1).
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  return std::optional<Frame>(std::move(frame));
}

// ---- memory streams --------------------------------------------------------

size_t MemoryPipe::Push(std::string_view bytes) {
  size_t room = capacity_ > data_.size() ? capacity_ - data_.size() : 0;
  size_t n = bytes.size() < room ? bytes.size() : room;
  data_.append(bytes.substr(0, n));
  return n;
}

size_t MemoryPipe::Pull(std::string* out, size_t max_bytes) {
  size_t n = data_.size() < max_bytes ? data_.size() : max_bytes;
  out->append(data_, 0, n);
  data_.erase(0, n);
  return n;
}

Result<size_t> MemoryStream::Read(std::string* out, size_t max_bytes) {
  MemoryPipe& pipe = in();
  if (pipe.size() == 0 && pipe.closed()) return size_t{0};  // EOF
  return pipe.Pull(out, max_bytes);
}

Status MemoryStream::Write(std::string_view bytes) {
  MemoryPipe& pipe = out_pipe();
  if (pipe.closed()) {
    return NetworkError("peer closed the connection");
  }
  if (pipe.capacity() - pipe.size() < bytes.size()) {
    // All-or-nothing: pushing a prefix would duplicate bytes when the
    // session retries the frame after the stall clears.
    return NetworkError("write stall: peer buffer full (" +
                        std::to_string(pipe.size()) + " of " +
                        std::to_string(pipe.capacity()) + " bytes queued)");
  }
  pipe.Push(bytes);
  return Status::Ok();
}

void MemoryStream::Close() {
  duplex_->c2s.Close();
  duplex_->s2c.Close();
}

bool MemoryStream::closed() const { return in().closed(); }

// ---- fault injection -------------------------------------------------------

bool InjectNetworkFault(NetworkFaultMode* mode) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.ShouldFail(FaultSite::kNetwork)) return false;
  uint64_t n = injector.injected(FaultSite::kNetwork);
  switch (n % 3) {
    case 1:
      *mode = NetworkFaultMode::kTornWrite;
      break;
    case 2:
      *mode = NetworkFaultMode::kDisconnect;
      break;
    default:
      *mode = NetworkFaultMode::kStall;
      break;
  }
  return true;
}

Result<size_t> FaultyStream::Read(std::string* out, size_t max_bytes) {
  NetworkFaultMode mode;
  if (InjectNetworkFault(&mode)) {
    switch (mode) {
      case NetworkFaultMode::kDisconnect:
        wrapped_->Close();
        return NetworkError("injected disconnect on read");
      case NetworkFaultMode::kStall:
        return NetworkError("injected read stall");
      case NetworkFaultMode::kTornWrite:
        // A torn *inbound* frame: deliver half of what is available, then
        // reset. The decoder reports the truncation as NETWORK_ERROR.
        {
          std::string chunk;
          auto r = wrapped_->Read(&chunk, max_bytes);
          if (!r.ok()) return r;
          out->append(chunk, 0, chunk.size() / 2);
          wrapped_->Close();
          return NetworkError("injected torn read");
        }
    }
  }
  return wrapped_->Read(out, max_bytes);
}

Status FaultyStream::Write(std::string_view bytes) {
  NetworkFaultMode mode;
  if (InjectNetworkFault(&mode)) {
    switch (mode) {
      case NetworkFaultMode::kTornWrite: {
        // Half the frame reaches the wire; the connection is then dead.
        (void)wrapped_->Write(bytes.substr(0, bytes.size() / 2));
        wrapped_->Close();
        return NetworkError("injected torn write after " +
                            std::to_string(bytes.size() / 2) + " of " +
                            std::to_string(bytes.size()) + " bytes");
      }
      case NetworkFaultMode::kDisconnect:
        wrapped_->Close();
        return NetworkError("injected disconnect on write");
      case NetworkFaultMode::kStall:
        return NetworkError("injected write stall: slow client");
    }
  }
  return wrapped_->Write(bytes);
}

bool IsStallError(const Status& status) {
  return status.code() == StatusCode::kNetworkError &&
         status.message().find("stall") != std::string::npos;
}

}  // namespace server
}  // namespace iqlkit
