#include "common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>

namespace iqlbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string QueryId(char prefix, uint64_t n) {
  std::string id(1, prefix);
  id += std::to_string(n);
  return id;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  return out + "\"";
}

void SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, int64_t> SpanLog::SelfTotals() const {
  std::map<std::string, int64_t> self;
  for (const Span& s : spans_) {
    int64_t duration = s.end_ns - s.start_ns;
    self[s.name] += duration;
    if (s.parent[0] != '\0') self[s.parent] -= duration;
  }
  return self;
}

iqlkit::Status SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return iqlkit::UnavailableError("cannot write " + path);
  for (const Span& s : spans_) {
    out << "{\"query\":" << s.query << ",\"name\":\"" << s.name
        << "\",\"parent\":\"" << s.parent << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  out.close();
  if (!out) return iqlkit::UnavailableError("short write to " + path);
  return iqlkit::Status::Ok();
}

}  // namespace iqlbench
