#ifndef IQLBENCH_COMMON_H_
#define IQLBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"

namespace iqlbench {

// Monotonic nanoseconds on one process-wide origin, so spans recorded by
// the load client, the replay and the scheduler threads share a timeline.
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// SplitMix64 finalizer: derives independent sub-seeds from one --seed.
uint64_t Mix64(uint64_t x);

// The id of the n-th query of a stream: `prefix` then the decimal n.
std::string QueryId(char prefix, uint64_t n);

// Quantile with linear interpolation between closest ranks (q in [0, 1]);
// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// Shortest decimal that round-trips the double (every measured digit).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

// One timed interval of one query, recorded from outside the layer it
// names. `parent` is the name of the enclosing span ("" for a root); span
// trees are built so that a parent name is unique within its query.
struct Span {
  uint64_t query = 0;
  const char* name = "";
  const char* parent = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans kept in memory and written out as JSON lines when the run ends.
class SpanLog {
 public:
  void Add(const Span& span);
  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: summed duration minus the summed duration of the spans
  // whose parent it is (self time), in nanoseconds.
  std::map<std::string, int64_t> SelfTotals() const;

  // {query, name, parent, start_ns, end_ns} per line.
  iqlkit::Status WriteJsonl(const std::string& path) const;

 private:
  std::mutex mu_;  // the scheduler replay adds spans from several threads
  std::vector<Span> spans_;
};

// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace iqlbench

#endif  // IQLBENCH_COMMON_H_
