#ifndef IQLBENCH_WORKLOAD_H_
#define IQLBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace iqlbench {

// Which units a workload's pool holds.
enum class Mix { kTcSmall, kTcLarge, kInvent };

// One traffic mix. Every workload is a closed loop: each connection keeps
// exactly one query in flight.
struct Workload {
  const char* name;
  Mix mix;
  size_t connections;
  bool durable;  // the server gets a fresh --data-dir (fsync on)
};

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(std::string_view name);

// One self-contained IQL source unit, facts inline in the source text as a
// wire client sends them.
struct Unit {
  std::string kind;  // tc, triangle, graph-encoding, nest, powerset
  int size = 0;      // nodes, keys or elements
  std::string source;
  std::string expected;  // WriteFacts of the in-process reference run
};

inline constexpr size_t kPoolSize = 128;

// The workload's pool of kPoolSize distinct units. Sizes are spread evenly
// over each kind's range, so only the random facts depend on `seed`;
// durable-tc shares tc-small's pool.
std::vector<Unit> BuildPool(const Workload& workload, uint64_t seed);

// The output bytes the server must return for `source`: parse into a fresh
// universe, load the facts, RunUnit serially, WriteFacts -- the path
// Scheduler::ExecuteAttempt takes.
iqlkit::Result<std::string> ReferenceFacts(const std::string& source);

// Fills every unit's `expected` on up to `threads` threads.
iqlkit::Status ComputeReferences(std::vector<Unit>* pool, size_t threads);

// The seeded order in which queries draw from the pool: shuffled passes,
// so every unit is drawn equally often.
class QueryStream {
 public:
  QueryStream(size_t pool_size, uint64_t seed);
  size_t Next();

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

}  // namespace iqlbench

#endif  // IQLBENCH_WORKLOAD_H_
