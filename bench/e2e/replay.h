#ifndef IQLBENCH_REPLAY_H_
#define IQLBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace iqlbench {

struct ReplayConfig {
  const Workload* workload = nullptr;
  const std::vector<Unit>* pool = nullptr;
  uint64_t stream_seed = 0;
  size_t queries = 512;       // prefix of the seeded stream
  size_t workers = 2;         // the served scheduler's worker count
  size_t page_rows = 64;      // the served session's page size
  bool fsync = false;         // the served durable server's fsync policy
  std::string dir;            // where durable runs put their directories
};

struct ReplayReport {
  // Per-layer metric values keyed by BENCHMARK.json name (the ones the
  // replay can measure; the served phase supplies the rest).
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// Replays the first `queries` queries of the workload's stream through
// each layer's public functions, timing every call from outside:
//   - serially, as the scheduler runs one attempt (parse, typecheck, load,
//     [storage begin], eval [storage step commits], WriteFacts,
//     [storage finalize]) under a `direct` span, alternating block by
//     block with
//   - an in-process Scheduler (Submit -> Wait) driven by the workload's
//     client count of threads;
//   - serially again with EvalMetrics on, for the evaluator's counts;
//   - through the wire codec, frame by frame as one served query moves.
// Every result is byte-checked against the pool's reference.
ReplayReport Replay(const ReplayConfig& config, SpanLog* spans);

}  // namespace iqlbench

#endif  // IQLBENCH_REPLAY_H_
