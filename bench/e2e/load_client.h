#ifndef IQLBENCH_LOAD_CLIENT_H_
#define IQLBENCH_LOAD_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.h"
#include "common.h"
#include "server/wire.h"
#include "workload.h"

namespace iqlbench {

// One stretch of the closed loop. Queries are attributed to the phase in
// which their QUERY frame was sent; completions to the phase in which
// their terminal PAGE arrived.
struct Phase {
  double seconds = 0;
  bool record = false;  // latency samples count toward the metrics
  bool trace = false;   // client spans are recorded
};

// What one query did on the wire.
struct QueryRecord {
  uint64_t query = 0;  // index in the seeded stream
  size_t phase = 0;
  int64_t sent_ns = 0;
  int64_t first_page_ns = 0;
  int64_t done_ns = 0;
  uint64_t bytes_out = 0;  // client -> server frames
  uint64_t bytes_in = 0;   // server -> client frames
  uint32_t pages = 0;
  bool ok = false;  // completed and byte-identical to the reference
};

struct LoadReport {
  std::vector<QueryRecord> queries;     // every query sent
  std::vector<uint64_t> completions;    // per phase, by arrival time
  std::vector<int64_t> phase_start_ns;  // size phases + 1 (last = end)
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few failure messages
};

// A closed-loop wire client: N TCP connections to one server, driven from
// a single thread with poll(). Every connection keeps one query in flight
// and sends the next right after the terminal PAGE; every served result
// is byte-checked against the pool's reference.
class LoadClient {
 public:
  LoadClient(const std::vector<Unit>* pool, uint64_t stream_seed,
             SpanLog* spans);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  // Opens `connections` sessions to 127.0.0.1:`port` and completes every
  // HELLO handshake.
  iqlkit::Status Connect(uint16_t port, size_t connections, double timeout_s);

  // Runs the loop through `phases`; `boundary(i)` is called as phase i
  // begins and `boundary(phases.size())` when the last one ends. After the
  // last phase no query is sent and the in-flight ones are awaited.
  LoadReport Run(const std::vector<Phase>& phases,
                 const std::function<void(size_t)>& boundary);

  void Close();

 private:
  struct Conn {
    int fd = -1;
    iqlkit::server::FrameDecoder decoder;
    std::string outbox;
    bool alive = true;
    bool hello_acked = false;
    long inflight = -1;  // index into LoadReport::queries, -1 when idle
    size_t unit = 0;
    std::string data;
    int64_t page_request_ns = 0;
  };

  void Fail(LoadReport* report, const std::string& message);
  void Send(Conn* conn, const iqlkit::server::Frame& frame,
            QueryRecord* record);
  void Flush(Conn* conn);
  void StartQuery(Conn* conn, size_t phase, LoadReport* report);
  // Handles one inbound frame of a running loop.
  void OnFrame(Conn* conn, const iqlkit::server::Frame& frame,
               const std::vector<Phase>& phases, LoadReport* report);
  void Lose(Conn* conn, const std::string& why, LoadReport* report);

  const std::vector<Unit>* pool_;
  QueryStream stream_;
  SpanLog* spans_;
  std::vector<Conn> conns_;
  uint64_t next_query_ = 0;
};

}  // namespace iqlbench

#endif  // IQLBENCH_LOAD_CLIENT_H_
