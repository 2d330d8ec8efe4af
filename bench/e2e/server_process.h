#ifndef IQLBENCH_SERVER_PROCESS_H_
#define IQLBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"

namespace iqlbench {

// A child `iqlserve --serve` process: stdout on a pipe (the `port=<N>`
// line, then the drain summary), stderr inherited. The destructor kills
// and reaps a child that was never drained, so no server outlives a run.
class ServerProcess {
 public:
  // Starts `argv` and waits up to `timeout_s` for its port line.
  static iqlkit::Result<std::unique_ptr<ServerProcess>> Start(
      const std::vector<std::string>& argv, double timeout_s);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  // utime + stime of every thread so far, from /proc/<pid>/stat.
  iqlkit::Result<double> CpuSeconds() const;
  // VmHWM from /proc/<pid>/status, in MiB.
  iqlkit::Result<double> PeakRssMb() const;

  struct Exit {
    int code = -1;  // exit status; -1 when killed by a signal
    // Fields of the `sessions ...` and `counters ...` summary lines.
    std::map<std::string, uint64_t> sessions;
    std::map<std::string, uint64_t> counters;
  };
  // SIGTERM (graceful drain), then reads stdout to EOF and reaps the child.
  // Past `timeout_s` the child is killed and the drain reported failed.
  iqlkit::Result<Exit> Drain(double timeout_s);

 private:
  ServerProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  // Appends available stdout until a newline arrives or the deadline.
  bool ReadLine(std::string* line, int64_t deadline_ns);
  void Kill();

  pid_t pid_;
  int out_fd_;
  uint16_t port_ = 0;
  std::string buffered_;
  bool reaped_ = false;
};

}  // namespace iqlbench

#endif  // IQLBENCH_SERVER_PROCESS_H_
