#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace iqlbench {
namespace {

using iqlkit::Result;

std::map<std::string, uint64_t> KeyValues(const std::string& line) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    out[token.substr(0, eq)] =
        std::strtoull(token.c_str() + eq + 1, nullptr, 10);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::vector<std::string>& argv, double timeout_s) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return iqlkit::UnavailableError(std::string("pipe: ") +
                                    std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return iqlkit::UnavailableError(std::string("fork: ") +
                                    std::strerror(errno));
  }
  if (pid == 0) {
    // The server dies with this process even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, fds[0]));
  std::string line;
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  if (!proc->ReadLine(&line, deadline) || line.rfind("port=", 0) != 0) {
    return iqlkit::UnavailableError("server " + argv[0] +
                                    " did not print its port line (got '" +
                                    line + "')");
  }
  proc->port_ =
      static_cast<uint16_t>(std::strtoul(line.c_str() + 5, nullptr, 10));
  return proc;
}

ServerProcess::~ServerProcess() {
  Kill();
  close(out_fd_);
}

bool ServerProcess::ReadLine(std::string* line, int64_t deadline_ns) {
  for (;;) {
    size_t eol = buffered_.find('\n');
    if (eol != std::string::npos) {
      *line = buffered_.substr(0, eol);
      buffered_.erase(0, eol + 1);
      return true;
    }
    int64_t left_ms = (deadline_ns - NowNs()) / 1000000;
    if (left_ms <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) continue;
    char buf[4096];
    ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n == 0) return false;  // EOF: the child closed stdout
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buffered_.append(buf, static_cast<size_t>(n));
  }
}

Result<double> ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) {
    return iqlkit::UnavailableError("cannot read /proc stat of the server");
  }
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  uint64_t ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return iqlkit::UnavailableError("no VmHWM in /proc status of the server");
}

Result<ServerProcess::Exit> ServerProcess::Drain(double timeout_s) {
  int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  kill(pid_, SIGTERM);
  Exit exit;
  std::string line;
  while (ReadLine(&line, deadline)) {
    if (line.rfind("sessions ", 0) == 0) exit.sessions = KeyValues(line);
    if (line.rfind("counters ", 0) == 0) exit.counters = KeyValues(line);
  }
  while (NowNs() < deadline) {
    int status = 0;
    pid_t got = waitpid(pid_, &status, WNOHANG);
    if (got == pid_) {
      reaped_ = true;
      exit.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      return exit;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return iqlkit::DeadlineExceededError("server did not drain within " +
                                       std::to_string(timeout_s) + " s");
}

void ServerProcess::Kill() {
  if (reaped_) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
}

}  // namespace iqlbench
