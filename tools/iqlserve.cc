// iqlserve: a concurrent-query driver for IQL source units.
//
//   iqlserve [flags] <file.iql>...              batch (in-process) mode
//   iqlserve --serve [--port=N] [flags]         TCP server mode
//   iqlserve --connect=PORT [flags] <file>...   TCP client mode
//   iqlserve --sim-clients=N [flags] <file>...  deterministic simulation
//
// Batch mode: every positional argument is one query (its id is the file
// name, with a "#k" suffix under --repeat). Queries are submitted to the
// concurrent scheduler (src/server/scheduler.h) in command-line order and
// the driver waits for every admitted query, printing one summary line
// per query:
//
//   id=tc.iql outcome=completed attempts=1 ticks=3
//   id=big.iql outcome=rejected status=OVERLOAD ...
//
// Per-query flags (--class, --priority, --max-steps, --timeout,
// --max-memory, --reserve) apply to the files that FOLLOW them, so one
// invocation can mix classes and ceilings:
//
//   iqlserve --class=interactive fast.iql --class=batch --priority=-1 slow.iql
//
// Scheduler flags:
//   --workers=N            concurrently running queries (default 4)
//   --queue-capacity=N     waiting-queue bound; beyond it: QUEUE_FULL
//   --quota-interactive=N  per-class admission quotas; beyond: OVERLOAD
//   --quota-batch=N
//   --memory-budget=BYTES  global budget; over it the scheduler degrades
//                          (tightens) or preempts running queries
//   --max-retries=N        retry budget for transient failures (default 2)
//   --retry-base=SECONDS   backoff base (default 0.05)
//   --data-dir=DIR         durable evaluation: one log per query,
//                          DIR/q-<id>/wal.iqw (a base snapshot, then a
//                          frame per committed step); retried queries
//                          resume from their last committed step, finished
//                          queries are served from their output after a
//                          restart, tripped partials are checkpointed on
//                          drain. An unwritable DIR degrades to in-memory
//                          with a warning (exit status unaffected).
//   --no-fsync             skip fsync on log writes (crash-only
//                          durability, for tests and benchmarks)
//   --seed=N               seed for backoff jitter (and the trace, in
//                          deterministic mode)
//   --deterministic        virtual clock, serial execution, poll stride 1:
//                          reproducible admission/preemption traces
//   --trace                stream the scheduler event trace to stderr
//   --repeat=N             submit each file N times (load generation)
//   --print-facts          print each completed/partial query's facts
//   --counters             print the scheduler counters at exit
//
// Serving flags (--serve / --sim-clients; see src/server/serve_loop.h):
//   --serve                TCP server on 127.0.0.1; the first stdout line
//                          is `port=<bound port>` (--port=0 binds an
//                          ephemeral port, so this line is how callers
//                          learn it). SIGTERM/SIGINT begin a graceful
//                          drain: stop accepting, finish or checkpoint
//                          running queries, deliver terminal pages.
//   --port=N               TCP port (default 0 = ephemeral)
//   --connect=PORT         client: submit the positional files to a
//                          --serve instance on 127.0.0.1:PORT over the
//                          wire protocol and page the results back
//   --sim-clients=N        deterministic in-process serving: N simulated
//                          clients split the positional files round-robin
//                          and the whole exchange runs on one thread with
//                          a virtual clock (byte-identical per --seed)
//   --drain-at=MS          simulation: begin a graceful drain at this
//                          virtual millisecond
//   --tenant=NAME          tenant id sent in HELLO (client/sim)
//   --max-sessions=N       concurrent-connection ceiling (default 64)
//   --max-inflight=N       per-session in-flight query quota (default 4)
//   --page-rows=N          fact lines in a result's first PAGE frame
//                          (default 64); each later page holds twice the
//                          lines of the one before, up to 256 KiB of facts
//   --idle-timeout=MS --read-timeout=MS --write-timeout=MS
//   --drain-grace=MS       grace window before preempting (default 2000)
//
// Numeric flag values are strict: trailing characters, a sign on an
// unsigned flag, and a value outside the flag's range (--port above 65535,
// say) are usage errors rather than a prefix parse or a wrapped value.
//
// Exit status: 0 when every query completed; 2 when any query was
// rejected, tripped, or failed; 1 on usage or I/O errors.

#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "base/flags.h"
#include "server/scheduler.h"
#include "server/serve_loop.h"
#include "storage/io.h"

namespace {

using iqlkit::server::Frame;
using iqlkit::server::FrameDecoder;
using iqlkit::server::FrameType;
using iqlkit::server::FdStream;
using iqlkit::server::kWireVersion;
using iqlkit::server::ParseQueryClass;
using iqlkit::server::QueryClassName;
using iqlkit::server::QueryOutcome;
using iqlkit::server::QueryOutcomeName;
using iqlkit::server::QueryRequest;
using iqlkit::server::QueryResult;
using iqlkit::server::Scheduler;
using iqlkit::server::SchedulerOptions;
using iqlkit::server::ServeOptions;
using iqlkit::server::ServeSimulated;
using iqlkit::server::SimClientSpec;
using iqlkit::server::SimQuery;
using iqlkit::server::TcpServer;

int Usage() {
  std::cerr << "usage: iqlserve [flags] <file.iql>...\n"
               "       iqlserve --serve [--port=N] [flags]\n"
               "       iqlserve --connect=PORT [flags] <file.iql>...\n"
               "       iqlserve --sim-clients=N [flags] <file.iql>...\n"
               "run `head -80 tools/iqlserve.cc` for the flag list\n";
  return 1;
}

struct Submission {
  std::string id;
  QueryRequest request;
};

TcpServer* g_server = nullptr;

void HandleDrainSignal(int) {
  // One atomic store: async-signal-safe.
  if (g_server != nullptr) g_server->RequestDrain();
}

int RunServe(const SchedulerOptions& sched, const ServeOptions& serve,
             uint16_t port, bool print_counters) {
  Scheduler scheduler(sched);
  TcpServer server(&scheduler, serve);
  auto bound = server.Listen(port);
  if (!bound.ok()) {
    std::cerr << "iqlserve: " << bound.status() << "\n";
    return 1;
  }
  // The contract callers script against: the first stdout line names the
  // bound port (essential with --port=0).
  std::cout << "port=" << *bound << std::endl;
  g_server = &server;
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  auto stats = server.Serve();
  g_server = nullptr;
  std::cout << "sessions accepted=" << stats.sessions_accepted
            << " refused=" << stats.sessions_refused
            << " queries=" << stats.totals.queries_accepted
            << " delivered="
            << (stats.totals.delivered_completed +
                stats.totals.delivered_tripped +
                stats.totals.delivered_cancelled +
                stats.totals.delivered_failed)
            << " abandoned=" << stats.totals.abandoned << "\n";
  if (print_counters) {
    auto c = scheduler.counters();
    std::cout << "counters submitted=" << c.submitted
              << " admitted=" << c.admitted << " completed=" << c.completed
              << " tripped_partial=" << c.tripped_partial
              << " failed=" << c.failed << " cancelled=" << c.cancelled
              << " rejected_draining=" << c.rejected_draining << "\n";
  }
  return 0;
}

int RunConnect(uint16_t port, const std::string& tenant,
               const std::vector<Submission>& submissions) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "iqlserve: socket failed\n";
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::cerr << "iqlserve: connect to 127.0.0.1:" << port << " failed\n";
    ::close(fd);
    return 1;
  }
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  FdStream stream(fd);  // owns fd; nonblocking I/O driven by poll below
  FrameDecoder decoder;
  auto send = [&](const Frame& frame) {
    std::string bytes = iqlkit::server::EncodeFrame(frame);
    for (;;) {
      iqlkit::Status wrote = stream.Write(bytes);
      if (wrote.ok()) {
        (void)stream.Flush();  // best effort; the tail drains on next write
        return true;
      }
      if (!iqlkit::server::IsStallError(wrote)) {
        std::cerr << "iqlserve: " << wrote << "\n";
        return false;
      }
      pollfd pfd{fd, POLLOUT, 0};
      poll(&pfd, 1, 50);
    }
  };

  Frame hello;
  hello.type = FrameType::kHello;
  hello.body.SetInt("version", kWireVersion).SetString("tenant", tenant);
  if (!send(hello)) {
    std::cerr << "iqlserve: handshake write failed\n";
    return 1;
  }

  std::map<std::string, std::string> terminal;  // id -> summary line tail
  std::map<std::string, std::string> data;      // id -> accumulated facts
  bool hello_acked = false;
  size_t next_submit = 0;
  int exit_code = 0;
  while (terminal.size() < submissions.size()) {
    pollfd pfd{fd, POLLIN, 0};
    if (poll(&pfd, 1, 5000) <= 0) {
      std::cerr << "iqlserve: server went quiet; giving up\n";
      exit_code = 1;
      break;
    }
    std::string chunk;
    auto got = stream.Read(&chunk, 64 * 1024);
    if (!got.ok() || (*got == 0 && stream.closed())) {
      std::cerr << "iqlserve: connection lost\n";
      exit_code = 1;
      break;
    }
    decoder.Feed(chunk);
    for (;;) {
      auto next = decoder.Next();
      if (!next.ok()) {
        std::cerr << "iqlserve: " << next.status() << "\n";
        return 1;
      }
      if (!next->has_value()) break;
      const Frame& frame = **next;
      if (frame.type == FrameType::kHello && !hello_acked) {
        hello_acked = true;
        // Submit everything; the per-session quota is the server's to
        // enforce, and a structured reject is a terminal answer too.
        for (; next_submit < submissions.size(); ++next_submit) {
          const Submission& sub = submissions[next_submit];
          Frame query;
          query.type = FrameType::kQuery;
          query.body.SetString("id", sub.id)
              .SetString("source", sub.request.source)
              .SetString("class", QueryClassName(sub.request.cls))
              .SetInt("priority", sub.request.priority);
          Frame want;
          want.type = FrameType::kPage;
          want.body.SetString("id", sub.id).SetInt("want", 0);
          if (!send(query) || !send(want)) {
            std::cerr << "iqlserve: submit failed\n";
            return 1;
          }
        }
      } else if (frame.type == FrameType::kPage) {
        std::string id = frame.body.StringOr("id", "");
        data[id] += frame.body.StringOr("data", "");
        if (frame.body.BoolOr("done", false)) {
          std::string outcome = frame.body.StringOr("outcome", "?");
          std::string tail = "outcome=" + outcome +
                             " attempts=" +
                             std::to_string(frame.body.IntOr("attempts", 0));
          std::string message = frame.body.StringOr("status", "");
          if (!message.empty()) {
            tail += " status=" + frame.body.StringOr("code", "") + ": " +
                    message;
          }
          terminal[id] = tail;
          if (outcome != "completed") exit_code = 2;
        } else {
          Frame want;
          want.type = FrameType::kPage;
          want.body.SetString("id", id)
              .SetInt("want", frame.body.IntOr("seq", 0) + 1);
          if (!send(want)) {
            std::cerr << "iqlserve: page request failed\n";
            return 1;
          }
        }
      } else if (frame.type == FrameType::kError) {
        std::string id = frame.body.StringOr("id", "");
        std::string tail = "outcome=rejected status=" +
                           frame.body.StringOr("code", "?") + ": " +
                           frame.body.StringOr("message", "");
        if (id.empty()) {
          std::cerr << "iqlserve: server error: " << tail << "\n";
          return 1;
        }
        terminal[id] = tail;
        exit_code = 2;
      } else if (frame.type == FrameType::kDrain) {
        // Queries already in flight still deliver; just stop expecting
        // answers for anything the server will now reject.
      }
    }
  }
  for (const Submission& sub : submissions) {
    auto it = terminal.find(sub.id);
    std::cout << "id=" << sub.id << " "
              << (it == terminal.end() ? "outcome=abandoned" : it->second)
              << "\n";
    if (it == terminal.end()) exit_code = 2;
  }
  return exit_code;
}

int RunSim(size_t n_clients, uint64_t drain_at_ms, const std::string& tenant,
           SchedulerOptions sched, const ServeOptions& serve,
           const std::vector<Submission>& submissions, bool print_counters) {
  sched.deterministic = true;  // simulation is deterministic by definition
  Scheduler scheduler(sched);
  std::vector<SimClientSpec> specs(n_clients);
  for (size_t i = 0; i < specs.size(); ++i) specs[i].tenant = tenant;
  for (size_t i = 0; i < submissions.size(); ++i) {
    SimQuery q;
    q.id = submissions[i].id;
    q.source = submissions[i].request.source;
    q.cls = QueryClassName(submissions[i].request.cls);
    q.priority = submissions[i].request.priority;
    q.at_ms = i / n_clients;  // stagger the rounds
    specs[i % n_clients].queries.push_back(std::move(q));
  }
  auto outcome = ServeSimulated(&scheduler, serve, specs, drain_at_ms,
                                /*max_ms=*/60000);
  int exit_code = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    for (const SimQuery& q : specs[i].queries) {
      auto it = outcome.clients[i].terminal.find(q.id);
      std::string verdict = it == outcome.clients[i].terminal.end()
                                ? (outcome.clients[i].refused ? "refused"
                                                              : "abandoned")
                                : it->second;
      std::cout << "client=" << i << " id=" << q.id << " " << verdict << "\n";
      if (verdict != "outcome:completed") exit_code = 2;
    }
  }
  std::cout << "sessions accepted=" << outcome.stats.sessions_accepted
            << " refused=" << outcome.stats.sessions_refused
            << " delivered="
            << (outcome.stats.totals.delivered_completed +
                outcome.stats.totals.delivered_tripped +
                outcome.stats.totals.delivered_cancelled +
                outcome.stats.totals.delivered_failed)
            << " abandoned=" << outcome.stats.totals.abandoned << "\n";
  if (print_counters) {
    auto c = scheduler.counters();
    std::cout << "counters submitted=" << c.submitted
              << " admitted=" << c.admitted << " completed=" << c.completed
              << " tripped_partial=" << c.tripped_partial
              << " failed=" << c.failed << " cancelled=" << c.cancelled
              << " rejected_draining=" << c.rejected_draining << "\n";
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // Honor IQLKIT_FAULTS like the other drivers; a malformed spec disables
  // injection with a warning instead of half-applying.
  (void)iqlkit::FaultInjector::Global().ConfigureFromEnv();

  SchedulerOptions sched;
  ServeOptions serve;
  QueryRequest profile;  // class/priority/limits applied to following files
  uint64_t repeat = 1;
  bool print_facts = false;
  bool print_counters = false;
  std::ostringstream trace;
  bool want_trace = false;
  bool serve_mode = false;
  uint16_t port = 0;
  int connect_port = -1;
  size_t sim_clients = 0;
  uint64_t drain_at_ms = 0;
  std::string tenant = "iqlserve";

  std::vector<Submission> submissions;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    iqlkit::Status bad = iqlkit::Status::Ok();  // a numeric flag's verdict
    if (arg == "--deterministic") {
      sched.deterministic = true;
    } else if (arg == "--trace") {
      want_trace = true;
    } else if (arg == "--print-facts") {
      print_facts = true;
    } else if (arg == "--counters") {
      print_counters = true;
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg.rfind("--port=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &port);
    } else if (arg.rfind("--connect=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &connect_port, 1, 65535);
    } else if (arg.rfind("--sim-clients=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sim_clients);
    } else if (arg.rfind("--drain-at=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &drain_at_ms);
    } else if (arg.rfind("--tenant=", 0) == 0) {
      tenant = arg.substr(9);
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.max_sessions);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.session.max_inflight);
    } else if (arg.rfind("--page-rows=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.session.page_rows);
    } else if (arg.rfind("--idle-timeout=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.session.idle_timeout_ms);
    } else if (arg.rfind("--read-timeout=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.session.read_timeout_ms);
    } else if (arg.rfind("--write-timeout=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.session.write_timeout_ms);
    } else if (arg.rfind("--drain-grace=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &serve.drain_grace_ms);
    } else if (arg.rfind("--workers=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.workers);
    } else if (arg.rfind("--queue-capacity=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.queue_capacity);
    } else if (arg.rfind("--quota-interactive=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.class_quota[0]);
    } else if (arg.rfind("--quota-batch=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.class_quota[1]);
    } else if (arg.rfind("--memory-budget=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.global_memory_budget);
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.max_retries, 0);
    } else if (arg.rfind("--retry-base=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.retry_base_seconds, 0.0);
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      sched.data_dir = arg.substr(11);
    } else if (arg == "--no-fsync") {
      sched.durability.fsync = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &sched.seed);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &repeat);
    } else if (arg.rfind("--class=", 0) == 0) {
      auto cls = ParseQueryClass(arg.substr(8));
      if (!cls.ok()) {
        std::cerr << "iqlserve: " << cls.status() << "\n";
        return 1;
      }
      profile.cls = *cls;
    } else if (arg.rfind("--priority=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &profile.priority);
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &profile.limits.max_steps_per_stage);
    } else if (arg.rfind("--timeout=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &profile.limits.deadline_seconds, 0.0);
    } else if (arg.rfind("--max-memory=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &profile.limits.max_memory_bytes);
    } else if (arg.rfind("--reserve=", 0) == 0) {
      bad = iqlkit::SetNumericFlag(arg, &profile.reserve_bytes);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "iqlserve: unknown flag " << arg << "\n";
      return Usage();
    } else {
      auto source = iqlkit::storage::ReadFileBytes(arg);
      if (!source.ok()) {
        std::cerr << "iqlserve: " << source.status() << "\n";
        return 1;
      }
      for (uint64_t k = 0; k < repeat; ++k) {
        Submission sub;
        sub.id = repeat == 1 ? arg : arg + "#" + std::to_string(k + 1);
        sub.request = profile;
        sub.request.id = sub.id;
        sub.request.source = *source;
        submissions.push_back(std::move(sub));
      }
    }
    if (!bad.ok()) {
      std::cerr << "iqlserve: " << bad << "\n";
      return 1;
    }
  }

  if (want_trace) {
    sched.trace = &trace;
    serve.trace = &trace;
  }

  int exit_code = 0;
  if (serve_mode) {
    if (!submissions.empty()) {
      std::cerr << "iqlserve: --serve takes no query files\n";
      return Usage();
    }
    exit_code = RunServe(sched, serve, port, print_counters);
    if (want_trace) std::cerr << trace.str();
    return exit_code;
  }
  if (connect_port >= 0) {
    if (submissions.empty()) return Usage();
    return RunConnect(static_cast<uint16_t>(connect_port), tenant,
                      submissions);
  }
  if (sim_clients > 0) {
    if (submissions.empty()) return Usage();
    exit_code = RunSim(sim_clients, drain_at_ms, tenant, sched, serve,
                       submissions, print_counters);
    if (want_trace) std::cerr << trace.str();
    return exit_code;
  }

  if (submissions.empty()) return Usage();

  {
    Scheduler scheduler(sched);
    struct Pending {
      std::string id;
      uint64_t ticket = 0;
      bool admitted = false;
      iqlkit::Status rejection;
    };
    std::vector<Pending> pending;
    pending.reserve(submissions.size());
    for (auto& sub : submissions) {
      Pending p;
      p.id = sub.id;
      auto ticket = scheduler.Submit(std::move(sub.request));
      if (ticket.ok()) {
        p.admitted = true;
        p.ticket = *ticket;
      } else {
        p.rejection = ticket.status();
      }
      pending.push_back(std::move(p));
    }
    for (const auto& p : pending) {
      if (!p.admitted) {
        std::cout << "id=" << p.id << " outcome=rejected status="
                  << p.rejection << "\n";
        exit_code = 2;
        continue;
      }
      QueryResult result = scheduler.Wait(p.ticket);
      std::cout << "id=" << p.id
                << " outcome=" << QueryOutcomeName(result.outcome)
                << " attempts=" << result.attempts
                << " ticks=" << (result.finish_tick - result.submit_tick);
      if (result.resumed) {
        std::cout << " resumed=" << result.resume_stage << "/"
                  << result.resume_step << " steps=" << result.stats.steps;
      }
      if (!result.status.ok()) std::cout << " status=" << result.status;
      std::cout << "\n";
      if (!result.storage_warning.empty()) {
        std::cerr << "iqlserve: " << p.id
                  << ": storage warning: " << result.storage_warning << "\n";
      }
      if (print_facts && !result.facts.empty()) {
        std::cout << result.facts;
      }
      if (result.outcome != QueryOutcome::kCompleted) exit_code = 2;
    }
    if (print_counters) {
      auto c = scheduler.counters();
      std::cout << "counters submitted=" << c.submitted
                << " admitted=" << c.admitted
                << " rejected_queue_full=" << c.rejected_queue_full
                << " rejected_overload=" << c.rejected_overload
                << " rejected_duplicate=" << c.rejected_duplicate
                << " completed=" << c.completed
                << " tripped_partial=" << c.tripped_partial
                << " failed=" << c.failed << " cancelled=" << c.cancelled
                << " retries=" << c.retries
                << " degradations=" << c.degradations
                << " preemptions=" << c.preemptions << "\n";
    }
  }
  if (want_trace) std::cerr << trace.str();
  return exit_code;
}
