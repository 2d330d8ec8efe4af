// iqlbench: the end-to-end served-query benchmark (see README.md).
//
//   iqlbench --workload <name|all> --seed N --seconds S --trace 0|1
//            [--warmup S] [--min-samples N] [--replay N]
//            [--work-dir DIR] [--out DIR] [--commit SHA]
//
// Starts `iqlserve --serve` as a child process, drives a seeded closed-loop
// load over loopback TCP from this one process, byte-checks every served
// result against an in-process RunUnit reference, and prints each metric
// by name and unit. With --trace 1 it instead measures the per-layer
// metrics: a served window with client spans, then an in-process replay of
// the same query stream through each layer's public functions.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; a fuller record with the run context goes to --out. Exit
// status: 0 when every check passed, 3 when a check failed (the result is
// still printed), 2 on bad usage, 1 when the run could not be set up.

#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "load_client.h"
#include "replay.h"
#include "server_process.h"
#include "workload.h"

namespace iqlbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Scheduler workers of the served process (and of the replay scheduler).
constexpr size_t kWorkers = 2;
// fsync policy of the durable server (README.md: with fsync on, this
// host's shared disk makes durable-tc too noisy to judge anything).
constexpr bool kFsync = false;
// Slices of a traced window, untraced and traced in ABBA order.
constexpr int kTraceSlices = 16;
bool TracedSlice(int i) { return i % 4 == 1 || i % 4 == 2; }
// Fact lines per PAGE frame: the iqlserve default.
constexpr size_t kPageRows = 64;
// Durable runs keep what their servers wrote: deleting tens of thousands
// of small files makes file creation on the same ext4 filesystem several
// times more expensive for minutes afterwards (README.md), which would tie
// one durable run's numbers to the runs before it. Past this total the
// oldest kept runs are removed before a durable run starts.
constexpr uint64_t kKeptDataCap = uint64_t{5} << 30;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, in BENCHMARK.json's end_to_end order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"first_page_p50_ms", "ms"},
    {"server_cpu_ms_per_query", "ms"},
    {"server_peak_rss_mb", "MiB"},
};

// Printed with --trace 1, in BENCHMARK.json's per_layer order.
constexpr MetricSpec kPerLayer[] = {
    {"server.wire.codec_us_per_query", "us"},
    {"server.wire.bytes_in_per_query", "bytes"},
    {"server.wire.bytes_out_per_query", "bytes"},
    {"server.session.residual_ms_p50", "ms"},
    {"server.session.pages_per_query", "count"},
    {"server.scheduler.latency_p50_ms", "ms"},
    {"server.scheduler.wait_ms_p50", "ms"},
    {"server.scheduler.retries_per_query", "count"},
    {"direct.latency_p50_ms", "ms"},
    {"iql.parser.ms_per_query", "ms"},
    {"iql.parser.source_bytes_per_query", "bytes"},
    {"iql.typecheck.ms_per_query", "ms"},
    {"model.facts.load_ms_per_query", "ms"},
    {"model.facts.write_ms_per_query", "ms"},
    {"model.facts.output_rows_per_query", "count"},
    {"model.facts.output_bytes_per_query", "bytes"},
    {"iql.eval.ms_per_query", "ms"},
    {"iql.eval.rule_solve_share", "fraction"},
    {"iql.eval.steps_per_query", "count"},
    {"iql.eval.derivations_per_query", "count"},
    {"iql.eval.useful_derivation_ratio", "fraction"},
    {"iql.eval.index_hit_rate", "fraction"},
    {"iql.eval.seminaive_round_share", "fraction"},
    {"iql.eval.invented_oids_per_query", "count"},
    {"iql.eval.peak_memory_kb_per_query", "KiB"},
    {"storage.begin_run_ms_per_query", "ms"},
    {"storage.step_commit_ms_per_query", "ms"},
    {"storage.finalize_ms_per_query", "ms"},
    {"storage.wal_frames_per_query", "count"},
    {"storage.bytes_written_per_query", "bytes"},
    {"storage.write_amplification", "ratio"},
    {"storage.disk_bytes_per_query", "bytes"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
};

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  double warmup = 2;
  size_t min_samples = 1000;
  size_t replay = 512;
  std::string work_dir = ".bench_build";
  std::string out;  // default: <work_dir>/results
  std::string commit = "unknown";
};

struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;
  std::string context;  // JSON object
};

size_t Nproc() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x2FC12FC1:
      return "zfs";
    case 0x65735546:
      return "fuse";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return hex.str();
    }
  }
}

// Bytes the filesystem allocates to `dir` and everything under it.
uint64_t DiskBytes(const std::string& dir) {
  auto allocated = [](const std::string& path) -> uint64_t {
    struct stat st {};
    if (lstat(path.c_str(), &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_blocks) * 512;
  };
  uint64_t total = allocated(dir);
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    total += allocated(it->path().string());
  }
  return total;
}

// Removes the oldest run directories under `root` (names sort by start
// time) until the rest fit in kKeptDataCap.
void PruneKeptData(const std::string& root) {
  std::vector<std::pair<std::string, uint64_t>> runs;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    runs.emplace_back(entry.path().string(), DiskBytes(entry.path().string()));
    total += runs.back().second;
  }
  std::sort(runs.begin(), runs.end());
  for (const auto& [path, bytes] : runs) {
    if (total <= kKeptDataCap) break;
    std::filesystem::remove_all(path, ec);
    total -= bytes;
  }
}

class Run {
 public:
  // `stamp` names this run's result files under --out and its server data
  // under <work-dir>/data.
  Run(const Options& options, const Workload& workload,
      const std::string& stamp)
      : options_(options),
        workload_(workload),
        stem_(options.out + "/" + workload.name + ".seed" +
              std::to_string(options.seed) +
              (options.trace ? ".trace." : ".e2e.") + stamp),
        dir_(options.work_dir + "/data/" + stamp + "-" + workload.name) {}

  const std::string& stem() const { return stem_; }

  RunResult Execute();

 private:
  void Fail(const std::string& message) {
    ++result_.failed;
    result_.correct = false;
    result_.failures.push_back(message);
  }
  std::vector<std::string> ServerArgv(int setup) const;
  // Drains the server and checks the exit status and that its counters
  // add up; `completed` is what the client verified.
  void CheckDrain(ServerProcess* server, uint64_t completed);
  void ServedMetrics(const LoadReport& report, double cpu_s, double rss_mb,
                     const std::vector<double>& setup_s);
  void TraceMetrics(const LoadReport& report, uint64_t disk_bytes,
                    SpanLog* spans);
  std::string Context(size_t samples) const;

  const Options& options_;
  const Workload& workload_;
  std::string stem_;
  std::string dir_;
  std::vector<Unit> pool_;
  RunResult result_;
  size_t samples_ = 0;
};

std::vector<std::string> Run::ServerArgv(int setup) const {
  std::vector<std::string> argv = {IQLBENCH_IQLSERVE, "--serve", "--port=0",
                                   "--workers=" + std::to_string(kWorkers),
                                   "--counters"};
  if (workload_.durable) {
    argv.push_back("--data-dir=" + dir_ + "/data-" + std::to_string(setup));
    if (!kFsync) argv.push_back("--no-fsync");
  }
  return argv;
}

void Run::CheckDrain(ServerProcess* server, uint64_t completed) {
  auto exit = server->Drain(30);
  if (!exit.ok()) {
    Fail("drain: " + exit.status().ToString());
    return;
  }
  if (exit->code != 0) Fail("server exited " + std::to_string(exit->code));
  auto& c = exit->counters;
  auto& s = exit->sessions;
  if (c.empty() || s.empty()) {
    Fail("server printed no counters");
    return;
  }
  uint64_t terminal =
      c["completed"] + c["tripped_partial"] + c["failed"] + c["cancelled"];
  if (c["submitted"] != c["admitted"] + c["rejected_draining"] ||
      c["admitted"] != terminal ||
      s["delivered"] + s["abandoned"] != s["queries"]) {
    Fail("server counters do not add up");
  }
  if (c["completed"] != completed || c["admitted"] != completed) {
    Fail("server admitted " + std::to_string(c["admitted"]) +
         " and completed " + std::to_string(c["completed"]) +
         " queries; the client verified " + std::to_string(completed));
  }
}

RunResult Run::Execute() {
  if (workload_.durable) PruneKeptData(options_.work_dir + "/data");
  std::filesystem::create_directories(dir_);
  pool_ = BuildPool(workload_, options_.seed);
  // References first: not part of set-up, and the server is not running.
  iqlkit::Status refs = ComputeReferences(&pool_, std::min<size_t>(Nproc(), 4));
  if (!refs.ok()) {
    ++result_.attempted;
    Fail(refs.ToString());
  }

  SpanLog spans;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadClient> client;
  for (int i = 0; result_.correct && i < kSetups; ++i) {
    int64_t start = NowNs();
    auto started = ServerProcess::Start(ServerArgv(i), 30);
    if (!started.ok()) {
      Fail(started.status().ToString());
      break;
    }
    server = std::move(*started);
    client = std::make_unique<LoadClient>(&pool_, options_.seed, &spans);
    iqlkit::Status connected =
        client->Connect(server->port(), workload_.connections, 30);
    if (!connected.ok()) {
      Fail("set-up: " + connected.ToString());
      break;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (i + 1 < kSetups) {
      client->Close();
      CheckDrain(server.get(), 0);
      server.reset();
      std::filesystem::remove_all(dir_ + "/data-" + std::to_string(i));
    }
  }

  if (result_.correct) {
    std::vector<Phase> phases = {{options_.warmup, false, false}};
    if (options_.trace) {
      // Short slices, untraced and traced in ABBA order, so the server's
      // drift over the window (it slows as terminal entries pile up)
      // cancels out of the tracing overhead.
      double slice = options_.seconds / kTraceSlices;
      for (int i = 0; i < kTraceSlices; ++i) {
        phases.push_back({slice, true, TracedSlice(i)});
      }
    } else {
      phases.push_back({options_.seconds, true, false});
    }
    double cpu_start = 0, cpu_end = 0;
    auto boundary = [&](size_t phase) {
      if (phase != 1 && phase != phases.size()) return;
      auto cpu = server->CpuSeconds();
      if (!cpu.ok()) Fail(cpu.status().ToString());
      (phase == 1 ? cpu_start : cpu_end) = cpu.ok() ? *cpu : 0;
    };
    LoadReport report = client->Run(phases, boundary);
    auto rss = server->PeakRssMb();
    if (!rss.ok()) Fail(rss.status().ToString());
    client->Close();
    result_.attempted += report.queries.size();
    result_.failed += report.failed;
    if (report.failed > 0) result_.correct = false;
    for (const std::string& f : report.failures) result_.failures.push_back(f);
    uint64_t verified = 0;
    for (const QueryRecord& q : report.queries) verified += q.ok ? 1 : 0;
    CheckDrain(server.get(), verified);
    server.reset();
    uint64_t disk_bytes =
        workload_.durable
            ? DiskBytes(dir_ + "/data-" + std::to_string(kSetups - 1))
            : 0;
    if (options_.trace) {
      TraceMetrics(report, disk_bytes, &spans);
    } else {
      ServedMetrics(report, cpu_end - cpu_start, rss.ok() ? *rss : 0, setup_s);
    }
  }
  if (!options_.trace && samples_ < options_.min_samples) {
    Fail("only " + std::to_string(samples_) + " latency samples (need " +
         std::to_string(options_.min_samples) + ")");
  }
  if (result_.attempted == 0) result_.attempted = 1;
  if (options_.trace) {
    iqlkit::Status wrote = spans.WriteJsonl(stem_ + ".spans.jsonl");
    if (!wrote.ok()) std::cerr << "iqlbench: " << wrote << "\n";
  }
  result_.context = Context(samples_);
  if (!workload_.durable) std::filesystem::remove_all(dir_);
  return result_;
}

void Run::ServedMetrics(const LoadReport& report, double cpu_s, double rss_mb,
                        const std::vector<double>& setup_s) {
  std::vector<double> latency, first_page;
  for (const QueryRecord& q : report.queries) {
    if (q.phase != 1 || !q.ok) continue;
    latency.push_back(NsToMs(q.done_ns - q.sent_ns));
    first_page.push_back(NsToMs(q.first_page_ns - q.sent_ns));
  }
  samples_ = latency.size();
  double window_s = static_cast<double>(report.phase_start_ns[2] -
                                        report.phase_start_ns[1]) / 1e9;
  double completed = static_cast<double>(report.completions[1]);
  std::map<std::string, double> v = {
      {"setup_s", Quantile(setup_s, 0.5)},
      {"qps", completed / window_s},
      {"latency_p50_ms", Quantile(latency, 0.5)},
      {"latency_p99_ms", Quantile(latency, 0.99)},
      {"first_page_p50_ms", Quantile(first_page, 0.5)},
      {"server_cpu_ms_per_query", completed > 0 ? cpu_s * 1e3 / completed : 0},
      {"server_peak_rss_mb", rss_mb},
  };
  for (const MetricSpec& spec : kEndToEnd) {
    result_.metrics.push_back({spec.name, v[spec.name], spec.unit});
  }
}

void Run::TraceMetrics(const LoadReport& report, uint64_t disk_bytes,
                       SpanLog* spans) {
  // Phase 0 is the warm-up; phase i + 1 is slice i.
  double seconds[2] = {0, 0}, completed[2] = {0, 0};
  for (int i = 0; i < kTraceSlices; ++i) {
    size_t p = static_cast<size_t>(i) + 1;
    int64_t ns = report.phase_start_ns[p + 1] - report.phase_start_ns[p];
    seconds[TracedSlice(i)] += static_cast<double>(ns) / 1e9;
    completed[TracedSlice(i)] += static_cast<double>(report.completions[p]);
  }
  double qps_plain = completed[0] / seconds[0];
  double qps_traced = completed[1] / seconds[1];
  std::vector<double> latency;
  double bytes_in = 0, bytes_out = 0, pages = 0, served = 0, verified = 0;
  for (const QueryRecord& q : report.queries) {
    if (!q.ok) continue;
    ++verified;
    if (q.phase == 0) continue;
    ++served;
    bytes_in += static_cast<double>(q.bytes_out);  // into the server
    bytes_out += static_cast<double>(q.bytes_in);
    pages += q.pages;
    if (!TracedSlice(static_cast<int>(q.phase) - 1)) {
      latency.push_back(NsToMs(q.done_ns - q.sent_ns));
    }
  }
  samples_ = latency.size();

  ReplayConfig config;
  config.workload = &workload_;
  config.pool = &pool_;
  config.stream_seed = options_.seed;
  config.queries = options_.replay;
  config.workers = kWorkers;
  config.page_rows = kPageRows;
  config.fsync = kFsync;
  config.dir = dir_;
  ReplayReport replay = Replay(config, spans);
  result_.attempted += replay.attempted;
  result_.failed += replay.failed;
  if (replay.failed > 0) result_.correct = false;
  for (const std::string& f : replay.failures) result_.failures.push_back(f);

  auto& v = replay.values;
  v["server.wire.bytes_in_per_query"] = served > 0 ? bytes_in / served : 0;
  v["server.wire.bytes_out_per_query"] = served > 0 ? bytes_out / served : 0;
  v["server.session.pages_per_query"] = served > 0 ? pages / served : 0;
  v["server.session.residual_ms_p50"] =
      Quantile(latency, 0.5) - v["server.scheduler.latency_p50_ms"] -
      v["server.wire.codec_us_per_query"] / 1e3;
  v["storage.disk_bytes_per_query"] =
      verified > 0 ? static_cast<double>(disk_bytes) / verified : 0;
  v["trace.overhead_pct"] =
      qps_plain > 0 ? 100.0 * (qps_plain - qps_traced) / qps_plain : 0;
  if (v["trace.unattributed_pct"] > 5.0) {
    Fail("layer spans cover only " +
         std::to_string(100.0 - v["trace.unattributed_pct"]) +
         "% of the direct spans (need 95%)");
  }
  for (const MetricSpec& spec : kPerLayer) {
    result_.metrics.push_back({spec.name, v[spec.name], spec.unit});
  }
}

std::string Run::Context(size_t samples) const {
  std::string build_type = IQLBENCH_BUILD_TYPE;
  std::ostringstream out;
  out << "{\"nproc\":" << Nproc()
      << ",\"build_type\":" << JsonString(build_type)
      << ",\"commit\":" << JsonString(options_.commit)
      << ",\"seed\":" << options_.seed
      << ",\"warmup_s\":" << JsonNumber(options_.warmup)
      << ",\"window_s\":" << JsonNumber(options_.seconds)
      << ",\"connections\":" << workload_.connections
      << ",\"load_threads\":1"
      << ",\"pool_size\":" << pool_.size()
      << ",\"latency_samples\":" << samples
      << ",\"replay_queries\":" << (options_.trace ? options_.replay : 0)
      << ",\"server_flags\":[";
  std::vector<std::string> argv = ServerArgv(0);
  for (size_t i = 1; i < argv.size(); ++i) {
    out << (i > 1 ? "," : "") << JsonString(argv[i]);
  }
  out << "],\"fsync\":"
      << JsonString(!workload_.durable ? "n/a" : kFsync ? "on" : "off")
      << ",\"data_dir_fs\":" << JsonString(FilesystemName(options_.work_dir))
      << "}";
  return out.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    out += (out.empty() ? "" : ", ") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return "{" + out + "}";
}

// Wall-clock time and pid: unique per run, and sorts in run order.
std::string RunStamp() {
  auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::system_clock::now().time_since_epoch());
  return std::to_string(now.count()) + "-" + std::to_string(getpid());
}

int Usage(const std::string& why) {
  std::cerr << "iqlbench: " << why << "\n"
            << "usage: iqlbench --workload <tc-small|tc-large|invent|"
               "durable-tc|all> --seed N --seconds S --trace 0|1\n"
               "                [--warmup S] [--min-samples N] [--replay N]\n"
               "                [--work-dir DIR] [--out DIR] [--commit SHA]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + flag);
    }
    char* end = nullptr;
    auto number = [&] { return std::strtod(value.c_str(), &end); };
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = number();
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--warmup") {
      options.warmup = number();
    } else if (flag == "--min-samples") {
      options.min_samples = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--replay") {
      options.replay = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out") {
      options.out = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage("bad value '" + value + "' for " + flag);
    }
  }
  if (options.seconds <= 0 || options.warmup < 0 || options.replay == 0) {
    return Usage("--seconds and --replay must be positive");
  }
  std::vector<const Workload*> workloads;
  for (const Workload& w : AllWorkloads()) {
    if (options.workload == "all" || options.workload == w.name) {
      workloads.push_back(&w);
    }
  }
  if (workloads.empty()) return Usage("unknown workload " + options.workload);
  for (const Workload* w : workloads) {
    if (w->connections > Nproc()) {
      std::cerr << "iqlbench: " << w->name << " needs " << w->connections
                << " connections but this host has " << Nproc()
                << " processors; refusing to oversubscribe the load\n";
      return 1;
    }
  }
  if (access(IQLBENCH_IQLSERVE, X_OK) != 0) {
    std::cerr << "iqlbench: no server binary at " << IQLBENCH_IQLSERVE << "\n";
    return 1;
  }
  if (std::string(IQLBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "iqlbench: warning: built as '" << IQLBENCH_BUILD_TYPE
              << "', not Release; timings are not comparable\n";
  }
  if (options.out.empty()) options.out = options.work_dir + "/results";
  std::filesystem::create_directories(options.out);

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> all;
  for (const Workload* w : workloads) {
    Run run(options, *w, RunStamp());
    RunResult r = run.Execute();
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) {
      std::cerr << "iqlbench: " << w->name << ": FAIL " << f << "\n";
    }
    for (const Metric& m : r.metrics) {
      std::cout << w->name << " " << m.name << " " << JsonNumber(m.value) << " "
                << m.unit << "\n";
      all.push_back({workloads.size() > 1 ? std::string(w->name) + "." + m.name
                                          : m.name,
                     m.value, m.unit});
    }
    std::ostringstream record;
    record << "{\"workload\": " << JsonString(w->name)
           << ", \"seed\": " << options.seed
           << ", \"trace\": " << (options.trace ? "true" : "false")
           << ", \"correct\": " << (r.correct ? "true" : "false")
           << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
           << ", \"context\": " << r.context
           << ", \"failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i) {
      record << (i > 0 ? ", " : "") << JsonString(r.failures[i]);
    }
    record << "], \"metrics\": " << MetricsJson(r.metrics) << "}";
    std::ofstream(run.stem() + ".json") << record.str() << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(all) << "}" << std::endl;
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace iqlbench

int main(int argc, char** argv) { return iqlbench::Main(argc, argv); }
