#include "replay.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "iql/eval.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/instance.h"
#include "model/universe.h"
#include "server/scheduler.h"
#include "server/wire.h"
#include "storage/durable.h"

namespace iqlbench {
namespace {

using iqlkit::Status;
using iqlkit::server::EncodeFrame;
using iqlkit::server::Frame;
using iqlkit::server::FrameDecoder;
using iqlkit::server::FrameType;

// Queries per block of the alternating direct and scheduler passes.
constexpr uint64_t kBlock = 32;

// Forwards each committed step to the durable directory and times the
// call as a child of the evaluation that made it.
class TimedSink : public iqlkit::StepCommitSink {
 public:
  TimedSink(iqlkit::StepCommitSink* inner, SpanLog* spans, uint64_t query)
      : inner_(inner), spans_(spans), query_(query) {}

  Status OnStepCommit(const iqlkit::StepCommit& commit) override {
    int64_t start = NowNs();
    Status s = inner_->OnStepCommit(commit);
    spans_->Add({query_, "storage.step_commit", "iql.eval", start, NowNs()});
    ++frames_;
    return s;
  }
  uint64_t frames() const { return frames_; }

 private:
  iqlkit::StepCommitSink* inner_;
  SpanLog* spans_;
  uint64_t query_;
  uint64_t frames_ = 0;
};

// Bytes this process has handed to write(2) so far (/proc/self/io wchar).
uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

size_t Lines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

// Collects failures from the serial passes and the scheduler threads.
class Failures {
 public:
  explicit Failures(ReplayReport* report) : report_(report) {}
  void Add(uint64_t query, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++report_->failed;
    if (report_->failures.size() < 8) {
      report_->failures.push_back("replay of query " + std::to_string(query) +
                                  ": " + what);
    }
  }

 private:
  std::mutex mu_;
  ReplayReport* report_;
};

// Times fn() as span `name` under `parent` and returns its result.
template <typename Fn>
auto Timed(SpanLog* spans, uint64_t query, const char* name,
           const char* parent, Fn&& fn) {
  int64_t start = NowNs();
  auto result = fn();
  spans->Add({query, name, parent, start, NowNs()});
  return result;
}

// Totals of the direct pass, accumulated block by block.
struct DirectTotals {
  std::vector<double> ms;  // per query
  uint64_t frames = 0;
  uint64_t written = 0;
  uint64_t output_bytes = 0;
};

// Queries [begin, end) through one scheduler attempt's calls, serially,
// each call under its own span; `direct` spans the whole attempt including
// teardown.
void DirectBlock(const ReplayConfig& config, const std::vector<size_t>& order,
                 uint64_t begin, uint64_t end, SpanLog* spans,
                 Failures* failures, DirectTotals* totals) {
  const bool durable = config.workload->durable;
  for (uint64_t k = begin; k < end; ++k) {
    const Unit& unit = (*config.pool)[order[k]];
    std::string dir = config.dir + "/replay/q-" + std::to_string(k);
    uint64_t written_before = WrittenBytes();
    int64_t start = NowNs();
    std::string facts;
    Status status = [&]() -> Status {
      iqlkit::Universe universe;
      auto parsed = Timed(spans, k, "iql.parser", "direct", [&] {
        return iqlkit::ParseUnit(&universe, unit.source);
      });
      if (!parsed.ok()) return parsed.status();
      Status typed = Timed(spans, k, "iql.typecheck", "direct", [&] {
        return iqlkit::TypeCheck(&universe, parsed->schema, &parsed->program);
      });
      if (!typed.ok()) return typed;
      iqlkit::Instance input(&parsed->schema, &universe);
      Status loaded = Timed(spans, k, "model.facts.load", "direct", [&] {
        return iqlkit::ApplyFacts(*parsed, &input);
      });
      if (!loaded.ok()) return loaded;
      // The scheduler's durable attempt: open, recover (a fresh directory
      // recovers nothing), snapshot the input, then a WAL frame per step.
      std::optional<iqlkit::storage::QueryDurability> store;
      if (durable) {
        Status begun = Timed(spans, k, "storage.begin_run", "direct", [&] {
          iqlkit::storage::DurabilityConfig durability;
          durability.fsync = config.fsync;
          store.emplace(
              iqlkit::storage::QueryDurability::Open(dir, durability));
          if (!store->active()) return store->warning();
          std::shared_ptr<const iqlkit::Schema> schema(
              std::shared_ptr<const iqlkit::Schema>(), &parsed->schema);
          auto out = parsed->schema.Project(parsed->output_names);
          if (!out.ok()) return out.status();
          auto recovered = store->Recover(
              schema, std::make_shared<const iqlkit::Schema>(std::move(*out)),
              &universe);
          if (!recovered.ok()) return recovered.status();
          return store->BeginRun(input);
        });
        if (!begun.ok()) return begun;
      }
      iqlkit::EvalOptions options;
      options.num_threads = 1;
      std::optional<TimedSink> sink;
      if (durable) {
        sink.emplace(&*store, spans, k);
        options.durability.sink = &*sink;
      }
      auto result = Timed(spans, k, "iql.eval", "direct", [&] {
        return iqlkit::RunUnit(&universe, &*parsed, input, options);
      });
      if (!result.ok()) return result.status();
      facts = Timed(spans, k, "model.facts.write", "direct",
                    [&] { return iqlkit::WriteFacts(*result); });
      if (durable) {
        Status done = Timed(spans, k, "storage.finalize", "direct",
                            [&] { return store->Finalize(*result); });
        if (!done.ok()) return done;
        totals->frames += sink->frames();
      }
      return Status::Ok();
    }();
    int64_t finish = NowNs();
    spans->Add({k, "direct", "", start, finish});
    totals->ms.push_back(NsToMs(finish - start));
    totals->written += WrittenBytes() - written_before;
    totals->output_bytes += unit.expected.size();
    if (!status.ok()) {
      failures->Add(k, status.ToString());
    } else if (facts != unit.expected) {
      failures->Add(k, "direct result differs from the reference");
    }
  }
}

// The evaluator's own counters (EvalMetrics costs a little time,
// so this pass is kept apart from the timed one).
void CountsPass(const ReplayConfig& config, const std::vector<size_t>& order,
                Failures* failures, ReplayReport* report) {
  double eval_s = 0, rule_s = 0;
  uint64_t steps = 0, derivations = 0, added = 0, invented = 0, peak = 0;
  uint64_t probes = 0, hits = 0, rounds = 0, seminaive = 0;
  for (uint64_t k = 0; k < order.size(); ++k) {
    const Unit& unit = (*config.pool)[order[k]];
    iqlkit::Universe universe;
    auto parsed = iqlkit::ParseUnit(&universe, unit.source);
    if (!parsed.ok()) {
      failures->Add(k, parsed.status().ToString());
      continue;
    }
    iqlkit::Instance input(&parsed->schema, &universe);
    Status loaded = iqlkit::ApplyFacts(*parsed, &input);
    if (!loaded.ok()) {
      failures->Add(k, loaded.ToString());
      continue;
    }
    iqlkit::EvalMetrics metrics;
    iqlkit::EvalStats stats;
    iqlkit::EvalOptions options;
    options.num_threads = 1;
    options.metrics = &metrics;
    int64_t start = NowNs();
    auto result = iqlkit::RunUnit(&universe, &*parsed, input, options, &stats);
    eval_s += static_cast<double>(NowNs() - start) / 1e9;
    if (!result.ok()) {
      failures->Add(k, result.status().ToString());
      continue;
    }
    for (const iqlkit::RuleMetrics& r : metrics.rules) rule_s += r.seconds;
    for (const iqlkit::RoundMetrics& r : metrics.rounds) {
      ++rounds;
      if (r.seminaive) ++seminaive;
    }
    steps += stats.steps;
    derivations += stats.derivations;
    added += stats.facts_added;
    invented += stats.invented_oids;
    peak += stats.peak_memory_bytes;
    probes += metrics.index_probes;
    hits += metrics.index_hits;
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  double n = static_cast<double>(order.size());
  auto& v = report->values;
  v["iql.eval.rule_solve_share"] = ratio(rule_s, eval_s);
  v["iql.eval.steps_per_query"] = static_cast<double>(steps) / n;
  v["iql.eval.derivations_per_query"] = static_cast<double>(derivations) / n;
  v["iql.eval.useful_derivation_ratio"] = ratio(added, derivations);
  v["iql.eval.index_hit_rate"] = ratio(hits, probes);
  v["iql.eval.seminaive_round_share"] = ratio(seminaive, rounds);
  v["iql.eval.invented_oids_per_query"] = static_cast<double>(invented) / n;
  v["iql.eval.peak_memory_kb_per_query"] = static_cast<double>(peak) / 1024 / n;
}

// Every frame one served query puts on the wire, encoded by its
// sender and decoded by its receiver, paged as the session pages.
void CodecPass(const ReplayConfig& config, const std::vector<size_t>& order,
               SpanLog* spans, Failures* failures) {
  auto decode = [](FrameDecoder* decoder, const std::string& bytes) {
    decoder->Feed(bytes);
    auto frame = decoder->Next();
    return frame.ok() && frame->has_value() ? std::move(**frame) : Frame{};
  };
  for (uint64_t k = 0; k < order.size(); ++k) {
    const Unit& unit = (*config.pool)[order[k]];
    std::vector<std::string> pages;
    std::string page;
    size_t rows = 0;
    for (size_t pos = 0; pos < unit.expected.size();) {
      size_t eol = unit.expected.find('\n', pos);
      size_t end = eol == std::string::npos ? unit.expected.size() : eol + 1;
      page.append(unit.expected, pos, end - pos);
      pos = end;
      if (++rows == config.page_rows) {
        pages.push_back(std::move(page));
        page.clear();
        rows = 0;
      }
    }
    if (!page.empty() || pages.empty()) pages.push_back(std::move(page));
    std::string id = QueryId('q', k);
    std::string received = Timed(spans, k, "server.wire.codec", "", [&] {
      FrameDecoder server, client;
      Frame query;
      query.type = FrameType::kQuery;
      query.body.SetString("id", id).SetString("source", unit.source);
      decode(&server, EncodeFrame(query));
      std::string data;
      for (size_t seq = 0; seq < pages.size(); ++seq) {
        Frame want;
        want.type = FrameType::kPage;
        want.body.SetString("id", id).SetInt("want", static_cast<int64_t>(seq));
        decode(&server, EncodeFrame(want));
        bool last = seq + 1 == pages.size();
        Frame out;
        out.type = FrameType::kPage;
        out.body.SetString("id", id)
            .SetInt("seq", static_cast<int64_t>(seq))
            .SetString("data", pages[seq])
            .SetBool("done", last);
        if (last) {
          out.body.SetString("outcome", "completed")
              .SetString("code", std::string(iqlkit::StatusCodeName(
                                     iqlkit::StatusCode::kOk)))
              .SetString("status", "")
              .SetInt("attempts", 1);
        }
        data += decode(&client, EncodeFrame(out)).body.StringOr("data", "");
      }
      return data;
    });
    if (received != unit.expected) failures->Add(k, "codec round trip differs");
  }
}

// Queries [begin, end) through Submit -> Wait on `scheduler`, with the
// workload's client count as closed-loop threads.
void SchedulerBlock(const ReplayConfig& config,
                    const std::vector<size_t>& order, uint64_t begin,
                    uint64_t end, iqlkit::server::Scheduler* scheduler,
                    SpanLog* spans, Failures* failures,
                    std::vector<double>* latency_ms) {
  std::atomic<uint64_t> next{begin};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < config.workload->connections; ++c) {
    clients.emplace_back([&] {
      for (uint64_t k = next++; k < end; k = next++) {
        const Unit& unit = (*config.pool)[order[k]];
        iqlkit::server::QueryRequest request;
        request.id = QueryId('r', k);
        request.source = unit.source;
        int64_t start = NowNs();
        auto ticket = scheduler->Submit(std::move(request));
        if (!ticket.ok()) {
          failures->Add(k, "scheduler rejected: " + ticket.status().ToString());
          continue;
        }
        iqlkit::server::QueryResult result = scheduler->Wait(*ticket);
        int64_t finish = NowNs();
        spans->Add({k, "server.scheduler", "", start, finish});
        (*latency_ms)[k] = NsToMs(finish - start);
        if (result.outcome != iqlkit::server::QueryOutcome::kCompleted) {
          failures->Add(
              k, std::string("scheduler outcome ") +
                     iqlkit::server::QueryOutcomeName(result.outcome));
        } else if (result.facts != unit.expected) {
          failures->Add(k, "scheduler result differs from the reference");
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

}  // namespace

ReplayReport Replay(const ReplayConfig& config, SpanLog* spans) {
  ReplayReport report;
  Failures failures(&report);
  QueryStream stream(config.pool->size(), config.stream_seed);
  std::vector<size_t> order;
  uint64_t source_bytes = 0, output_bytes = 0, output_rows = 0;
  for (size_t k = 0; k < config.queries; ++k) {
    order.push_back(stream.Next());
    const Unit& unit = (*config.pool)[order.back()];
    source_bytes += unit.source.size();
    output_bytes += unit.expected.size();
    output_rows += Lines(unit.expected);
  }
  report.attempted = 4 * order.size();

  // The direct and scheduler passes alternate in blocks of queries, so the
  // host's speed, which drifts over seconds, is the same for both and
  // their difference (the scheduler's wait) is not the drift.
  DirectTotals direct;
  std::vector<double> scheduled_ms(order.size());
  uint64_t retries = 0;
  {
    iqlkit::server::SchedulerOptions options;
    options.workers = config.workers;
    if (config.workload->durable) options.data_dir = config.dir + "/scheduler";
    options.durability.fsync = config.fsync;
    iqlkit::server::Scheduler scheduler(options);
    for (uint64_t begin = 0; begin < order.size(); begin += kBlock) {
      uint64_t end = std::min<uint64_t>(begin + kBlock, order.size());
      DirectBlock(config, order, begin, end, spans, &failures, &direct);
      SchedulerBlock(config, order, begin, end, &scheduler, spans, &failures,
                     &scheduled_ms);
    }
    retries = scheduler.counters().retries;
  }
  CountsPass(config, order, &failures, &report);
  CodecPass(config, order, spans, &failures);

  double n = static_cast<double>(order.size());
  const bool durable = config.workload->durable;
  auto& v = report.values;
  v["direct.latency_p50_ms"] = Quantile(direct.ms, 0.5);
  v["server.scheduler.latency_p50_ms"] = Quantile(scheduled_ms, 0.5);
  v["server.scheduler.wait_ms_p50"] =
      v["server.scheduler.latency_p50_ms"] - v["direct.latency_p50_ms"];
  v["server.scheduler.retries_per_query"] = static_cast<double>(retries) / n;
  v["storage.wal_frames_per_query"] = static_cast<double>(direct.frames) / n;
  v["storage.bytes_written_per_query"] =
      durable ? static_cast<double>(direct.written) / n : 0;
  v["storage.write_amplification"] =
      durable && direct.output_bytes > 0
          ? static_cast<double>(direct.written) /
                static_cast<double>(direct.output_bytes)
          : 0;

  // Self time per span name, averaged over the replayed queries.
  std::map<std::string, int64_t> self = spans->SelfTotals();
  auto per_query_ms = [&](const char* name) {
    return NsToMs(self[name]) / n;
  };
  v["iql.parser.ms_per_query"] = per_query_ms("iql.parser");
  v["iql.parser.source_bytes_per_query"] =
      static_cast<double>(source_bytes) / n;
  v["iql.typecheck.ms_per_query"] = per_query_ms("iql.typecheck");
  v["model.facts.load_ms_per_query"] = per_query_ms("model.facts.load");
  v["model.facts.write_ms_per_query"] = per_query_ms("model.facts.write");
  v["model.facts.output_rows_per_query"] = static_cast<double>(output_rows) / n;
  v["model.facts.output_bytes_per_query"] =
      static_cast<double>(output_bytes) / n;
  v["iql.eval.ms_per_query"] = per_query_ms("iql.eval");
  v["storage.begin_run_ms_per_query"] = per_query_ms("storage.begin_run");
  v["storage.step_commit_ms_per_query"] = per_query_ms("storage.step_commit");
  v["storage.finalize_ms_per_query"] = per_query_ms("storage.finalize");
  v["server.wire.codec_us_per_query"] = per_query_ms("server.wire.codec") * 1e3;
  // The part of each `direct` span no layer span covers (set-up and
  // teardown of the attempt's universe and instances).
  int64_t direct_total = 0;
  for (const Span& s : spans->spans()) {
    if (std::string_view(s.name) == "direct") {
      direct_total += s.end_ns - s.start_ns;
    }
  }
  v["trace.unattributed_pct"] =
      direct_total > 0 ? 100.0 * static_cast<double>(self["direct"]) /
                             static_cast<double>(direct_total)
                       : 0;
  return report;
}

}  // namespace iqlbench
