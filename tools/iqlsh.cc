// iqlsh: a command-line driver for IQL source units.
//
//   iqlsh [flags] <file.iql>
//
// The file contains `schema { ... }`, optional `input`/`output`
// projections, an optional `instance { ... }` block of ground facts, and a
// `program { ... }` block of rules. iqlsh parses, type checks, classifies
// (§5), evaluates, and prints the result. Evaluation runs every
// invention-free, choose-free rule on the register VM and the rest on the
// tree-walker.
//
// Flags:
//   --allow-deletions    enable IQL* negative heads (§4.5)
//   --choose-max         bind `choose` to the maximal candidate (§4.4)
//   --validate-only      parse/typecheck/classify, don't evaluate
//   --print-input        echo the parsed input instance
//   --restrictions       print the §5 sublanguage report
//   --stats              print evaluation statistics
//   --max-steps=N        fixpoint step budget per stage
//   --dot                emit the output instance as a Graphviz digraph
//   --trace              stream per-step fixpoint progress to stderr
//   --write-facts        emit the output as a re-parseable instance block
//   --ground-facts       emit ground-facts(I) in the paper's notation
//   --metrics, :metrics  evaluate, then dump per-rule/per-round metrics
//                        as JSON (EvalMetrics::ToJson)
//   --explain, :explain  print each rule's plan: a VM rule's steps in the
//                        order of its compiled IL, a tree-walk rule's
//                        generators (ordered at run time); sizes are the
//                        input's (no evaluation unless --metrics is set)
//   --il, :il            print the flat rule IL each VM-eligible rule
//                        compiles to (tree-walk fallbacks marked) and exit
//   --lint, :lint        run the iqlint static analyzer and exit (exit
//                        code 2 on errors, 1 on warnings, 0 otherwise)
//   --no-seminaive       force the paper's naive operator on every stage
//   --no-index           disable hash-indexed generators
//   --no-schedule        disable selectivity-aware literal scheduling
//   --threads=N          worker-pool parallel evaluation: 0 = hardware
//                        concurrency (the default), 1 = serial. Results
//                        are bit-for-bit identical for every N; :metrics
//                        reports the resolved count and per-rule
//                        partition totals
//   --timeout=SECONDS    wall-clock deadline for evaluation (fractional
//                        seconds allowed); on expiry the run stops with
//                        DEADLINE_EXCEEDED and a partial-evaluation report
//   --max-memory=BYTES   evaluation memory ceiling (interned values +
//                        derived facts, as metered by the governor's
//                        accountant)
//   --data-dir=DIR       durable evaluation: DIR/wal.iqw holds a checksummed
//                        base snapshot plus a frame per committed fixpoint
//                        step. A re-run with the same DIR resumes a
//                        partial (tripped/interrupted/crashed) run from
//                        its last committed step and serves a finished
//                        run's output straight from the log.
//                        An unwritable DIR degrades to plain in-memory
//                        evaluation with a warning on stderr.
//   --no-fsync           skip fsync on log writes (crash-only
//                        durability, for tests and benchmarks)
//
// A malformed or out-of-range numeric flag value (trailing characters, a
// sign on an unsigned flag, a negative timeout) is a usage error, exit 2.
//
// SIGINT (Ctrl-C) during evaluation cancels the running query instead of
// killing the process: the governor rolls the instance back to the last
// completed fixpoint step, iqlsh prints a partial-evaluation report, and
// exits 130. Any other governor trip (deadline, memory, step/derivation
// budgets) prints the same report and exits 3. With --data-dir, the
// rolled-back partial is additionally flushed as the log's new base before
// exiting (the logged steps fold into it), so the next run resumes where Ctrl-C
// landed; the exit code stays 130.

#include <csignal>
#include <iostream>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "base/fault_injection.h"
#include "base/flags.h"
#include "iql/eval.h"
#include "iql/il.h"
#include "iql/parser.h"
#include "iql/restrict.h"
#include "iql/typecheck.h"
#include "model/dot.h"
#include "model/universe.h"
#include "storage/durable.h"
#include "storage/io.h"
#include "storage/snapshot.h"

namespace {

// Signal-handler-visible cancellation token: CancellationToken::Cancel is a
// single atomic store, so it is async-signal-safe.
iqlkit::CancellationToken g_cancel;

extern "C" void HandleSigint(int /*sig*/) { g_cancel.Cancel(); }

int Fail(const iqlkit::Status& status) {
  std::cerr << "iqlsh: " << status << "\n";
  return 1;
}

// Parse/typecheck failures print through the diagnostic renderer when the
// sink caught them (caret excerpt); otherwise fall back to the Status line.
int FailWithDiagnostics(const iqlkit::DiagnosticSink& sink,
                        const iqlkit::Status& status,
                        const std::string& source, const std::string& path) {
  if (sink.empty()) return Fail(status);
  std::cerr << iqlkit::RenderText(sink.diagnostics(), source, path);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iqlkit;
  // Soak/CI harness hook: IQLKIT_FAULTS seeds the process-global fault
  // injector (base/fault_injection.h); unset means disabled.
  Status faults = FaultInjector::Global().ConfigureFromEnv();
  if (!faults.ok()) return Fail(faults);
  bool allow_deletions = false;
  bool choose_max = false;
  bool validate_only = false;
  bool print_input = false;
  bool restrictions = false;
  bool stats_flag = false;
  bool dot = false;
  bool trace = false;
  bool write_facts = false;
  bool ground_facts = false;
  bool metrics_flag = false;
  bool explain_flag = false;
  bool il_flag = false;
  bool no_seminaive = false;
  bool no_index = false;
  bool no_schedule = false;
  bool lint_flag = false;
  uint64_t max_steps = 0;
  double timeout_seconds = 0;
  uint64_t max_memory = 0;
  uint32_t num_threads = 1;
  bool threads_set = false;
  std::string data_dir;
  bool no_fsync = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    Status bad = Status::Ok();  // a numeric flag's verdict
    // `:name` is shell-friendly shorthand for `--name` (":metrics" reads
    // like a REPL command).
    if (arg.size() > 1 && arg[0] == ':') arg = "--" + arg.substr(1);
    if (arg == "--allow-deletions") {
      allow_deletions = true;
    } else if (arg == "--choose-max") {
      choose_max = true;
    } else if (arg == "--validate-only") {
      validate_only = true;
    } else if (arg == "--print-input") {
      print_input = true;
    } else if (arg == "--restrictions") {
      restrictions = true;
    } else if (arg == "--stats") {
      stats_flag = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--write-facts") {
      write_facts = true;
    } else if (arg == "--ground-facts") {
      ground_facts = true;
    } else if (arg == "--metrics") {
      metrics_flag = true;
    } else if (arg == "--explain") {
      explain_flag = true;
    } else if (arg == "--il") {
      il_flag = true;
    } else if (arg == "--no-seminaive") {
      no_seminaive = true;
    } else if (arg == "--no-index") {
      no_index = true;
    } else if (arg == "--no-schedule") {
      no_schedule = true;
    } else if (arg == "--lint") {
      lint_flag = true;
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      bad = SetNumericFlag(arg, &max_steps);
    } else if (arg.rfind("--timeout=", 0) == 0) {
      bad = SetNumericFlag(arg, &timeout_seconds, 0.0);
    } else if (arg.rfind("--max-memory=", 0) == 0) {
      bad = SetNumericFlag(arg, &max_memory);
    } else if (arg.rfind("--threads=", 0) == 0) {
      bad = SetNumericFlag(arg, &num_threads);
      threads_set = true;
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(11);
    } else if (arg == "--no-fsync") {
      no_fsync = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "iqlsh: unknown flag " << arg << "\n";
      return 2;
    } else {
      path = arg;
    }
    if (!bad.ok()) {
      std::cerr << "iqlsh: " << bad << "\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: iqlsh [flags] <file.iql>\n";
    return 2;
  }
  Result<std::string> read = storage::ReadFileBytes(path);
  if (!read.ok()) {
    std::cerr << "iqlsh: " << read.status() << "\n";
    return 2;
  }
  std::string source = std::move(*read);
  Universe u;

  if (lint_flag) {
    AnalyzerOptions lint_options;
    DiagnosticSink sink;
    LintSource(&u, source, lint_options, &sink);
    std::cout << RenderText(sink.diagnostics(), source, path);
    if (sink.empty()) std::cout << path << ": no issues\n";
    auto max = sink.max_severity();
    if (!max.has_value() || *max == Severity::kHint) return 0;
    return *max == Severity::kError ? 2 : 1;
  }

  DiagnosticSink diags;
  auto unit = ParseUnit(&u, source, &diags);
  if (!unit.ok()) {
    return FailWithDiagnostics(diags, unit.status(), source, path);
  }

  Status checked = TypeCheck(&u, unit->schema, &unit->program, &diags);
  if (!checked.ok()) {
    return FailWithDiagnostics(diags, checked, source, path);
  }

  if (il_flag) {
    std::cout << "=== rule IL ===\n"
              << il::DumpProgramIl(unit->program, u.symbols(), u.types());
    return 0;
  }

  if (restrictions) {
    RestrictionReport report = AnalyzeRestrictions(&u, unit->program);
    std::cout << "=== §5 sublanguage report ===\n"
              << "  ptime-restricted: " << report.ptime_restricted << "\n"
              << "  range-restricted: " << report.range_restricted << "\n"
              << "  invention-free:   " << report.invention_free << "\n"
              << "  recursion-free:   " << report.recursion_free << "\n"
              << "  in IQLpr:         " << report.in_iql_pr << "\n"
              << "  in IQLrr:         " << report.in_iql_rr << "\n";
    for (const std::string& note : report.notes) {
      std::cout << "  note: " << note << "\n";
    }
  }

  // Build the input instance: over the input projection if declared,
  // otherwise over the full schema.
  std::shared_ptr<const Schema> input_schema;
  if (unit->input_names.empty()) {
    input_schema = std::shared_ptr<const Schema>(&unit->schema,
                                                 [](const Schema*) {});
  } else {
    auto projected = unit->schema.Project(unit->input_names);
    if (!projected.ok()) return Fail(projected.status());
    input_schema = std::make_shared<const Schema>(std::move(*projected));
  }
  Instance input(input_schema, &u);
  Status applied = ApplyFacts(*unit, &input);
  if (!applied.ok()) return Fail(applied);
  Status valid = input.Validate();
  if (!valid.ok()) return Fail(valid);
  if (print_input) {
    std::cout << "=== input instance ===\n" << input.ToString();
  }
  if (validate_only) {
    std::cout << "OK: parsed, type checked, input validates\n";
    return 0;
  }
  if (explain_flag) {
    auto schedule = ExplainSchedule(&u, unit->schema, &unit->program, input);
    if (!schedule.ok()) return Fail(schedule.status());
    std::cout << "=== join schedule (static, vs. input) ===\n" << *schedule;
    if (!metrics_flag) return 0;
  }

  // Durable state (--data-dir): recover a previous run of this unit from
  // the directory before evaluating. A finished run is served straight
  // from its logged output; a partial resumes from its last committed
  // step; anything unusable (corrupt, another schema or program) is
  // discarded with a warning and the run starts over.
  std::shared_ptr<const Schema> full_schema(std::shared_ptr<const Schema>(),
                                            &unit->schema);
  std::optional<storage::QueryDurability> durable;
  std::optional<storage::RecoveredRun> recovered;
  std::optional<Instance> served;  // complete run recovered from the log
  if (!data_dir.empty()) {
    storage::DurabilityConfig dconfig;
    dconfig.fsync = !no_fsync;
    durable.emplace(storage::QueryDurability::Open(
        data_dir, dconfig, storage::SourceDigest(source)));
    if (!durable->active()) {
      std::cerr << "iqlsh: " << durable->warning() << "\n";
      durable.reset();
    }
  }
  if (durable.has_value()) {
    std::shared_ptr<const Schema> out_schema = full_schema;
    if (!unit->output_names.empty()) {
      auto projected = unit->schema.Project(unit->output_names);
      if (!projected.ok()) return Fail(projected.status());
      out_schema = std::make_shared<const Schema>(std::move(*projected));
    }
    auto rec = durable->Recover(full_schema, out_schema, &u);
    if (!rec.ok()) {
      if (rec.status().code() == StatusCode::kUnavailable) {
        return Fail(rec.status());
      }
      std::cerr << "iqlsh: discarding unusable durable state: "
                << rec.status() << "\n";
    } else if (rec->has_value()) {
      if ((*rec)->complete) {
        std::cerr << "iqlsh: serving finished run from " << data_dir
                  << "/wal.iqw\n";
        served = std::move((*rec)->instance);
      } else {
        std::cerr << "iqlsh: resuming from " << data_dir << " at stage "
                  << (*rec)->resume_stage << " step " << (*rec)->resume_step
                  << " (" << (*rec)->frames_replayed << " wal frames"
                  << ((*rec)->tail_truncated ? ", torn tail truncated" : "")
                  << ")\n";
        recovered = std::move(**rec);
      }
    }
  }

  EvalOptions options;
  options.allow_deletions = allow_deletions;
  if (choose_max) {
    options.choose_policy = EvalOptions::ChoosePolicy::kMaxOid;
  }
  if (max_steps > 0) options.limits.max_steps_per_stage = max_steps;
  if (timeout_seconds > 0) options.limits.deadline_seconds = timeout_seconds;
  if (max_memory > 0) options.limits.max_memory_bytes = max_memory;
  options.cancel = &g_cancel;
  std::optional<Instance> partial;
  options.partial = &partial;
  if (trace) options.trace = &std::cerr;
  options.enable_seminaive = !no_seminaive;
  options.enable_indexing = !no_index;
  options.enable_scheduling = !no_schedule;
  // Without --threads the library default applies (0 = hardware
  // concurrency); results are identical either way.
  if (threads_set) options.num_threads = num_threads;
  EvalMetrics metrics;
  if (metrics_flag) options.metrics = &metrics;
  EvalStats stats;
  if (durable.has_value() && !served.has_value()) {
    if (recovered.has_value()) {
      options.durability.resume = true;
      options.durability.resume_stage = recovered->resume_stage;
      options.durability.resume_step = recovered->resume_step;
    } else {
      // The log's base covers the input as absorbed into the full schema
      // -- the state evaluation actually starts from, and the schema every
      // later frame and checkpoint is keyed to.
      Instance base(full_schema, &u);
      Status absorbed = base.Absorb(input);
      if (!absorbed.ok()) return Fail(absorbed);
      Status begun = durable->BeginRun(base);
      if (!begun.ok()) return Fail(begun);
    }
    options.durability.sink = &*durable;
  }
  // Cancel the running query on Ctrl-C instead of killing the process; the
  // governor rolls the instance back to the last completed step.
  std::signal(SIGINT, HandleSigint);
  auto out = served.has_value()
                 ? Result<Instance>(std::move(*served))
                 : RunUnit(&u, &*unit,
                           recovered.has_value() ? recovered->instance : input,
                           options, &stats);
  std::signal(SIGINT, SIG_DFL);
  if (!out.ok()) {
    if (stats.trip == TripReason::kNone) return Fail(out.status());
    // Governor trip: partial-evaluation report. The instance below is the
    // transactional-rollback state -- identical to the last completed
    // fixpoint step, byte-for-byte reproducible with --max-steps.
    std::cerr << "iqlsh: " << out.status() << "\n";
    std::cerr << "=== partial evaluation (trip: "
              << TripReasonName(stats.trip) << ") ===\n"
              << "  steps completed: " << stats.steps << "\n"
              << "  derivations:     " << stats.derivations << "\n"
              << "  invented oids:   " << stats.invented_oids << "\n"
              << "  elapsed seconds: " << stats.elapsed_seconds << "\n"
              << "  peak memory:     " << stats.peak_memory_bytes << "\n";
    if (partial.has_value()) {
      if (durable.has_value()) {
        // Flush the rolled-back partial as the log's new base (the logged
        // steps fold into it) so the next --data-dir run resumes right here.
        // The partial report and exit code are unchanged either way.
        Status flushed = durable->Checkpoint(*partial);
        if (flushed.ok()) {
          std::cerr << "  durable snapshot flushed to " << data_dir << "\n";
        } else {
          std::cerr << "iqlsh: snapshot flush failed: " << flushed << "\n";
        }
      }
      if (write_facts) {
        std::cout << WriteFacts(*partial);
      } else {
        std::cout << "=== partial instance (last completed step) ===\n"
                  << partial->ToString();
      }
    }
    if (metrics_flag) std::cerr << metrics.ToJson() << "\n";
    return stats.trip == TripReason::kCancelled ? 130 : 3;
  }
  if (durable.has_value() && !served.has_value()) {
    Status finalized = durable->Finalize(*out);
    if (!finalized.ok()) {
      std::cerr << "iqlsh: could not finalize durable state: " << finalized
                << "\n";
    }
  }

  if (dot) {
    std::cout << InstanceToDot(*out, path);
    // Keep stdout machine-readable; metrics go to stderr here.
    if (metrics_flag) std::cerr << metrics.ToJson() << "\n";
    return 0;
  }
  if (write_facts) {
    // Re-parseable: paste below the schema to reload the output.
    std::cout << WriteFacts(*out);
    if (metrics_flag) std::cerr << metrics.ToJson() << "\n";
    return 0;
  }
  if (ground_facts) {
    std::cout << out->GroundFactsToString();
    if (metrics_flag) std::cerr << metrics.ToJson() << "\n";
    return 0;
  }
  std::cout << "=== output instance ===\n" << out->ToString();
  if (stats_flag) {
    std::cout << "=== stats ===\n"
              << "  steps:         " << stats.steps << "\n"
              << "  derivations:   " << stats.derivations << "\n"
              << "  invented oids: " << stats.invented_oids << "\n"
              << "  facts added:   " << stats.facts_added << "\n"
              << "  facts deleted: " << stats.facts_deleted << "\n";
  }
  if (metrics_flag) {
    std::cout << "=== metrics ===\n" << metrics.ToJson() << "\n";
  }
  return 0;
}
