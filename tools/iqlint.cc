// iqlint: the IQL static analyzer.
//
//   iqlint [flags] <file.iql> [more files...]
//
// Lexes, parses, type checks, and runs the analyzer passes over each file,
// printing every diagnostic with a clang-style source excerpt (or as JSON).
// See docs/LANGUAGE.md ("Static analysis") for the code catalogue.
//
// Flags:
//   --format=text|json   output format (default text)
//   --no-hints           suppress O-level / L-level hints
//   --il                 also compile every VM-eligible rule to the flat
//                        IL and report the L-series IL diagnostics
//                        (unbindable join probes, statically empty
//                        bodies, verifier violations) through the same
//                        sink, so both formats cover them
//   --il-dump            instead of linting, print the IL each VM-eligible
//                        rule compiles to (tree-walk fallbacks marked);
//                        used to maintain the golden IL corpus
//
// Exit status: 2 if any file has an error, 1 if any has a warning,
// 0 otherwise (hints never fail a run).

#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"
#include "storage/io.h"

int main(int argc, char** argv) {
  using namespace iqlkit;
  bool json = false;
  bool hints = true;
  bool il = false;
  bool il_dump = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--format=text") {
      json = false;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--no-hints") {
      hints = false;
    } else if (arg == "--il") {
      il = true;
    } else if (arg == "--il-dump") {
      il_dump = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "iqlint: unknown flag " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: iqlint [--format=text|json] [--no-hints] [--il] "
                 "[--il-dump] <file.iql>...\n";
    return 2;
  }
  int exit_code = 0;
  for (const std::string& path : paths) {
    Result<std::string> read = storage::ReadFileBytes(path);
    if (!read.ok()) {
      std::cerr << "iqlint: " << read.status() << "\n";
      return 2;
    }
    std::string source = std::move(*read);

    if (il_dump) {
      Universe u;
      auto unit = ParseUnit(&u, source);
      if (!unit.ok()) {
        std::cerr << "iqlint: " << unit.status() << "\n";
        return 2;
      }
      Status checked = TypeCheck(&u, unit->schema, &unit->program);
      if (!checked.ok()) {
        std::cerr << "iqlint: " << checked << "\n";
        return 2;
      }
      std::cout << il::DumpProgramIl(unit->program, u.symbols(), u.types());
      continue;
    }

    Universe u;
    AnalyzerOptions options;
    options.hints = hints;
    DiagnosticSink sink;
    LintSource(&u, source, options, &sink);

    if (il) {
      // The analyzer consumed its own universe state; re-front-end into a
      // fresh one for the IL pipeline. A file that no longer parses or
      // type checks already has the errors in the sink -- skip quietly.
      Universe u2;
      auto unit = ParseUnit(&u2, source);
      if (unit.ok() &&
          TypeCheck(&u2, unit->schema, &unit->program).ok()) {
        DiagnosticSink il_sink;
        il::LintProgramIl(unit->program, u2.symbols(), u2.types(), &il_sink);
        for (const Diagnostic& d : il_sink.diagnostics()) {
          if (!hints && d.severity == Severity::kHint) continue;
          sink.Report(d);
        }
      }
    }

    if (json) {
      std::cout << RenderJson(sink.diagnostics(), path) << "\n";
    } else {
      std::cout << RenderText(sink.diagnostics(), source, path);
      if (sink.empty() && paths.size() == 1) {
        std::cout << path << ": no issues\n";
      }
    }
    auto max = sink.max_severity();
    if (max.has_value()) {
      if (*max == Severity::kError) {
        exit_code = std::max(exit_code, 2);
      } else if (*max == Severity::kWarning) {
        exit_code = std::max(exit_code, 1);
      }
    }
  }
  return exit_code;
}
