#ifndef IQLKIT_ANALYSIS_ANALYZER_H_
#define IQLKIT_ANALYSIS_ANALYZER_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "iql/ast.h"
#include "iql/parser.h"
#include "model/instance.h"
#include "model/schema.h"
#include "model/universe.h"

namespace iqlkit {

// The iqlint static analyzer: W-level program checks (W001-W007) plus
// O-level optimizer hints, layered on the span-carrying diagnostics of
// analysis/diagnostic.h. See that header for the code registry and
// docs/LANGUAGE.md for a catalogue with minimal triggering programs.
struct AnalyzerOptions {
  // Emit O-level optimizer hints (O001) in addition to warnings.
  bool hints = true;
  // When set, O001 notes include cardinality estimates from this instance.
  const Instance* input = nullptr;
};

// File-wide suppressions: every `# iqlint: allow(W002, W003)` comment in
// `source` contributes its codes to the returned set. LintSource applies
// these automatically; callers driving AnalyzeProgram directly can filter
// with the result themselves.
std::set<std::string> ParseLintPragmas(std::string_view source);

// Runs the analyzer passes over a *type-checked* program (TypeCheck fills
// the var_types/invented_vars the passes read). `output_names` feeds W005
// (dead rule); pass an empty vector when the program has no declared
// outputs, which disables that pass. Diagnostics are appended to `sink` in
// source order.
void AnalyzeProgram(Universe* universe, const Program& program,
                    const std::vector<std::string>& output_names,
                    const AnalyzerOptions& options, DiagnosticSink* sink);

// AnalyzeProgram plus the schema-level pass (W006 on declarations). The
// program passes run only if unit.program.type_checked is set.
void AnalyzeUnit(Universe* universe, const ParsedUnit& unit,
                 const AnalyzerOptions& options, DiagnosticSink* sink);

// The full iqlint pipeline over one source buffer: lex, parse, validate,
// type check, analyze. Every problem lands in `sink` as a diagnostic
// (E001/E002 lex+syntax, E003 validation, E004 types, then the W/O
// passes), with `# iqlint: allow(...)` pragmas applied. The sink's
// max_severity() is the lint verdict.
void LintSource(Universe* universe, std::string_view source,
                const AnalyzerOptions& options, DiagnosticSink* sink);

}  // namespace iqlkit

#endif  // IQLKIT_ANALYSIS_ANALYZER_H_
