// Dataflow analysis over the flat rule IL (iql/il.h) that finds the work
// an optimizer could drop, plus the L-series IL diagnostics `iqlint --il`
// reports. The analysis never rewrites the rule: the VM runs the raw
// lowering, and the findings surface only as lint (L001, L003).
//
// Pass order (each justified by the dominance argument in iql/ilcheck.h:
// pc order dominates, registers are SSA, and a backtrack to scan s leaves
// every register defined at pc <= s untouched):
//
//   1. Load hoisting. kLoadConst / kLoadRel / kLoadClass are pure,
//      operand-free, and cannot fail, so they are treated as if at the top
//      of the body (loop-invariant: a load under a scan re-executes per
//      candidate for the same hash-consed id), which makes constants
//      available as probe keys for every scan (pass 4).
//   2. Value numbering + equality propagation. Duplicate pure producers
//      collapse (hash-consing makes identical constructions the same
//      ValueId); a successful kCmp/kCheckEq(pol) makes its operands equal
//      for every later pc, so later reads use the earlier register.
//   3. Redundant-check elimination. A check identical (up to register
//      equivalence) to one that already succeeded on every path here
//      always succeeds, as do kCmp r, r after propagation. Checks that can
//      never succeed (distinct constants compared, kCheckIn over a
//      never-set register) mark the body statically empty (L003).
//   4. Filter sinking. For a scan followed by its kMatchTuple guard, a
//      field projection compared against a register bound before the scan
//      could become a *strict* probe key -- a scan that skips candidates
//      whose keyed field differs -- which would imply the post-scan
//      compare.
//   5. Dead-value elimination. Pure producers (loads, kGetField,
//      kMakeTuple, kMakeSet) whose result is never read are dead, to a
//      fixpoint. Scans (they shape the loop nest) and kDeref (a failing
//      deref is a filter) are never dead.

#ifndef IQLKIT_IQL_ILOPT_H_
#define IQLKIT_IQL_ILOPT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/interner.h"
#include "iql/ast.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "model/type.h"

namespace iqlkit::il {

// Why the analysis finds an instruction droppable -- the L001 evidence.
enum class RemoveReason : uint8_t {
  kValueNumbered,   // duplicate pure producer; the earlier register serves
  kRedundantCheck,  // an identical check already succeeded on this path
  kTautology,       // the check can never fail after equality propagation
  kProbeImplied,    // implied by a strict probe key sunk into its scan
  kDeadValue,       // pure producer whose result is never read
};

// Stable lowercase name ("value-numbered", "dead-value", ...).
std::string_view RemoveReasonName(RemoveReason reason);

struct RemovedInstr {
  uint32_t pc = 0;        // pc in the analyzed rule
  uint32_t src = kNoSrc;  // originating body literal (Instr::src)
  RemoveReason reason = RemoveReason::kDeadValue;
};

// A statically-always-failing filter: the body provably emits nothing.
struct EmptyReason {
  uint32_t pc = 0;        // pc of the contradiction in the analyzed rule
  uint32_t src = kNoSrc;  // its body literal
  std::string detail;
};

struct OptResult {
  std::vector<RemovedInstr> removed;       // ascending pc
  std::vector<uint32_t> strict_scans;      // scan pcs a filter sinks into
  std::optional<EmptyReason> statically_empty;  // first contradiction (L003)
};

// Runs the passes above over one verifier-clean compiled rule. Every pc
// in the result refers to `cr`.
OptResult OptimizeRule(const CompiledRule& cr);

// ---- L-series lint --------------------------------------------------------
//
//   L001 (hint)    dead/redundant instruction the analysis finds
//   L002 (hint)    join scan with no bindable probe key: a full scan of the
//                  container per outer candidate
//   L003 (warning) statically empty rule body (always-failing filter)
//   L004 (error)   verifier violation (malformed IL; never from CompileRule)
//
// Spans map through Instr::src to the source literal that lowered to the
// instruction (whole-rule span when the instruction was synthesized).
// Tree-walk fallback rules are skipped: they have no IL to diagnose.
void LintProgramIl(const Program& prog, const SymbolTable& syms,
                   const TypePool& types, DiagnosticSink* sink);

// Renders L-series diagnostics for one already-compiled rule (the
// building block LintProgramIl uses; exposed for tests and tools).
void LintCompiledRule(const CompiledRule& cr, const Rule& rule,
                      const SymbolTable& syms, const TypePool& types,
                      DiagnosticSink* sink);

}  // namespace iqlkit::il

#endif  // IQLKIT_IQL_ILOPT_H_
