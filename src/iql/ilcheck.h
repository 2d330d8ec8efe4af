// Dataflow analyses and the static verifier for the flat rule IL
// (iql/il.h).
//
// All of the analyses here exploit one structural fact about the IL's
// control flow: backtracking only ever re-enters the body at scan_pc + 1,
// and a register is written by exactly one instruction (the compiler is
// SSA over registers). Together those make *pc order a dominance order*:
// when execution sits at pc u, every instruction at pc < u most recently
// executed -- successfully -- with the registers' current values (a
// backtrack to scan s leaves every register defined at pc <= s untouched
// and re-executes everything in (s, u) in order). A single forward pass is
// therefore a sound whole-body analysis; no fixpoint iteration is needed.
//
// The verifier (VerifyRule) rejects malformed IL -- use-before-def,
// double definitions, out-of-range shape/aux/register indices, unguarded
// field projections, probe specs keyed on unbound registers, misplaced
// terminators -- before the VM (which elides all of those checks on its
// hot path) ever runs it. CompileRule calls it after every lowering in
// debug builds.

#ifndef IQLKIT_IQL_ILCHECK_H_
#define IQLKIT_IQL_ILCHECK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/interner.h"
#include "iql/il.h"

namespace iqlkit::il {

// ---- operand iteration ----------------------------------------------------

// Calls `fn` once per register the instruction at `pc` reads: the a/b
// operands, kMakeTuple/kMakeSet element registers, scan probe-spec key
// registers (keys are evaluated before the scan resolves its candidate
// list, so they count as reads at the scan's pc).
void ForEachUse(const CompiledRule& cr, size_t pc,
                const std::function<void(uint16_t)>& fn);

// The register the instruction defines, or -1: loads, construction,
// kDeref, kGetField, and scans define `dst`; filters, checks, and kEmit
// define nothing.
int DefOf(const Instr& in);

// ---- def-use chains -------------------------------------------------------

struct DefUse {
  // def[r]: pc of the unique instruction defining register r, or -1.
  std::vector<int> def;
  // uses[r]: pcs reading r, ascending (one entry per reading instruction).
  std::vector<std::vector<uint32_t>> uses;
};

DefUse BuildDefUse(const CompiledRule& cr);

// ---- liveness -------------------------------------------------------------

// Syntactic live range of each register, with the one fact that matters
// across backtracking: a register whose range spans a scan stays live for
// every iteration of that scan's loop (the loop body re-reads it), so a
// future register allocator may only share registers whose ranges avoid
// each other's spanned scans. Theta registers are read at kEmit and so
// are live to the end of the body.
struct LiveRange {
  int def = -1;       // defining pc, or -1 (never defined)
  int last_use = -1;  // last reading pc (incl. kEmit for theta), or -1
  bool crosses_scan = false;  // a scan sits strictly inside (def, last_use)
};

std::vector<LiveRange> ComputeLiveRanges(const CompiledRule& cr);

// ---- abstract values ------------------------------------------------------

// What a register is statically known to hold, from one forward pass over
// the defs (sound per the dominance argument above). Hash-consing makes
// raw ValueId comparison structural, so two registers with the same known
// abstract value hold the *same id* at runtime -- the basis for the
// optimizer's value numbering -- and two distinct constants can never
// compare equal.
struct AbsVal {
  enum class Kind : uint8_t {
    kAny,         // scan candidates, fields, derefs: unknown
    kConst,       // the constant `sym` (kLoadConst)
    kRelValue,    // the set value of relation `sym` (kLoadRel)
    kClassValue,  // the oid-set value of class `sym` (kLoadClass)
    kTuple,       // a tuple of shape `shape` (kMakeTuple)
    kSet,         // a set (kMakeSet)
  };
  Kind kind = Kind::kAny;
  Symbol sym = kInvalidSymbol;  // kConst / kRelValue / kClassValue
  uint32_t shape = 0;           // kTuple
};

std::vector<AbsVal> PropagateAbstract(const CompiledRule& cr);

// True when the two abstract values denote provably distinct runtime
// values. Only distinct constants qualify (everything else may alias).
bool ProvablyDistinct(const AbsVal& a, const AbsVal& b);

// True when the value can never be a set / a tuple, respectively --
// feeding kCheckIn or kMatchTuple such a register is a statically
// always-failing filter (the L003 diagnostic).
bool NeverSet(const AbsVal& v);
bool NeverTuple(const AbsVal& v);

// ---- verifier -------------------------------------------------------------

// One verifier rejection: the offending pc and a human-readable detail.
// The IL lint renders these as L004 diagnostics.
struct IlViolation {
  uint32_t pc = 0;
  std::string detail;
};

// Statically checks one compiled rule. Empty result = well-formed. The
// checks cover exactly the invariants the VM relies on without runtime
// guards; a rule that passes cannot index out of range or read an
// undefined register in VmSolver::Solve.
std::vector<IlViolation> VerifyRule(const CompiledRule& cr);

}  // namespace iqlkit::il

#endif  // IQLKIT_IQL_ILCHECK_H_
