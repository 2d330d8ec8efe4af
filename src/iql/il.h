// Flat rule IL: each VM-eligible rule body is lowered once, ahead of
// enumeration, into a linear instruction sequence over value registers.
// The register VM in iql/vm.h executes it against the same
// RelationIndex / ValueStore / ExtentEnumerator machinery the tree-walking
// RuleSolver uses, so both engines see identical candidate lists in the
// canonical structural order and produce byte-identical outputs.
//
// Execution model. Instructions fall into two families:
//
//   * Straight-line ops (loads, construction, filters, checks). Failure of
//     any of them FAILs the current control point: the VM backtracks to the
//     innermost open scan, advances its candidate, and resumes at the
//     instruction after that scan. With no open scan, enumeration ends.
//   * Scan ops (kScanRel / kScanClass / kScanSet / kScanDelta /
//     kScanExtent) open a loop: they resolve a candidate list (delta
//     facts, an index probe when key fields are statically bound, an index
//     scan, or a materialized extent), push a frame, and iterate `dst`
//     over the list. kEmit fires the callback with the current valuation
//     and then backtracks, so the whole body runs as one flat loop nest.
//
// Eligibility. Only invention-free, choose-free rules compile
// (CompileRule returns nullopt otherwise and the evaluator falls back to
// the tree-walker for that rule). Those are exactly the rules whose head
// effects are insensitive to enumeration order -- relation / class / set
// inserts deduplicate at commit and weak-assignment candidates accumulate
// into an ordered set -- so the IL planner is free to pick its own join
// order while the observable output stays bit-identical. Oid invention
// and `choose` observe enumeration order (minting order, rng stream) and
// therefore stay on the interpreter, which doubles as the differential
// oracle for everything the VM runs.

#ifndef IQLKIT_IQL_IL_H_
#define IQLKIT_IQL_IL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/interner.h"
#include "iql/ast.h"
#include "model/type.h"

namespace iqlkit::il {

// One opcode. `pol` on check ops is the literal's polarity: the check
// FAILs unless (contains == pol).
enum class Op : uint8_t {
  // Straight-line value construction.
  kLoadConst,   // dst = values.ConstSymbol(sym)
  kLoadRel,     // dst = Set(rho(R)), R = sym
  kLoadClass,   // dst = Set(pi(P) as oid values), P = sym
  kDeref,       // dst = nu(oid in a); FAIL on non-oid / undefined nu
  kGetField,    // dst = field #imm of the tuple in a (after kMatchTuple)
  kMakeTuple,   // dst = Tuple(shapes[imm] attrs zipped with aux regs)
  kMakeSet,     // dst = Set(aux regs)
  // Straight-line filters.
  kMatchTuple,  // a is a tuple with exactly the attrs of shapes[imm]
  kBindType,    // a is a member of type imm (binding occurrence check)
  kCmp,         // a == b (raw id compare; hash-consing makes it structural)
  // Fully-bound literal checks.
  kCheckRel,    // (b in rho(sym)) == pol
  kCheckClass,  // (b is an oid of pi(sym)) == pol
  kCheckIn,     // (b in set a) == pol; non-set a FAILs either polarity
  kCheckEq,     // (a == b) == pol
  kCheckDelta,  // b in the sorted delta facts (always positive)
  // Loop heads. aux holds the probe spec: naux/2 statically-bound key
  // fields as (attr symbol, key register) pairs, attrs ascending.
  kScanRel,     // dst ranges over rho(sym)
  kScanClass,   // dst ranges over pi(sym) as oid values
  kScanSet,     // dst ranges over the elements of the set in a
  kScanDelta,   // dst ranges over the delta facts (semi-naive variant)
  kScanExtent,  // dst ranges over the extent of type imm (binds directly)
  // Terminator.
  kEmit,        // fire the callback with theta, then backtrack
};

// Sentinel for Instr::src: the instruction was synthesized by the planner
// (extent ranges, the final kEmit) rather than lowered from a body literal.
inline constexpr uint32_t kNoSrc = 0xFFFFFFFFu;

struct Instr {
  Op op = Op::kEmit;
  bool pol = true;      // polarity for kCheck*
  uint16_t dst = 0;     // result / scan register
  uint16_t a = 0;       // first operand register
  uint16_t b = 0;       // second operand register
  Symbol sym = kInvalidSymbol;  // relation / class / constant symbol
  uint32_t imm = 0;     // TypeId, shape index, or field position
  uint32_t aux = 0;     // offset into CompiledRule::aux
  uint32_t naux = 0;    // operand count at aux
  // Provenance: index of the body literal this instruction lowers (into
  // Rule::body), or kNoSrc. The IL lint maps diagnostics back to the
  // literal's SourceSpan through this.
  uint32_t src = kNoSrc;
};

// A lowered rule body. `theta` lists every body variable with the register
// holding its binding at kEmit, sorted by symbol -- exactly the keys the
// tree-walker's Bindings map carries, so downstream head evaluation,
// satisfiability filtering, and invention-free Apply are engine-agnostic.
struct CompiledRule {
  std::vector<Instr> code;
  std::vector<uint32_t> aux;                    // packed operand lists
  std::vector<std::vector<Symbol>> shapes;      // tuple attr lists, sorted
  std::vector<std::pair<Symbol, uint16_t>> theta;  // var -> register
  uint16_t num_regs = 0;
  // Body literal treated as the semi-naive delta (ranged over the delta
  // facts via kScanDelta, or constrained by kCheckDelta when fully
  // bound), or npos for the full-evaluation variant.
  size_t delta_literal = static_cast<size_t>(-1);
};

inline constexpr size_t kNoDelta = static_cast<size_t>(-1);

// Lowers `rule` (typechecked, inside `prog`) to IL. Returns nullopt when
// the rule is outside the VM-eligible fragment -- oid invention, choose,
// or a shape the static planner declines -- in which case the evaluator
// uses the tree-walking solver for this rule.
std::optional<CompiledRule> CompileRule(const Program& prog, const Rule& rule,
                                        size_t delta_literal = kNoDelta);

// Why CompileRule declines `rule`, for a rule it declined: "oid
// invention", "choose", or "planner bail".
const char* FallbackReason(const Rule& rule);

// Deterministic textual rendering of one compiled rule, used by the
// `:il` dump and the golden IL corpus.
std::string Disassemble(const CompiledRule& cr, const SymbolTable& syms,
                        const TypePool& types,
                        const std::string& indent = "  ");

// One instruction of `cr`, without the leading "%pc:" tag -- the form the
// IL lint embeds in L-series diagnostic messages.
std::string RenderInstruction(const CompiledRule& cr, size_t pc,
                              const SymbolTable& syms, const TypePool& types);

// Renders the IL of every rule in a typechecked program, stage by stage,
// marking tree-walk fallbacks. Stable across runs for a given source.
// With `delta_variants`, each rule is followed by its semi-naive delta
// variants: one for every positive relation-membership body literal whose
// relation is a head relation of the same stage -- a superset of the
// variants semi-naive evaluation compiles (it also requires stage
// eligibility), so the golden corpus pins every lowering the evaluator
// can request.
std::string DumpProgramIl(const Program& prog, const SymbolTable& syms,
                          const TypePool& types, bool delta_variants = false);

}  // namespace iqlkit::il

#endif  // IQLKIT_IQL_IL_H_
