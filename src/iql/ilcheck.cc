#include "iql/ilcheck.h"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <sstream>

namespace iqlkit::il {
namespace {

bool IsScan(Op op) {
  switch (op) {
    case Op::kScanRel:
    case Op::kScanClass:
    case Op::kScanSet:
    case Op::kScanDelta:
    case Op::kScanExtent:
      return true;
    default:
      return false;
  }
}

bool IsContainerScan(Op op) {
  return op == Op::kScanRel || op == Op::kScanClass || op == Op::kScanSet;
}

// aux entries actually addressable by the instruction, clamped so operand
// iteration never indexes out of range on malformed IL (the verifier
// reports the bad range separately).
size_t AuxCount(const CompiledRule& cr, const Instr& in) {
  if (in.naux == 0 || in.aux >= cr.aux.size()) return 0;
  return std::min<size_t>(in.naux, cr.aux.size() - in.aux);
}

std::string Reg(uint16_t r) { return "r" + std::to_string(r); }

// Calls `fn` once per register the instruction at `pc` reads: the a/b
// operands, kMakeTuple/kMakeSet element registers, scan probe-spec key
// registers (keys are evaluated before the scan resolves its candidate
// list, so they count as reads at the scan's pc).
void ForEachUse(const CompiledRule& cr, size_t pc,
                const std::function<void(uint16_t)>& fn) {
  const Instr& in = cr.code[pc];
  switch (in.op) {
    case Op::kLoadConst:
    case Op::kLoadRel:
    case Op::kLoadClass:
    case Op::kScanRel:
    case Op::kScanClass:
    case Op::kScanDelta:
    case Op::kScanExtent:
    case Op::kEmit:
      break;
    case Op::kDeref:
    case Op::kGetField:
    case Op::kMatchTuple:
    case Op::kBindType:
    case Op::kScanSet:
      fn(in.a);
      break;
    case Op::kCheckRel:
    case Op::kCheckClass:
    case Op::kCheckDelta:
      fn(in.b);
      break;
    case Op::kCmp:
    case Op::kCheckIn:
    case Op::kCheckEq:
      fn(in.a);
      fn(in.b);
      break;
    case Op::kMakeTuple:
    case Op::kMakeSet:
      for (size_t k = 0; k < AuxCount(cr, in); ++k) {
        fn(static_cast<uint16_t>(cr.aux[in.aux + k]));
      }
      break;
  }
  // Probe-spec key registers: (attr, key) pairs, keys at odd offsets.
  // Evaluated before the scan resolves, so they read at the scan's pc.
  if (IsContainerScan(in.op)) {
    size_t limit = AuxCount(cr, in);
    for (size_t k = 0; k + 1 < limit; k += 2) {
      fn(static_cast<uint16_t>(cr.aux[in.aux + k + 1]));
    }
  }
}

// The register the instruction defines, or -1: loads, construction,
// kDeref, kGetField, and scans define `dst`; filters, checks, and kEmit
// define nothing.
int DefOf(const Instr& in) {
  switch (in.op) {
    case Op::kLoadConst:
    case Op::kLoadRel:
    case Op::kLoadClass:
    case Op::kDeref:
    case Op::kGetField:
    case Op::kMakeTuple:
    case Op::kMakeSet:
    case Op::kScanRel:
    case Op::kScanClass:
    case Op::kScanSet:
    case Op::kScanDelta:
    case Op::kScanExtent:
      return in.dst;
    default:
      return -1;  // checks, filters, kEmit
  }
}

}  // namespace

AbsVal AbstractOf(const Instr& in) {
  AbsVal v;
  switch (in.op) {
    case Op::kLoadConst:
      v.kind = AbsVal::Kind::kConst;
      v.sym = in.sym;
      break;
    case Op::kLoadRel:
      v.kind = AbsVal::Kind::kRelValue;
      v.sym = in.sym;
      break;
    case Op::kLoadClass:
      v.kind = AbsVal::Kind::kClassValue;
      v.sym = in.sym;
      break;
    case Op::kMakeTuple:
      v.kind = AbsVal::Kind::kTuple;
      v.shape = in.imm;
      break;
    case Op::kMakeSet:
      v.kind = AbsVal::Kind::kSet;
      break;
    default:
      break;  // scans, kDeref, kGetField, non-defs: kAny
  }
  return v;
}

bool ProvablyDistinct(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::Kind::kAny || b.kind == AbsVal::Kind::kAny) {
    return false;
  }
  auto is_set = [](const AbsVal& v) {
    return v.kind == AbsVal::Kind::kSet || v.kind == AbsVal::Kind::kRelValue ||
           v.kind == AbsVal::Kind::kClassValue;
  };
  // Two set values may be extensionally equal even when built differently.
  if (is_set(a) && is_set(b)) return false;
  // Distinct known kinds are distinct value nodes under hash-consing.
  if (a.kind != b.kind) return true;
  switch (a.kind) {
    case AbsVal::Kind::kConst:
      return a.sym != b.sym;
    case AbsVal::Kind::kTuple:
      // Distinct interned shapes have distinct (sorted) attr lists.
      return a.shape != b.shape;
    default:
      return false;
  }
}

bool NeverSet(const AbsVal& v) {
  return v.kind == AbsVal::Kind::kConst || v.kind == AbsVal::Kind::kTuple;
}

bool NeverTuple(const AbsVal& v) {
  return v.kind == AbsVal::Kind::kConst || v.kind == AbsVal::Kind::kSet ||
         v.kind == AbsVal::Kind::kRelValue ||
         v.kind == AbsVal::Kind::kClassValue;
}

std::vector<IlViolation> VerifyRule(const CompiledRule& cr) {
  std::vector<IlViolation> out;
  auto bad = [&](size_t pc, std::string detail) {
    out.push_back({static_cast<uint32_t>(pc), std::move(detail)});
  };
  const size_t n = cr.code.size();
  if (n == 0) {
    bad(0, "empty body: missing kEmit terminator");
    return out;
  }
  for (size_t pc = 0; pc + 1 < n; ++pc) {
    if (cr.code[pc].op == Op::kEmit) {
      bad(pc, "kEmit before the end of the body");
    }
  }
  if (cr.code[n - 1].op != Op::kEmit) {
    bad(n - 1, "last instruction is not kEmit");
  }

  std::vector<bool> defined(cr.num_regs, false);
  std::vector<AbsVal> abs(cr.num_regs);
  size_t delta_ops = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    const Instr& in = cr.code[pc];

    // aux-range validity (checked before anything reads the range).
    if (in.naux > 0) {
      bool takes_aux = in.op == Op::kMakeTuple || in.op == Op::kMakeSet ||
                       IsContainerScan(in.op);
      if (!takes_aux) {
        bad(pc, "aux operands on an instruction that takes none");
      } else if (static_cast<uint64_t>(in.aux) + in.naux > cr.aux.size()) {
        std::ostringstream d;
        d << "aux range [" << in.aux << ", " << in.aux + in.naux
          << ") out of bounds (" << cr.aux.size() << " entries)";
        bad(pc, d.str());
      }
    }
    if (IsContainerScan(in.op)) {
      if (in.naux % 2 != 0) {
        bad(pc, "probe spec with an odd operand count");
      }
      // Probe attrs must be strictly ascending: the index keys bucket
      // maps by the sorted attr list.
      size_t limit = AuxCount(cr, in);
      for (size_t k = 2; k + 1 < limit; k += 2) {
        if (cr.aux[in.aux + k] <= cr.aux[in.aux + k - 2]) {
          bad(pc, "probe attrs not strictly ascending");
          break;
        }
      }
    }
    if ((in.op == Op::kScanDelta || in.op == Op::kScanExtent) &&
        in.naux != 0) {
      bad(pc, "probe spec on a delta/extent scan");
    }

    // Reads before the def: use-before-def and register ranges.
    ForEachUse(cr, pc, [&](uint16_t r) {
      if (r >= cr.num_regs) {
        bad(pc, "register " + Reg(r) + " out of range");
      } else if (!defined[r]) {
        bad(pc, "use of " + Reg(r) + " before definition");
      }
    });

    switch (in.op) {
      case Op::kMakeTuple:
      case Op::kMatchTuple:
        if (in.imm >= cr.shapes.size()) {
          std::ostringstream d;
          d << "shape index " << in.imm << " out of range ("
            << cr.shapes.size() << " shapes)";
          bad(pc, d.str());
        } else if (in.op == Op::kMakeTuple &&
                   AuxCount(cr, in) != cr.shapes[in.imm].size()) {
          bad(pc, "tuple operand count does not match its shape");
        }
        break;
      case Op::kGetField: {
        // The VM projects fields unguarded; require a dominating
        // kMatchTuple on the same register whose shape covers the index.
        bool guarded = false;
        for (size_t p = pc; p-- > 0;) {
          const Instr& g = cr.code[p];
          if (g.op == Op::kMatchTuple && g.a == in.a) {
            if (g.imm < cr.shapes.size() &&
                in.imm >= cr.shapes[g.imm].size()) {
              std::ostringstream d;
              d << "field #" << in.imm << " out of range for the guarding "
                << "match_tuple shape";
              bad(pc, d.str());
            }
            guarded = true;
            break;
          }
        }
        if (!guarded) {
          bad(pc, "kGetField without a dominating kMatchTuple on " +
                      Reg(in.a));
        }
        if (in.a < cr.num_regs && NeverTuple(abs[in.a])) {
          bad(pc, "kGetField on " + Reg(in.a) +
                      ", which is statically never a tuple");
        }
        break;
      }
      case Op::kScanDelta:
      case Op::kCheckDelta:
        ++delta_ops;
        if (cr.delta_literal == kNoDelta) {
          bad(pc, "delta op in a full-evaluation variant");
        }
        break;
      default:
        break;
    }

    // The def, after the reads (so kDeref r, r with r undefined is
    // still a use-before-def).
    if (int d = DefOf(in); d >= 0) {
      uint16_t r = static_cast<uint16_t>(d);
      if (r >= cr.num_regs) {
        bad(pc, "register " + Reg(r) + " out of range");
      } else if (defined[r]) {
        bad(pc, "register " + Reg(r) + " defined twice");
      } else {
        defined[r] = true;
        abs[r] = AbstractOf(in);
      }
    }
  }

  if (cr.delta_literal != kNoDelta && delta_ops == 0) {
    bad(n - 1, "delta variant without a delta op");
  }
  if (delta_ops > 1) {
    bad(n - 1, "multiple delta ops in one body");
  }

  Symbol prev = kInvalidSymbol;
  bool first = true;
  for (const auto& [var, r] : cr.theta) {
    if (!first && var <= prev) {
      bad(n - 1, "theta not strictly sorted by variable symbol");
    }
    first = false;
    prev = var;
    if (r >= cr.num_regs) {
      bad(n - 1, "theta register " + Reg(r) + " out of range");
    } else if (!defined[r]) {
      bad(n - 1, "theta register " + Reg(r) + " never defined");
    }
  }
  return out;
}

// ---- L-series lint --------------------------------------------------------

namespace {

// The first filter in pc order that can never succeed: its pc and why.
struct Contradiction {
  uint32_t pc = 0;
  const char* detail = "";
};

// Records in `v` what a successful check proves about it: an unknown
// value takes `known`; a value already known stays as it is.
void Refine(AbsVal* v, const AbsVal& known) {
  if (v->kind == AbsVal::Kind::kAny) *v = known;
}

// One forward pass over a verifier-clean rule (pc order is dominance, see
// ilcheck.h): each def records its abstract value, each successful check
// refines its operands, and the first check whose operands' values
// contradict it ends the body statically.
std::optional<Contradiction> FirstContradiction(const CompiledRule& cr) {
  std::vector<AbsVal> abs(cr.num_regs);
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
    auto fail = [&](const char* detail) {
      return Contradiction{static_cast<uint32_t>(pc), detail};
    };
    switch (in.op) {
      case Op::kMatchTuple:
        if (NeverTuple(abs[in.a])) {
          return fail("tuple match over a value that is never a tuple");
        }
        Refine(&abs[in.a], {AbsVal::Kind::kTuple, kInvalidSymbol, in.imm});
        break;
      case Op::kCheckIn:
        // A non-set container fails either polarity (mirror Check).
        if (NeverSet(abs[in.a])) {
          return fail("membership test in a value that is never a set");
        }
        if (in.pol) Refine(&abs[in.a], {AbsVal::Kind::kSet});
        break;
      case Op::kScanSet:
        if (NeverSet(abs[in.a])) {
          return fail("scan of a value that is never a set");
        }
        Refine(&abs[in.a], {AbsVal::Kind::kSet});  // candidates imply a set
        break;
      case Op::kCmp:
      case Op::kCheckEq: {
        bool pol = in.op == Op::kCmp || in.pol;
        AbsVal& x = abs[in.a];
        AbsVal& y = abs[in.b];
        bool provably_equal =
            in.a == in.b || (x.kind == AbsVal::Kind::kConst &&
                             y.kind == AbsVal::Kind::kConst && x.sym == y.sym);
        if (pol && ProvablyDistinct(x, y)) {
          return fail("equality of provably distinct values");
        }
        if (!pol && provably_equal) {
          return fail("a value compared unequal to itself");
        }
        if (pol) {
          Refine(&x, y);
          Refine(&y, x);
        }
        break;
      }
      default:
        break;
    }
    if (int d = DefOf(in); d >= 0) abs[d] = AbstractOf(in);
  }
  return std::nullopt;
}

}  // namespace

void LintCompiledRule(const CompiledRule& cr, const Rule& rule,
                      const SymbolTable& syms, const TypePool& types,
                      DiagnosticSink* sink) {
  auto span_for = [&](uint32_t src) {
    if (src != kNoSrc && src < rule.body.size()) return rule.body[src].span;
    return rule.span;
  };

  // L004: malformed IL. CompileRule's output is meant to verify clean
  // (debug builds assert it); the later checks assume verifier-clean
  // input, so stop here.
  std::vector<IlViolation> violations = VerifyRule(cr);
  if (!violations.empty()) {
    for (const IlViolation& v : violations) {
      uint32_t src =
          v.pc < cr.code.size() ? cr.code[v.pc].src : kNoSrc;
      std::ostringstream msg;
      msg << "malformed IL at %" << v.pc << ": " << v.detail;
      sink->Error("L004", span_for(src), msg.str());
    }
    return;
  }

  // L002: a join scan (any container scan after the first loop) with no
  // probe key rescans its whole container once per outer candidate.
  bool seen_scan = false;
  for (const Instr& in : cr.code) {
    if (!IsScan(in.op)) continue;
    if (seen_scan && IsContainerScan(in.op) && in.naux == 0) {
      std::string what = in.op == Op::kScanSet
                             ? std::string("a set value")
                             : "'" + std::string(syms.name(in.sym)) + "'";
      sink->Hint("L002", span_for(in.src),
                 "join scan of " + what +
                     " has no bindable key: the whole container is "
                     "rescanned per outer candidate");
    }
    seen_scan = true;
  }

  // L003: a filter that can never succeed.
  if (std::optional<Contradiction> c = FirstContradiction(cr)) {
    std::ostringstream msg;
    msg << "rule body is statically empty: " << c->detail << " (%" << c->pc
        << ": " << RenderInstruction(cr, c->pc, syms, types)
        << "); the rule can never fire";
    sink->Warning("L003", span_for(cr.code[c->pc].src), msg.str());
  }
}

void LintProgramIl(const Program& prog, const SymbolTable& syms,
                   const TypePool& types, DiagnosticSink* sink) {
  for (const auto& stage : prog.stages) {
    for (const Rule& rule : stage) {
      std::optional<CompiledRule> cr = CompileRule(prog, rule);
      if (!cr.has_value()) continue;  // tree-walk fallback: no IL to lint
      LintCompiledRule(*cr, rule, syms, types, sink);
    }
  }
}

}  // namespace iqlkit::il
