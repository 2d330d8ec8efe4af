#include "iql/ilcheck.h"

#include <algorithm>
#include <cstddef>
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

// aux entries actually addressable by the instruction, clamped so the
// analyses never index out of range on malformed IL (the verifier reports
// the bad range separately).
size_t AuxCount(const CompiledRule& cr, const Instr& in) {
  if (in.naux == 0 || in.aux >= cr.aux.size()) return 0;
  return std::min<size_t>(in.naux, cr.aux.size() - in.aux);
}

std::string Reg(uint16_t r) { return "r" + std::to_string(r); }

}  // namespace

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

DefUse BuildDefUse(const CompiledRule& cr) {
  DefUse du;
  du.def.assign(cr.num_regs, -1);
  du.uses.assign(cr.num_regs, {});
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    ForEachUse(cr, pc, [&](uint16_t r) {
      if (r < cr.num_regs) du.uses[r].push_back(static_cast<uint32_t>(pc));
    });
    int d = DefOf(cr.code[pc]);
    if (d >= 0 && d < cr.num_regs && du.def[d] < 0) {
      du.def[d] = static_cast<int>(pc);
    }
  }
  return du;
}

std::vector<LiveRange> ComputeLiveRanges(const CompiledRule& cr) {
  DefUse du = BuildDefUse(cr);
  std::vector<LiveRange> live(cr.num_regs);
  std::vector<uint32_t> scan_pcs;
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    if (IsScan(cr.code[pc].op)) scan_pcs.push_back(static_cast<uint32_t>(pc));
  }
  const int emit_pc = static_cast<int>(cr.code.size()) - 1;
  for (uint16_t r = 0; r < cr.num_regs; ++r) {
    live[r].def = du.def[r];
    if (!du.uses[r].empty()) {
      live[r].last_use = static_cast<int>(du.uses[r].back());
    }
  }
  // Theta registers are read by kEmit.
  for (const auto& [var, r] : cr.theta) {
    if (r < cr.num_regs) live[r].last_use = emit_pc;
  }
  for (uint16_t r = 0; r < cr.num_regs; ++r) {
    for (uint32_t s : scan_pcs) {
      if (live[r].def >= 0 && static_cast<int>(s) > live[r].def &&
          static_cast<int>(s) < live[r].last_use) {
        live[r].crosses_scan = true;
        break;
      }
    }
  }
  return live;
}

std::vector<AbsVal> PropagateAbstract(const CompiledRule& cr) {
  std::vector<AbsVal> abs(cr.num_regs);
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
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
        break;  // scans, kDeref, kGetField: kAny
    }
    int d = DefOf(in);
    if (d >= 0 && d < cr.num_regs) abs[d] = v;
  }
  return abs;
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
        break;
    }
    if (int d = DefOf(in); d >= 0) {
      uint16_t r = static_cast<uint16_t>(d);
      if (r >= cr.num_regs) {
        bad(pc, "register " + Reg(r) + " out of range");
      } else if (defined[r]) {
        bad(pc, "register " + Reg(r) + " defined twice");
      } else {
        defined[r] = true;
        abs[r] = v;
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

}  // namespace iqlkit::il
