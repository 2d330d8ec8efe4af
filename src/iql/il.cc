#include "iql/il.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <sstream>

#include "iql/ilcheck.h"

namespace iqlkit::il {
namespace {

// Lowers one rule body. The planner mirrors the tree-walking solver's
// strategy -- checks for fully-bound literals first, then the cheapest
// generator, then an extent range over the least unbound variable -- but
// commits to the order statically. That is sound because the set of
// satisfying valuations (and hence the derivation count the governor
// meters) is join-order independent: every candidate list is
// duplicate-free and each full variable assignment is reached through
// exactly one path of any plan.
class Compiler {
 public:
  Compiler(const Program& prog, const Rule& rule, size_t delta_literal)
      : prog_(prog), rule_(rule), delta_(delta_literal) {}

  std::optional<CompiledRule> Run();

 private:
  uint16_t NewReg() {
    if (next_reg_ == 0xFFFF) {
      bailed_ = true;
      return 0;
    }
    return static_cast<uint16_t>(next_reg_++);
  }

  void Emit(Instr in) {
    in.src = cur_src_;
    if (NeverTuple(AbstractOf(in))) never_tuple_.insert(in.dst);
    out_.code.push_back(in);
  }

  void PackAux(Instr* in, const std::vector<uint32_t>& operands) {
    in->aux = static_cast<uint32_t>(out_.aux.size());
    in->naux = static_cast<uint32_t>(operands.size());
    out_.aux.insert(out_.aux.end(), operands.begin(), operands.end());
  }

  uint32_t InternShape(const std::vector<std::pair<Symbol, TermId>>& fields) {
    std::vector<Symbol> attrs;
    attrs.reserve(fields.size());
    for (const auto& [attr, child] : fields) attrs.push_back(attr);
    auto it = shape_ids_.find(attrs);
    if (it != shape_ids_.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(out_.shapes.size());
    out_.shapes.push_back(attrs);
    shape_ids_.emplace(std::move(attrs), id);
    return id;
  }

  bool Bound(Symbol v) const { return var_reg_.count(v) > 0; }

  bool AllVarsBound(TermId id) const {
    std::set<Symbol> vars;
    prog_.CollectVars(id, &vars);
    for (Symbol v : vars) {
      if (!Bound(v)) return false;
    }
    return true;
  }

  // Static mirror of the solver's TermReady: the term can be *matched*
  // once variables under a dereference or inside a set constructor are
  // bound.
  bool StaticReady(TermId id) const {
    const Term& t = prog_.term(id);
    switch (t.kind) {
      case Term::Kind::kVar:
      case Term::Kind::kConst:
      case Term::Kind::kRelName:
      case Term::Kind::kClassName:
        return true;
      case Term::Kind::kDeref:
        return Bound(t.name);
      case Term::Kind::kTuple:
        for (const auto& [attr, child] : t.fields) {
          if (!StaticReady(child)) return false;
        }
        return true;
      case Term::Kind::kSet:
        return AllVarsBound(id);
    }
    return false;
  }

  // Emits instructions computing the value of a fully-bound term,
  // returning its register. Mirrors EvalTerm; a kDeref over an undefined
  // nu FAILs at runtime, which prunes the subtree exactly as EvalTerm's
  // nullopt does.
  uint16_t CompileEval(TermId id) {
    const Term& t = prog_.term(id);
    switch (t.kind) {
      case Term::Kind::kVar: {
        auto it = var_reg_.find(t.name);
        if (it == var_reg_.end()) {
          bailed_ = true;
          return 0;
        }
        return it->second;
      }
      case Term::Kind::kConst: {
        Instr in;
        in.op = Op::kLoadConst;
        in.dst = NewReg();
        in.sym = t.name;
        Emit(in);
        return in.dst;
      }
      case Term::Kind::kRelName: {
        Instr in;
        in.op = Op::kLoadRel;
        in.dst = NewReg();
        in.sym = t.name;
        Emit(in);
        return in.dst;
      }
      case Term::Kind::kClassName: {
        Instr in;
        in.op = Op::kLoadClass;
        in.dst = NewReg();
        in.sym = t.name;
        Emit(in);
        return in.dst;
      }
      case Term::Kind::kDeref: {
        auto it = var_reg_.find(t.name);
        if (it == var_reg_.end()) {
          bailed_ = true;
          return 0;
        }
        Instr in;
        in.op = Op::kDeref;
        in.dst = NewReg();
        in.a = it->second;
        Emit(in);
        return in.dst;
      }
      case Term::Kind::kTuple: {
        std::vector<uint32_t> regs;
        regs.reserve(t.fields.size());
        for (const auto& [attr, child] : t.fields) {
          regs.push_back(CompileEval(child));
        }
        Instr in;
        in.op = Op::kMakeTuple;
        in.imm = InternShape(t.fields);
        PackAux(&in, regs);
        in.dst = NewReg();
        Emit(in);
        return in.dst;
      }
      case Term::Kind::kSet: {
        std::vector<uint32_t> regs;
        regs.reserve(t.elems.size());
        for (TermId child : t.elems) regs.push_back(CompileEval(child));
        Instr in;
        in.op = Op::kMakeSet;
        PackAux(&in, regs);
        in.dst = NewReg();
        Emit(in);
        return in.dst;
      }
    }
    bailed_ = true;
    return 0;
  }

  // Emits instructions matching pattern `id` against the value in `c`,
  // binding first-occurrence variables to the candidate / field register
  // (a type-membership check, no copy). Mirrors MatchTerm.
  void CompileMatch(TermId id, uint16_t c) {
    const Term& t = prog_.term(id);
    switch (t.kind) {
      case Term::Kind::kVar: {
        auto it = var_reg_.find(t.name);
        if (it != var_reg_.end()) {
          Instr in;
          in.op = Op::kCmp;
          in.a = c;
          in.b = it->second;
          Emit(in);
          return;
        }
        auto ty = rule_.var_types.find(t.name);
        if (ty == rule_.var_types.end()) {
          bailed_ = true;
          return;
        }
        Instr in;
        in.op = Op::kBindType;
        in.a = c;
        in.imm = ty->second;
        Emit(in);
        var_reg_.emplace(t.name, c);
        return;
      }
      case Term::Kind::kTuple: {
        if (never_tuple_.count(c) != 0) {
          // A constant or set can never match a tuple pattern, and the
          // verifier rejects field projections of it: the tree-walker
          // evaluates the rule (to no valuations) instead.
          bailed_ = true;
          return;
        }
        Instr shape;
        shape.op = Op::kMatchTuple;
        shape.a = c;
        shape.imm = InternShape(t.fields);
        Emit(shape);
        for (size_t i = 0; i < t.fields.size(); ++i) {
          Instr get;
          get.op = Op::kGetField;
          get.dst = NewReg();
          get.a = c;
          get.imm = static_cast<uint32_t>(i);
          Emit(get);
          CompileMatch(t.fields[i].second, get.dst);
        }
        return;
      }
      default: {
        // Const / rel-name / class-name / deref / set: evaluate and
        // compare, as MatchTerm does.
        uint16_t r = CompileEval(id);
        Instr in;
        in.op = Op::kCmp;
        in.a = c;
        in.b = r;
        Emit(in);
        return;
      }
    }
  }

  // Emits the check for a literal whose variables are all bound,
  // mirroring the solver's Check (rhs evaluated first; the delta literal
  // becomes a sorted-vector membership test).
  void CompileCheck(size_t i) {
    cur_src_ = static_cast<uint32_t>(i);
    const Literal& lit = rule_.body[i];
    uint16_t rv = CompileEval(lit.rhs);
    if (bailed_) return;
    if (i == delta_) {
      Instr in;
      in.op = Op::kCheckDelta;
      in.b = rv;
      Emit(in);
      return;
    }
    if (lit.kind == Literal::Kind::kEquality) {
      Instr in;
      in.op = Op::kCheckEq;
      in.a = CompileEval(lit.lhs);
      in.b = rv;
      in.pol = lit.positive;
      Emit(in);
      return;
    }
    const Term& lhs = prog_.term(lit.lhs);
    if (lhs.kind == Term::Kind::kRelName) {
      Instr in;
      in.op = Op::kCheckRel;
      in.b = rv;
      in.sym = lhs.name;
      in.pol = lit.positive;
      Emit(in);
      return;
    }
    if (lhs.kind == Term::Kind::kClassName) {
      Instr in;
      in.op = Op::kCheckClass;
      in.b = rv;
      in.sym = lhs.name;
      in.pol = lit.positive;
      Emit(in);
      return;
    }
    Instr in;
    in.op = Op::kCheckIn;
    in.a = CompileEval(lit.lhs);
    in.b = rv;
    in.pol = lit.positive;
    Emit(in);
  }

  // Which way a positive equality can generate: true = evaluate lhs and
  // match rhs, false = the reverse, nullopt = neither side is ready.
  std::optional<bool> EqualityDirection(const Literal& lit) const {
    if (AllVarsBound(lit.lhs) && StaticReady(lit.rhs)) return true;
    if (AllVarsBound(lit.rhs) && StaticReady(lit.lhs)) return false;
    return std::nullopt;
  }

  // Generator preference, lower is better; negative = ineligible. The
  // delta literal always wins (semi-naive locality), then equalities
  // (single candidate), then container scans preferring more statically
  // bound key fields and shared extents over set values.
  double Score(size_t i) const {
    const Literal& lit = rule_.body[i];
    if (!lit.positive) return -1;
    if (lit.kind == Literal::Kind::kChoose) return -1;
    if (lit.kind == Literal::Kind::kEquality) {
      return EqualityDirection(lit).has_value() ? 0.5 : -1;
    }
    if (!StaticReady(lit.rhs)) return -1;
    const Term& lhs = prog_.term(lit.lhs);
    switch (lhs.kind) {
      case Term::Kind::kVar:
      case Term::Kind::kDeref:
        if (!AllVarsBound(lit.lhs)) return -1;
        return 8.0;
      case Term::Kind::kRelName:
      case Term::Kind::kClassName:
        break;
      default:
        return -1;  // constructed containers never generate (mirror)
    }
    if (i == delta_) return 0.0;
    int keys = 0;
    const Term& rhs = prog_.term(lit.rhs);
    if (rhs.kind == Term::Kind::kTuple) {
      for (const auto& [attr, child] : rhs.fields) {
        if (AllVarsBound(child)) ++keys;
      }
    }
    return 4.0 - std::min(keys, 3);
  }

  void CompileGenerator(size_t i) {
    cur_src_ = static_cast<uint32_t>(i);
    const Literal& lit = rule_.body[i];
    if (lit.kind == Literal::Kind::kEquality) {
      auto dir = EqualityDirection(lit);
      if (!dir.has_value()) {
        bailed_ = true;
        return;
      }
      TermId src = *dir ? lit.lhs : lit.rhs;
      TermId dst = *dir ? lit.rhs : lit.lhs;
      CompileMatch(dst, CompileEval(src));
      return;
    }
    const Term& lhs = prog_.term(lit.lhs);
    Instr scan;
    if (i == delta_) {
      scan.op = Op::kScanDelta;
      scan.sym = lhs.name;  // decoration for the disassembly
    } else {
      switch (lhs.kind) {
        case Term::Kind::kRelName:
          scan.op = Op::kScanRel;
          scan.sym = lhs.name;
          break;
        case Term::Kind::kClassName:
          scan.op = Op::kScanClass;
          scan.sym = lhs.name;
          break;
        case Term::Kind::kVar:
        case Term::Kind::kDeref:
          scan.op = Op::kScanSet;
          scan.a = CompileEval(lit.lhs);
          break;
        default:
          bailed_ = true;
          return;
      }
      // Probe spec: tuple-pattern fields whose variables are already
      // bound become index key fields, evaluated just before the scan
      // (so per enclosing valuation, like the solver's PrepareMembership).
      const Term& rhs = prog_.term(lit.rhs);
      if (rhs.kind == Term::Kind::kTuple) {
        std::vector<uint32_t> spec;
        for (const auto& [attr, child] : rhs.fields) {
          if (!AllVarsBound(child)) continue;
          uint16_t key = CompileEval(child);
          spec.push_back(attr);
          spec.push_back(key);
        }
        if (!spec.empty()) PackAux(&scan, spec);
      }
    }
    scan.dst = NewReg();
    Emit(scan);
    CompileMatch(lit.rhs, scan.dst);
  }

  const Program& prog_;
  const Rule& rule_;
  const size_t delta_;

  CompiledRule out_;
  std::map<std::vector<Symbol>, uint32_t> shape_ids_;
  std::map<Symbol, uint16_t> var_reg_;  // bound variables -> register
  std::set<uint16_t> never_tuple_;      // registers holding constants/sets
  uint32_t next_reg_ = 0;
  uint32_t cur_src_ = kNoSrc;  // literal being lowered, for Instr::src
  bool bailed_ = false;
};

std::optional<CompiledRule> Compiler::Run() {
  const size_t n = rule_.body.size();
  std::vector<bool> done(n, false);
  size_t remaining = n;
  std::set<Symbol> theta_vars;
  for (const Literal& lit : rule_.body) prog_.CollectVars(lit, &theta_vars);

  while (remaining > 0 && !bailed_) {
    // 1. Fully-bound literals become straight-line checks, in body order.
    bool progressed = false;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      std::set<Symbol> vars;
      prog_.CollectVars(rule_.body[i], &vars);
      bool all_bound = true;
      for (Symbol v : vars) {
        if (!Bound(v)) {
          all_bound = false;
          break;
        }
      }
      if (!all_bound) continue;
      CompileCheck(i);
      done[i] = true;
      --remaining;
      progressed = true;
      if (bailed_) break;
    }
    if (progressed || bailed_) continue;

    // 2. Best eligible generator.
    int best = -1;
    double best_score = 0;
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      double s = Score(i);
      if (s < 0) continue;
      if (best < 0 || s < best_score) {
        best = static_cast<int>(i);
        best_score = s;
      }
    }
    if (best >= 0) {
      CompileGenerator(static_cast<size_t>(best));
      done[static_cast<size_t>(best)] = true;
      --remaining;
      continue;
    }

    // 3. No literal is checkable or generatable: range the least unbound
    // variable over its type extent (mirrors the solver's step 3).
    Symbol unbound = kInvalidSymbol;
    for (Symbol v : theta_vars) {
      if (!Bound(v)) {
        unbound = v;
        break;
      }
    }
    if (unbound == kInvalidSymbol) {
      bailed_ = true;  // remaining literals yet nothing to do: give up
      break;
    }
    auto ty = rule_.var_types.find(unbound);
    if (ty == rule_.var_types.end()) {
      bailed_ = true;
      break;
    }
    Instr scan;
    scan.op = Op::kScanExtent;
    scan.dst = NewReg();
    scan.imm = ty->second;
    cur_src_ = kNoSrc;  // synthesized, not lowered from a literal
    Emit(scan);
    var_reg_.emplace(unbound, scan.dst);
  }

  if (bailed_) return std::nullopt;
  for (Symbol v : theta_vars) {
    if (!Bound(v)) return std::nullopt;
  }
  Instr emit;
  emit.op = Op::kEmit;
  cur_src_ = kNoSrc;
  Emit(emit);
  out_.theta.assign(var_reg_.begin(), var_reg_.end());  // map: sorted
  out_.num_regs = static_cast<uint16_t>(next_reg_);
  out_.delta_literal = delta_;
  return std::move(out_);
}

std::string RenderInstr(const CompiledRule& cr, size_t pc,
                        const SymbolTable& syms, const TypePool& types) {
  const Instr& in = cr.code[pc];
  std::ostringstream out;
  auto reg = [](uint16_t r) { return "r" + std::to_string(r); };
  auto name = [&](Symbol s) { return std::string(syms.name(s)); };
  auto probe = [&]() {
    if (in.naux == 0) return std::string();
    std::ostringstream p;
    p << " probe [";
    for (uint32_t k = 0; k + 1 < in.naux; k += 2) {
      if (k > 0) p << ", ";
      p << name(static_cast<Symbol>(cr.aux[in.aux + k])) << ": "
        << reg(static_cast<uint16_t>(cr.aux[in.aux + k + 1]));
    }
    p << "]";
    return p.str();
  };
  switch (in.op) {
    case Op::kLoadConst:
      out << reg(in.dst) << " = const " << name(in.sym);
      break;
    case Op::kLoadRel:
      out << reg(in.dst) << " = rel_value " << name(in.sym);
      break;
    case Op::kLoadClass:
      out << reg(in.dst) << " = class_value " << name(in.sym);
      break;
    case Op::kDeref:
      out << reg(in.dst) << " = deref " << reg(in.a);
      break;
    case Op::kGetField:
      out << reg(in.dst) << " = field " << reg(in.a) << " #" << in.imm;
      break;
    case Op::kMakeTuple: {
      out << reg(in.dst) << " = tuple [";
      const auto& shape = cr.shapes[in.imm];
      for (uint32_t k = 0; k < in.naux; ++k) {
        if (k > 0) out << ", ";
        out << name(shape[k]) << ": "
            << reg(static_cast<uint16_t>(cr.aux[in.aux + k]));
      }
      out << "]";
      break;
    }
    case Op::kMakeSet: {
      out << reg(in.dst) << " = set {";
      for (uint32_t k = 0; k < in.naux; ++k) {
        if (k > 0) out << ", ";
        out << reg(static_cast<uint16_t>(cr.aux[in.aux + k]));
      }
      out << "}";
      break;
    }
    case Op::kMatchTuple: {
      out << "match_tuple " << reg(in.a) << " [";
      const auto& shape = cr.shapes[in.imm];
      for (size_t k = 0; k < shape.size(); ++k) {
        if (k > 0) out << ", ";
        out << name(shape[k]);
      }
      out << "]";
      break;
    }
    case Op::kBindType:
      out << "bind " << reg(in.a) << " : " << types.ToString(in.imm);
      break;
    case Op::kCmp:
      out << "cmp " << reg(in.a) << ", " << reg(in.b);
      break;
    case Op::kCheckRel:
      out << "check_rel " << reg(in.b) << (in.pol ? " in " : " not_in ")
          << name(in.sym);
      break;
    case Op::kCheckClass:
      out << "check_class " << reg(in.b) << (in.pol ? " in " : " not_in ")
          << name(in.sym);
      break;
    case Op::kCheckIn:
      out << "check_in " << reg(in.b) << (in.pol ? " in " : " not_in ")
          << reg(in.a);
      break;
    case Op::kCheckEq:
      out << "check_eq " << reg(in.a) << (in.pol ? " == " : " != ")
          << reg(in.b);
      break;
    case Op::kCheckDelta:
      out << "check_delta " << reg(in.b);
      break;
    case Op::kScanRel:
      out << reg(in.dst) << " = scan_rel " << name(in.sym) << probe();
      break;
    case Op::kScanClass:
      out << reg(in.dst) << " = scan_class " << name(in.sym) << probe();
      break;
    case Op::kScanSet:
      out << reg(in.dst) << " = scan_set " << reg(in.a) << probe();
      break;
    case Op::kScanDelta:
      out << reg(in.dst) << " = scan_delta " << name(in.sym);
      break;
    case Op::kScanExtent:
      out << reg(in.dst) << " = scan_extent " << types.ToString(in.imm);
      break;
    case Op::kEmit: {
      out << "emit {";
      bool first = true;
      for (const auto& [var, r] : cr.theta) {
        if (!first) out << ", ";
        first = false;
        out << name(var) << ": " << reg(r);
      }
      out << "}";
      break;
    }
  }
  return out.str();
}

std::string Render(const CompiledRule& cr, const SymbolTable& syms,
                   const TypePool& types, const std::string& indent) {
  std::ostringstream out;
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    out << indent << "%" << pc << ": " << RenderInstr(cr, pc, syms, types)
        << "\n";
  }
  return out.str();
}

}  // namespace

std::optional<CompiledRule> CompileRule(const Program& prog, const Rule& rule,
                                        size_t delta_literal) {
  if (!rule.invented_vars.empty() || rule.has_choose) return std::nullopt;
  Compiler c(prog, rule, delta_literal);
  std::optional<CompiledRule> out = c.Run();
#ifndef NDEBUG
  // Every lowering the compiler accepts must pass the static verifier;
  // this is the "run after every CompileRule in debug" hook.
  if (out.has_value()) {
    std::vector<IlViolation> violations = VerifyRule(*out);
    assert(violations.empty() &&
           "CompileRule produced IL rejected by VerifyRule");
  }
#endif
  return out;
}

const char* FallbackReason(const Rule& rule) {
  return !rule.invented_vars.empty() ? "oid invention"
         : rule.has_choose           ? "choose"
                                     : "planner bail";
}

std::string Disassemble(const CompiledRule& cr, const SymbolTable& syms,
                        const TypePool& types, const std::string& indent) {
  return Render(cr, syms, types, indent);
}

std::string RenderInstruction(const CompiledRule& cr, size_t pc,
                              const SymbolTable& syms, const TypePool& types) {
  return RenderInstr(cr, pc, syms, types);
}

std::string DumpProgramIl(const Program& prog, const SymbolTable& syms,
                          const TypePool& types, bool delta_variants) {
  std::ostringstream out;
  for (size_t s = 0; s < prog.stages.size(); ++s) {
    out << "stage " << s << ":\n";
    const auto& rules = prog.stages[s];
    std::set<Symbol> heads;
    if (delta_variants) {
      for (const Rule& rule : rules) {
        if (rule.head.kind != Literal::Kind::kMembership ||
            rule.head_negative) {
          continue;
        }
        const Term& lhs = prog.term(rule.head.lhs);
        if (lhs.kind == Term::Kind::kRelName) heads.insert(lhs.name);
      }
    }
    for (size_t r = 0; r < rules.size(); ++r) {
      const Rule& rule = rules[r];
      out << "  rule " << r << ": " << prog.RuleToString(rule, syms) << "\n";
      std::optional<CompiledRule> cr = CompileRule(prog, rule);
      if (!cr.has_value()) {
        out << "    fallback (tree-walk): " << FallbackReason(rule) << "\n";
        continue;
      }
      out << Render(*cr, syms, types, "    ");
      if (!delta_variants) continue;
      for (size_t d = 0; d < rule.body.size(); ++d) {
        const Literal& lit = rule.body[d];
        if (lit.kind != Literal::Kind::kMembership || !lit.positive) {
          continue;
        }
        const Term& lhs = prog.term(lit.lhs);
        if (lhs.kind != Term::Kind::kRelName || heads.count(lhs.name) == 0) {
          continue;
        }
        out << "    delta variant (literal " << d << ": "
            << prog.LiteralToString(lit, syms) << "):\n";
        std::optional<CompiledRule> dv = CompileRule(prog, rule, d);
        if (!dv.has_value()) {
          out << "      fallback (tree-walk): planner bail\n";
          continue;
        }
        out << Render(*dv, syms, types, "      ");
      }
    }
  }
  return out.str();
}

}  // namespace iqlkit::il
