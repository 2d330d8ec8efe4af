#include "analysis/analyzer.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "iql/restrict.h"
#include "iql/typecheck.h"
#include "model/stats.h"
#include "model/type.h"
#include "model/type_algebra.h"

namespace iqlkit {

namespace {

// Is the (intersection-free, normalized) type uninhabited? Set types are
// always inhabited (by the empty set), classes only emptily so at runtime,
// never statically.
bool StaticallyEmpty(TypePool* pool, TypeId t) {
  const TypeNode& n = pool->node(t);
  switch (n.kind) {
    case TypeKind::kEmpty:
      return true;
    case TypeKind::kBase:
    case TypeKind::kClass:
    case TypeKind::kSet:
      return false;
    case TypeKind::kTuple:
      for (const auto& [attr, ft] : n.fields) {
        if (StaticallyEmpty(pool, ft)) return true;
      }
      return false;
    case TypeKind::kUnion:
    case TypeKind::kIntersect:
      for (TypeId m : n.children) {
        if (!StaticallyEmpty(pool, m)) return false;
      }
      return true;
  }
  return false;
}

// The span of the first body literal mentioning `v`, else the rule's.
SourceSpan VarSpan(const Program& program, const Rule& rule, Symbol v) {
  for (const Literal& lit : rule.body) {
    std::set<Symbol> vars;
    program.CollectVars(lit, &vars);
    if (vars.count(v)) return lit.span;
  }
  return rule.span;
}

std::string RuleLabel(const Rule& rule) {
  return "rule " + std::to_string(rule.index + 1) + " of stage " +
         std::to_string(rule.stage + 1);
}

// ---- passes ---------------------------------------------------------------

// W001: a body variable constrained only by negative literals and
// inequalities ranges over the whole (infinite) domain.
void CheckUnsafeVars(Universe* universe, const Program& program,
                     DiagnosticSink* sink) {
  for (const Rule* rule : program.AllRules()) {
    std::set<Symbol> body_vars, positive_vars;
    for (const Literal& lit : rule->body) {
      if (lit.kind == Literal::Kind::kChoose) continue;
      program.CollectVars(lit, &body_vars);
      if (lit.positive) program.CollectVars(lit, &positive_vars);
    }
    for (Symbol v : body_vars) {
      if (positive_vars.count(v)) continue;
      sink->Warning(
          "W001", VarSpan(program, *rule, v),
          "variable '" + std::string(universe->Name(v)) + "' in " +
              RuleLabel(*rule) +
              " occurs only in negative literals or inequalities, so "
              "nothing generates its bindings");
    }
  }
}

// W002: oid invention inside a recursive SCC of the stage dependency
// graph -- the pattern Theorem 5.4 forbids because the inflationary
// fixpoint can mint fresh oids forever.
void CheckInventionInRecursion(Universe* universe,
                               const std::vector<StageGraph>& graphs,
                               DiagnosticSink* sink) {
  for (const StageGraph& g : graphs) {
    for (const StageGraph::RuleArcs& info : g.rules) {
      if (info.rule->invented_vars.empty()) continue;
      // The invention feeds back into itself iff some body source and some
      // target share a cyclic SCC.
      int cycle_comp = -1;
      for (Symbol s : info.sources) {
        auto sc = g.component.find(s);
        if (sc == g.component.end() || !g.cyclic[sc->second]) continue;
        for (Symbol t : info.targets) {
          auto tc = g.component.find(t);
          if (tc != g.component.end() && tc->second == sc->second) {
            cycle_comp = sc->second;
            break;
          }
        }
        if (cycle_comp >= 0) break;
      }
      if (cycle_comp < 0) continue;
      std::string invented;
      for (Symbol v : info.rule->invented_vars) {
        if (!invented.empty()) invented += ", ";
        invented += "'";
        invented += universe->Name(v);
        invented += "'";
      }
      Diagnostic& d = sink->Warning(
          "W002", info.rule->span,
          RuleLabel(*info.rule) + " invents oids (" + invented +
              ") inside a recursive cycle; each round of the inflationary "
              "fixpoint can mint fresh oids, so evaluation may not "
              "terminate (§5)");
      std::vector<Symbol> members = g.members[cycle_comp];
      std::sort(members.begin(), members.end(), [&](Symbol a, Symbol b) {
        return universe->Name(a) < universe->Name(b);
      });
      for (Symbol m : members) {
        const Rule* definer = nullptr;
        for (const StageGraph::RuleArcs& other : g.rules) {
          if (other.targets.count(m)) {
            definer = other.rule;
            break;
          }
        }
        DiagnosticNote note;
        note.span = definer != nullptr ? definer->span : SourceSpan{};
        note.message = "'";
        note.message += universe->Name(m);
        note.message += "' is part of the recursive cycle";
        if (definer != nullptr) note.message += ", derived here";
        d.notes.push_back(std::move(note));
      }
      // Static analysis can only warn; the runtime limits are what turn
      // this divergence into a clean, rolled-back error.
      DiagnosticNote guard;
      guard.message =
          "if this divergence is real, the evaluation governor catches it: "
          "ResourceLimits::max_invented_oids / max_steps_per_stage bound "
          "the run (iqlsh: --max-steps, --timeout, --max-memory), and a "
          "trip rolls the instance back to the last completed step";
      d.notes.push_back(std::move(guard));
    }
  }
}

// W003: the program leaves IQLpr (Definition 5.3), losing the Theorem 5.4
// PTIME guarantee. Reported per offending rule / stage, with the IQLrr
// verdict as a note.
void CheckRestrictions(Universe* universe, const Program& program,
                       const std::vector<StageGraph>& graphs,
                       DiagnosticSink* sink) {
  for (size_t s = 0; s < program.stages.size(); ++s) {
    const auto& stage = program.stages[s];
    for (const Rule& rule : stage) {
      if (IsPtimeRestrictedRule(universe, program, rule)) continue;
      Diagnostic& d = sink->Warning(
          "W003", rule.span,
          RuleLabel(rule) +
              " is not ptime-restricted (Definition 5.1), so the program "
              "leaves IQLpr and the PTIME guarantee of Theorem 5.4");
      if (!IsRangeRestrictedRule(universe, program, rule)) {
        d.notes.push_back(
            {SourceSpan{},
             "the rule is not range-restricted either (Definition 5.2), "
             "so the program also leaves IQLrr"});
      }
    }
    if (IsInventionFreeStage(stage) || !graphs[s].HasCycle()) continue;
    // Uncontrolled stage: report at the first inventing rule.
    for (const StageGraph::RuleArcs& info : graphs[s].rules) {
      if (info.rule->invented_vars.empty()) continue;
      sink->Warning(
          "W003", info.rule->span,
          "stage " + std::to_string(s + 1) +
              " is neither recursion-free nor invention-free, so the "
              "program leaves IQLpr (Definition 5.3)");
      break;
    }
  }
}

// W004: a `var x: t;` declaration no rule uses.
void CheckUnusedDeclarations(Universe* universe, const Program& program,
                             DiagnosticSink* sink) {
  std::set<Symbol> used;
  for (const Rule* rule : program.AllRules()) {
    program.CollectVars(rule->head, &used);
    for (const Literal& lit : rule->body) program.CollectVars(lit, &used);
  }
  for (const auto& [v, t] : program.declared_var_types) {
    if (used.count(v)) continue;
    SourceSpan span;
    auto it = program.declared_var_spans.find(v);
    if (it != program.declared_var_spans.end()) span = it->second;
    Diagnostic& d = sink->Warning(
        "W004", span,
        "declared variable '" + std::string(universe->Name(v)) +
            "' is never used");
    if (span.valid()) d.fixit = FixIt{span, ""};
  }
}

// W005: a rule whose derivations cannot reach any declared output.
void CheckDeadRules(Universe* universe, const std::vector<StageGraph>& graphs,
                    const std::vector<std::string>& output_names,
                    DiagnosticSink* sink) {
  if (output_names.empty()) return;
  std::set<Symbol> needed;
  for (const std::string& name : output_names) {
    needed.insert(universe->Intern(name));
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const StageGraph& g : graphs) {
      for (const StageGraph::RuleArcs& info : g.rules) {
        bool feeds = false;
        for (Symbol t : info.targets) {
          if (needed.count(t)) {
            feeds = true;
            break;
          }
        }
        if (!feeds) continue;
        for (Symbol src : info.sources) {
          if (needed.insert(src).second) changed = true;
        }
      }
    }
  }
  for (const StageGraph& g : graphs) {
    for (const StageGraph::RuleArcs& info : g.rules) {
      bool live = false;
      for (Symbol t : info.targets) {
        if (needed.count(t)) {
          live = true;
          break;
        }
      }
      if (live) continue;
      std::string targets;
      for (Symbol t : info.targets) {
        if (!targets.empty()) targets += ", ";
        targets += "'";
        targets += universe->Name(t);
        targets += "'";
      }
      sink->Warning("W005", info.rule->span,
                    RuleLabel(*info.rule) + " is dead: it derives " +
                        targets +
                        ", which cannot reach any declared output");
    }
  }
}

// W006 (program half): declared variables of a statically empty type.
void CheckEmptyVarTypes(Universe* universe, const Program& program,
                        DiagnosticSink* sink) {
  TypePool& types = universe->types();
  for (const auto& [v, t] : program.declared_var_types) {
    if (t == types.Empty()) continue;  // literal `empty` is intentional
    if (!StaticallyEmpty(&types, NormalizeDisjoint(&types, t))) continue;
    SourceSpan span;
    auto it = program.declared_var_spans.find(v);
    if (it != program.declared_var_spans.end()) span = it->second;
    sink->Warning("W006", span,
                  "variable '" + std::string(universe->Name(v)) +
                      "' has type " + types.ToString(t) +
                      ", which is empty under every disjoint oid "
                      "assignment, so it can never be bound");
  }
}

// W007: negating a predicate that the same stage derives. Inflationary
// evaluation freezes each literal's truth per round, so the negation is
// order-sensitive: it may hold early in the fixpoint and fail later.
void CheckSameStageNegation(Universe* universe, const Program& program,
                            const std::vector<StageGraph>& graphs,
                            DiagnosticSink* sink) {
  for (const StageGraph& g : graphs) {
    std::set<Symbol> derived;
    for (const StageGraph::RuleArcs& info : g.rules) {
      derived.insert(info.targets.begin(), info.targets.end());
    }
    for (const StageGraph::RuleArcs& info : g.rules) {
      for (const Literal& lit : info.rule->body) {
        if (lit.kind != Literal::Kind::kMembership || lit.positive) continue;
        const Term& lhs = program.term(lit.lhs);
        if (lhs.kind != Term::Kind::kRelName &&
            lhs.kind != Term::Kind::kClassName) {
          continue;
        }
        if (!derived.count(lhs.name)) continue;
        const Rule* definer = nullptr;
        for (const StageGraph::RuleArcs& other : g.rules) {
          if (other.targets.count(lhs.name)) {
            definer = other.rule;
            break;
          }
        }
        std::string message = "negation of '";
        message += universe->Name(lhs.name);
        message +=
            "', which the same stage derives; under inflationary "
            "evaluation the result depends on derivation order "
            "(separate the stages with ';')";
        Diagnostic& d = sink->Warning("W007", lit.span, std::move(message));
        if (definer != nullptr) {
          std::string note = "'";
          note += universe->Name(lhs.name);
          note += "' is derived in the same stage here";
          d.notes.push_back({definer->span, std::move(note)});
        }
      }
    }
  }
}

// O001: a rule whose body literals are not connected: once every generator
// reachable through shared variables (and equalities) is joined, one is left
// sharing no variable with them -- a cross product under any join order.
void CheckCrossProducts(Universe* universe, const Program& program,
                        const AnalyzerOptions& options,
                        DiagnosticSink* sink) {
  std::optional<CardinalityEstimator> estimator;
  if (options.input != nullptr) estimator.emplace(options.input);
  for (const Rule* rule : program.AllRules()) {
    struct Generator {
      const Literal* lit;
      std::set<Symbol> vars;
    };
    std::vector<Generator> remaining;
    std::vector<const Literal*> equalities;
    for (const Literal& lit : rule->body) {
      if (lit.kind == Literal::Kind::kChoose || !lit.positive) continue;
      if (lit.kind == Literal::Kind::kEquality) {
        equalities.push_back(&lit);
        continue;
      }
      Generator g;
      g.lit = &lit;
      program.CollectVars(lit, &g.vars);
      remaining.push_back(std::move(g));
    }
    std::set<Symbol> bound;
    auto propagate = [&]() {
      bool changed = true;
      while (changed) {
        changed = false;
        for (const Literal* eq : equalities) {
          std::set<Symbol> lv, rv;
          program.CollectVars(eq->lhs, &lv);
          program.CollectVars(eq->rhs, &rv);
          auto covered = [&](const std::set<Symbol>& vs) {
            return std::all_of(vs.begin(), vs.end(), [&](Symbol v) {
              return bound.count(v) > 0;
            });
          };
          auto absorb = [&](const std::set<Symbol>& vs) {
            for (Symbol v : vs) {
              if (bound.insert(v).second) changed = true;
            }
          };
          if (covered(lv)) absorb(rv);
          if (covered(rv)) absorb(lv);
        }
      }
    };
    while (!remaining.empty()) {
      size_t pick = remaining.size();
      for (size_t i = 0; i < remaining.size(); ++i) {
        const auto& vars = remaining[i].vars;
        bool connected =
            bound.empty() || vars.empty() ||
            std::any_of(vars.begin(), vars.end(), [&](Symbol v) {
              return bound.count(v) > 0;
            });
        if (connected) {
          pick = i;
          break;
        }
      }
      if (pick == remaining.size()) {
        // Every remaining generator is disjoint from the bound variables.
        pick = 0;
        const Literal* lit = remaining[0].lit;
        Diagnostic& d = sink->Hint(
            "O001", lit->span,
            "this literal shares no variable with the literals already "
            "joined in " + RuleLabel(*rule) +
                "; evaluation enumerates a full cross product");
        if (estimator.has_value()) {
          const Term& lhs = program.term(lit->lhs);
          size_t size = 0;
          bool known = false;
          if (lhs.kind == Term::Kind::kRelName) {
            size = estimator->RelationSize(lhs.name);
            known = true;
          } else if (lhs.kind == Term::Kind::kClassName) {
            size = estimator->ClassSize(lhs.name);
            known = true;
          }
          if (known) {
            d.notes.push_back(
                {SourceSpan{},
                 "'" + std::string(universe->Name(lhs.name)) + "' has " +
                     std::to_string(size) +
                     " facts on the provided instance"});
          }
        }
      }
      bound.insert(remaining[pick].vars.begin(), remaining[pick].vars.end());
      remaining.erase(remaining.begin() + static_cast<long>(pick));
      propagate();
    }
  }
}

}  // namespace

std::set<std::string> ParseLintPragmas(std::string_view source) {
  std::set<std::string> codes;
  static constexpr std::string_view kMarker = "iqlint:";
  static constexpr std::string_view kAllow = "allow(";
  size_t pos = 0;
  while ((pos = source.find(kMarker, pos)) != std::string_view::npos) {
    pos += kMarker.size();
    while (pos < source.size() &&
           std::isspace(static_cast<unsigned char>(source[pos]))) {
      ++pos;
    }
    if (source.compare(pos, kAllow.size(), kAllow) != 0) continue;
    pos += kAllow.size();
    std::string current;
    while (pos < source.size() && source[pos] != ')' &&
           source[pos] != '\n') {
      char c = source[pos++];
      if (std::isalnum(static_cast<unsigned char>(c))) {
        current.push_back(c);
      } else {
        if (!current.empty()) codes.insert(current);
        current.clear();
      }
    }
    if (!current.empty()) codes.insert(current);
  }
  return codes;
}

void AnalyzeProgram(Universe* universe, const Program& program,
                    const std::vector<std::string>& output_names,
                    const AnalyzerOptions& options, DiagnosticSink* sink) {
  IQL_CHECK(program.type_checked)
      << "AnalyzeProgram requires a type-checked program";
  std::vector<StageGraph> graphs;
  graphs.reserve(program.stages.size());
  for (const auto& stage : program.stages) {
    graphs.push_back(BuildStageGraph(universe, program, stage));
  }
  CheckUnsafeVars(universe, program, sink);
  CheckInventionInRecursion(universe, graphs, sink);
  CheckRestrictions(universe, program, graphs, sink);
  CheckUnusedDeclarations(universe, program, sink);
  CheckDeadRules(universe, graphs, output_names, sink);
  CheckEmptyVarTypes(universe, program, sink);
  CheckSameStageNegation(universe, program, graphs, sink);
  if (options.hints) CheckCrossProducts(universe, program, options, sink);
}

void AnalyzeUnit(Universe* universe, const ParsedUnit& unit,
                 const AnalyzerOptions& options, DiagnosticSink* sink) {
  // W006 (schema half): declarations denoting statically empty types.
  TypePool& types = universe->types();
  auto check_decl = [&](Symbol name, TypeId t, std::string_view what) {
    if (t == kInvalidType || t == types.Empty()) return;
    if (!StaticallyEmpty(&types, NormalizeDisjoint(&types, t))) return;
    SourceSpan span;
    auto it = unit.decl_spans.find(name);
    if (it != unit.decl_spans.end()) span = it->second;
    sink->Warning("W006", span,
                  std::string(what) + " '" +
                      std::string(universe->Name(name)) + "' has type " +
                      types.ToString(t) +
                      ", which is empty under every disjoint oid "
                      "assignment (Proposition 2.2.1)");
  };
  for (Symbol r : unit.schema.relation_names()) {
    check_decl(r, unit.schema.RelationType(r), "relation");
  }
  for (Symbol p : unit.schema.class_names()) {
    check_decl(p, unit.schema.ClassType(p), "class");
  }
  if (unit.program.type_checked) {
    AnalyzeProgram(universe, unit.program, unit.output_names, options, sink);
  }
}

void LintSource(Universe* universe, std::string_view source,
                const AnalyzerOptions& options, DiagnosticSink* sink) {
  DiagnosticSink local;
  Result<ParsedUnit> unit = ParseUnit(universe, source, &local);
  if (!unit.ok()) {
    // Lex/syntax failures already landed as E001/E002; anything else
    // (duplicate declarations, schema validation) surfaces here.
    if (local.empty()) {
      local.Error("E003", SourceSpan{}, unit.status().message());
    }
  } else {
    Status checked =
        TypeCheck(universe, unit.value().schema, &unit.value().program,
                  &local);
    (void)checked;  // reported through E004
    AnalyzeUnit(universe, unit.value(), options, &local);
  }
  std::set<std::string> allowed = ParseLintPragmas(source);
  std::vector<Diagnostic> diagnostics = local.diagnostics();
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.line != b.span.line) {
                       return a.span.line < b.span.line;
                     }
                     return a.span.column < b.span.column;
                   });
  for (Diagnostic& d : diagnostics) {
    if (allowed.count(d.code)) continue;
    sink->Report(std::move(d));
  }
}

}  // namespace iqlkit
