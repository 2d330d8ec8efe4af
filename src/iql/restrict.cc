#include "iql/restrict.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "base/logging.h"

namespace iqlkit {

namespace {

// Shared closure for Definitions 5.1 and 5.2; `base_case` decides which
// variables start out restricted.
template <typename BaseCaseFn>
bool AllBodyVarsRestricted(const Program& program, const Rule& rule,
                           const BaseCaseFn& base_case) {
  std::set<Symbol> body_vars;
  for (const Literal& lit : rule.body) program.CollectVars(lit, &body_vars);
  std::set<Symbol> restricted;
  for (Symbol v : body_vars) {
    if (base_case(rule.var_types.at(v))) restricted.insert(v);
  }
  auto all_restricted = [&](TermId t) {
    std::set<Symbol> vars;
    program.CollectVars(t, &vars);
    for (Symbol v : vars) {
      if (!restricted.count(v)) return false;
    }
    return true;
  };
  auto mark = [&](TermId t, bool* changed) {
    std::set<Symbol> vars;
    program.CollectVars(t, &vars);
    for (Symbol v : vars) {
      if (restricted.insert(v).second) *changed = true;
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (!lit.positive || lit.kind == Literal::Kind::kChoose) continue;
      if (lit.kind == Literal::Kind::kMembership) {
        if (all_restricted(lit.lhs)) mark(lit.rhs, &changed);
      } else {  // equality: closure runs in both directions
        if (all_restricted(lit.lhs)) mark(lit.rhs, &changed);
        if (all_restricted(lit.rhs)) mark(lit.lhs, &changed);
      }
    }
  }
  return restricted.size() == body_vars.size();
}

}  // namespace

bool IsPtimeRestrictedRule(Universe* universe, const Program& program,
                           const Rule& rule) {
  TypePool& types = universe->types();
  return AllBodyVarsRestricted(program, rule, [&](TypeId t) {
    return !types.ContainsSet(t);  // Def 5.1 (1): set-free type
  });
}

bool IsRangeRestrictedRule(Universe* universe, const Program& program,
                           const Rule& rule) {
  TypePool& types = universe->types();
  return AllBodyVarsRestricted(program, rule, [&](TypeId t) {
    return types.node(t).kind == TypeKind::kClass;  // Def 5.2 (1)
  });
}

bool IsInventionFreeStage(const std::vector<Rule>& stage) {
  for (const Rule& rule : stage) {
    if (!rule.invented_vars.empty()) return false;
  }
  return true;
}

bool StageGraph::HasCycle() const {
  return std::find(cyclic.begin(), cyclic.end(), true) != cyclic.end();
}

StageGraph BuildStageGraph(Universe* universe, const Program& program,
                           const std::vector<Rule>& stage) {
  StageGraph g;
  for (const Rule& rule : stage) {
    StageGraph::RuleArcs arcs;
    arcs.rule = &rule;
    std::set<Symbol> body_vars;
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kChoose) continue;
      program.CollectVars(lit, &body_vars);
      std::vector<TermId> stack = {lit.lhs, lit.rhs};
      while (!stack.empty()) {
        const Term& term = program.term(stack.back());
        stack.pop_back();
        if (term.kind == Term::Kind::kRelName ||
            term.kind == Term::Kind::kClassName) {
          arcs.sources.insert(term.name);
        }
        for (const auto& [attr, child] : term.fields) stack.push_back(child);
        for (TermId child : term.elems) stack.push_back(child);
      }
    }
    for (Symbol v : body_vars) {
      universe->types().CollectClasses(rule.var_types.at(v), &arcs.sources);
    }
    // The head node ("leftmost symbol"): the relation or class name of a
    // membership head, or the class of x for x^-heads.
    const Term& lhs = program.term(rule.head.lhs);
    if (lhs.kind == Term::Kind::kRelName ||
        lhs.kind == Term::Kind::kClassName) {
      arcs.targets.insert(lhs.name);
    } else {
      IQL_CHECK(lhs.kind == Term::Kind::kDeref);
      const TypeNode& t = universe->types().node(rule.var_types.at(lhs.name));
      IQL_CHECK(t.kind == TypeKind::kClass);
      arcs.targets.insert(t.class_name);
    }
    for (Symbol v : rule.invented_vars) {
      arcs.targets.insert(
          universe->types().node(rule.var_types.at(v)).class_name);
    }
    for (Symbol src : arcs.sources) {
      g.edges[src].insert(arcs.targets.begin(), arcs.targets.end());
    }
    g.rules.push_back(std::move(arcs));
  }

  // Tarjan's strongly connected components, visiting nodes in symbol order.
  std::map<Symbol, int> index, lowlink;
  std::set<Symbol> on_stack;
  std::vector<Symbol> stack;
  std::function<void(Symbol)> strongconnect = [&](Symbol v) {
    int v_index = static_cast<int>(index.size());
    index[v] = lowlink[v] = v_index;
    stack.push_back(v);
    on_stack.insert(v);
    auto it = g.edges.find(v);
    if (it != g.edges.end()) {
      for (Symbol w : it->second) {
        if (!index.count(w)) {
          strongconnect(w);
          lowlink[v] = std::min(lowlink[v], lowlink[w]);
        } else if (on_stack.count(w)) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      }
    }
    if (lowlink[v] != index[v]) return;
    int comp = static_cast<int>(g.members.size());
    g.members.emplace_back();
    Symbol w;
    do {
      w = stack.back();
      stack.pop_back();
      on_stack.erase(w);
      g.component[w] = comp;
      g.members[comp].push_back(w);
    } while (w != v);
    auto self = g.edges.find(v);
    g.cyclic.push_back(g.members[comp].size() > 1 ||
                       (self != g.edges.end() && self->second.count(v) > 0));
  };
  std::set<Symbol> nodes;
  for (const auto& [src, dsts] : g.edges) {
    nodes.insert(src);
    nodes.insert(dsts.begin(), dsts.end());
  }
  for (Symbol n : nodes) {
    if (!index.count(n)) strongconnect(n);
  }
  return g;
}

bool IsRecursionFreeStage(Universe* universe, const Program& program,
                          const std::vector<Rule>& stage) {
  return !BuildStageGraph(universe, program, stage).HasCycle();
}

RestrictionReport AnalyzeRestrictions(Universe* universe,
                                      const Program& program) {
  IQL_CHECK(program.type_checked)
      << "AnalyzeRestrictions requires a type-checked program";
  RestrictionReport report;
  const SymbolTable& syms = universe->symbols();
  for (const auto& stage : program.stages) {
    bool stage_pr = true;
    bool stage_rr = true;
    for (const Rule& rule : stage) {
      if (!IsPtimeRestrictedRule(universe, program, rule)) {
        stage_pr = false;
        report.ptime_restricted = false;
        report.notes.push_back("not ptime-restricted: " +
                               program.RuleToString(rule, syms));
      }
      if (!IsRangeRestrictedRule(universe, program, rule)) {
        stage_rr = false;
        report.range_restricted = false;
        report.notes.push_back("not range-restricted: " +
                               program.RuleToString(rule, syms));
      }
    }
    bool inv_free = IsInventionFreeStage(stage);
    bool rec_free = IsRecursionFreeStage(universe, program, stage);
    if (!inv_free) report.invention_free = false;
    if (!rec_free) report.recursion_free = false;
    bool controlled = rec_free || inv_free;
    if (!controlled) {
      report.notes.push_back(
          "stage has recursion through oid invention (neither "
          "recursion-free nor invention-free)");
    }
    if (!(stage_pr && controlled)) report.in_iql_pr = false;
    if (!(stage_rr && controlled)) report.in_iql_rr = false;
  }
  return report;
}

}  // namespace iqlkit
