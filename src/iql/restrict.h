#ifndef IQLKIT_IQL_RESTRICT_H_
#define IQLKIT_IQL_RESTRICT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "iql/ast.h"
#include "model/universe.h"

namespace iqlkit {

// Results of the §5 syntactic analyses on a type-checked program.
//
//   IQLrr  subset-of  IQLpr  subset-of  IQL        (Definition 5.3)
//
// A program is in IQLpr (IQLrr) if each stage is ptime-restricted
// (range-restricted) and either recursion-free or invention-free; such
// programs have PTIME data complexity (Theorem 5.4).
struct RestrictionReport {
  // Per Definitions 5.1 / 5.2, across all rules.
  bool ptime_restricted = true;
  bool range_restricted = true;
  // No rule has head-only variables / the dependency graph G(Gamma) of each
  // stage is acyclic.
  bool invention_free = true;
  bool recursion_free = true;
  // Definition 5.3 verdicts.
  bool in_iql_pr = true;
  bool in_iql_rr = true;
  // Human-readable explanations for each failed property.
  std::vector<std::string> notes;
};

// Analyzes a type-checked program (TypeCheck must have run, so that
// var_types and invented_vars are filled).
RestrictionReport AnalyzeRestrictions(Universe* universe,
                                      const Program& program);

// Definition 5.1: every body variable is ptime-restricted. Base case:
// variables whose type contains no set constructor; closure: through
// positive literals t1(t2), t1 = t2, t2 = t1 whose t1-side variables are
// all restricted.
bool IsPtimeRestrictedRule(Universe* universe, const Program& program,
                           const Rule& rule);

// Definition 5.2: like 5.1 but the base case is variables of class type.
bool IsRangeRestrictedRule(Universe* universe, const Program& program,
                           const Rule& rule);

// A stage is invention-free if no rule has a head-only variable.
bool IsInventionFreeStage(const std::vector<Rule>& stage);

// The dependency graph G(Gamma) of one stage (§5) and its strongly
// connected components. Nodes are relation/class names. Each rule has
// `sources` -- the predicate names in its body and the classes in the
// types of its body variables (`choose` literals skipped) -- and `targets`
// -- its head node (the relation or class of a membership head, the class
// of x for x^-heads) and the classes of its invented variables. There is
// an arc from each source to each target of the same rule.
struct StageGraph {
  struct RuleArcs {
    const Rule* rule = nullptr;
    std::set<Symbol> sources;
    std::set<Symbol> targets;
  };
  std::vector<RuleArcs> rules;  // in stage order
  std::map<Symbol, std::set<Symbol>> edges;
  // Tarjan SCCs: each node's component, each component's members, and
  // whether it is cyclic (more than one member, or a self-loop).
  std::map<Symbol, int> component;
  std::vector<std::vector<Symbol>> members;
  std::vector<bool> cyclic;

  bool HasCycle() const;
};

StageGraph BuildStageGraph(Universe* universe, const Program& program,
                           const std::vector<Rule>& stage);

// A stage is recursion-free if G(Gamma) has no cyclic component.
bool IsRecursionFreeStage(Universe* universe, const Program& program,
                          const std::vector<Rule>& stage);

}  // namespace iqlkit

#endif  // IQLKIT_IQL_RESTRICT_H_
