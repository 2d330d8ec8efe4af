// Randomized differential testing: generate random safe Datalog programs
// (negation over EDB relations only, so inflationary and stratified
// semantics coincide), run them through BOTH the IQL naive inflationary
// evaluator and the flat relational engine, and require identical results.
// This cross-checks the entire IQL pipeline -- parser, type inference,
// solver, valuation-domain filter, fixpoint -- against an independent
// implementation on the shared fragment (§3.4).

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "datalog/datalog.h"
#include "iql/eval.h"
#include "iql/il.h"
#include "iql/ilcheck.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

struct GenAtom {
  int relation;              // index into relations
  std::vector<int> vars;     // variable ids
};

struct GenRule {
  GenAtom head;
  std::vector<GenAtom> body;      // positive
  std::vector<GenAtom> negated;   // EDB only
};

struct GenProgram {
  // Relations 0..1: binary EDB; 2: unary EDB; 3..4: binary IDB; 5: unary
  // IDB.
  static constexpr int kRelations = 6;
  static int Arity(int r) { return (r == 2 || r == 5) ? 1 : 2; }
  static bool IsEdb(int r) { return r < 3; }
  static const char* Name(int r) {
    static const char* kNames[] = {"E1", "E2", "U", "I1", "I2", "J"};
    return kNames[r];
  }

  std::vector<GenRule> rules;
};

GenProgram GenerateProgram(std::mt19937* rng) {
  GenProgram prog;
  std::uniform_int_distribution<int> rule_count(2, 5);
  std::uniform_int_distribution<int> body_count(1, 3);
  std::uniform_int_distribution<int> any_rel(0, GenProgram::kRelations - 1);
  std::uniform_int_distribution<int> idb_rel(3, 5);
  std::uniform_int_distribution<int> edb_rel(0, 2);
  std::uniform_int_distribution<int> var(0, 3);
  std::uniform_int_distribution<int> coin(0, 3);
  int n = rule_count(*rng);
  for (int i = 0; i < n; ++i) {
    GenRule rule;
    // Positive body.
    int k = body_count(*rng);
    std::set<int> positive_vars;
    for (int j = 0; j < k; ++j) {
      GenAtom atom;
      atom.relation = any_rel(*rng);
      for (int a = 0; a < GenProgram::Arity(atom.relation); ++a) {
        int v = var(*rng);
        atom.vars.push_back(v);
        positive_vars.insert(v);
      }
      rule.body.push_back(atom);
    }
    // Head over covered variables only (safety).
    std::vector<int> covered(positive_vars.begin(), positive_vars.end());
    GenAtom head;
    head.relation = idb_rel(*rng);
    for (int a = 0; a < GenProgram::Arity(head.relation); ++a) {
      head.vars.push_back(
          covered[(*rng)() % covered.size()]);
    }
    rule.head = head;
    // Occasionally one negated EDB atom over covered variables.
    if (coin(*rng) == 0) {
      GenAtom neg;
      neg.relation = edb_rel(*rng);
      for (int a = 0; a < GenProgram::Arity(neg.relation); ++a) {
        neg.vars.push_back(covered[(*rng)() % covered.size()]);
      }
      rule.negated.push_back(neg);
    }
    prog.rules.push_back(rule);
  }
  return prog;
}

std::string ToIqlSource(const GenProgram& prog) {
  std::ostringstream out;
  out << "schema {\n";
  for (int r = 0; r < GenProgram::kRelations; ++r) {
    out << "  relation " << GenProgram::Name(r) << " : "
        << (GenProgram::Arity(r) == 1 ? "D" : "[D, D]") << ";\n";
  }
  out << "}\ninput E1, E2, U;\nprogram {\n";
  auto atom = [&](const GenAtom& a) {
    out << GenProgram::Name(a.relation) << "(";
    for (size_t i = 0; i < a.vars.size(); ++i) {
      if (i) out << ", ";
      out << "v" << a.vars[i];
    }
    out << ")";
  };
  for (const GenRule& rule : prog.rules) {
    atom(rule.head);
    out << " :- ";
    bool first = true;
    for (const GenAtom& a : rule.body) {
      if (!first) out << ", ";
      first = false;
      atom(a);
    }
    for (const GenAtom& a : rule.negated) {
      out << ", !";
      atom(a);
    }
    out << ".\n";
  }
  out << "}\n";
  return out.str();
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDifferentialTest, IqlMatchesDatalogOnRandomPrograms) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  GenProgram prog = GenerateProgram(&rng);

  // Random EDB facts over a small constant domain.
  int domain = 4 + rng() % 4;
  std::uniform_int_distribution<int> constant(0, domain - 1);
  std::vector<std::vector<std::vector<int>>> edb(3);
  for (int r = 0; r < 3; ++r) {
    int facts = 3 + rng() % 6;
    for (int f = 0; f < facts; ++f) {
      std::vector<int> t;
      for (int a = 0; a < GenProgram::Arity(r); ++a) {
        t.push_back(constant(rng));
      }
      edb[r].push_back(t);
    }
  }

  // --- Datalog run ---
  datalog::Database db;
  std::vector<int> rel_ids;
  for (int r = 0; r < GenProgram::kRelations; ++r) {
    rel_ids.push_back(
        *db.AddRelation(GenProgram::Name(r), GenProgram::Arity(r)));
  }
  datalog::Program dprog;
  for (const GenRule& rule : prog.rules) {
    datalog::Rule dr;
    auto convert = [&](const GenAtom& a) {
      datalog::Atom atom;
      atom.relation = rel_ids[a.relation];
      for (int v : a.vars) atom.terms.push_back(datalog::Term::Var(v));
      return atom;
    };
    dr.head = convert(rule.head);
    for (const GenAtom& a : rule.body) dr.body.push_back(convert(a));
    for (const GenAtom& a : rule.negated) {
      dr.negated.push_back(convert(a));
    }
    dprog.rules.push_back(dr);
  }
  for (int r = 0; r < 3; ++r) {
    for (const auto& t : edb[r]) {
      datalog::Tuple tuple;
      for (int c : t) tuple.push_back(db.InternConstant(c));
      db.AddFact(rel_ids[r], std::move(tuple));
    }
  }
  ASSERT_TRUE(
      datalog::Evaluate(dprog, &db, datalog::EvalMode::kSemiNaive).ok());

  // --- IQL run ---
  Universe u;
  std::string source = ToIqlSource(prog);
  auto unit = ParseUnit(&u, source);
  ASSERT_TRUE(unit.ok()) << unit.status() << "\n" << source;
  auto in_schema = unit->schema.Project({"E1", "E2", "U"});
  ASSERT_TRUE(in_schema.ok());
  Instance input(std::make_shared<const Schema>(std::move(*in_schema)), &u);
  ValueStore& v = u.values();
  for (int r = 0; r < 3; ++r) {
    for (const auto& t : edb[r]) {
      ValueId fact;
      if (t.size() == 1) {
        fact = v.ConstInt(t[0]);
      } else {
        fact = v.Tuple({{PositionalAttr(&u, 1), v.ConstInt(t[0])},
                        {PositionalAttr(&u, 2), v.ConstInt(t[1])}});
      }
      ASSERT_TRUE(
          input.AddToRelation(GenProgram::Name(r), fact).ok());
    }
  }
  // The reference run is the tree-walker oracle; every other IQL run below
  // executes these (all VM-eligible) rules on the register VM.
  EvalOptions oracle;
  oracle.tree_walk_oracle = true;
  auto out = RunUnit(&u, &*unit, input, oracle);
  ASSERT_TRUE(out.ok()) << out.status() << "\n" << source;

  // The delta-driven mode must agree bit-for-bit with the naive operator.
  EvalOptions naive_only;
  naive_only.enable_seminaive = false;
  auto out_naive = RunUnit(&u, &*unit, input, naive_only);
  ASSERT_TRUE(out_naive.ok()) << out_naive.status() << "\n" << source;
  for (int r = 3; r < GenProgram::kRelations; ++r) {
    EXPECT_EQ(out->Relation(u.Intern(GenProgram::Name(r))),
              out_naive->Relation(u.Intern(GenProgram::Name(r))))
        << "semi-naive vs naive divergence, seed " << GetParam() << "\n"
        << source;
  }

  // Indexing and scheduling are pure optimizations: turning both off (the
  // reference `out` runs with both on) must not change a single fact.
  EvalOptions plain;
  plain.enable_indexing = false;
  plain.enable_scheduling = false;
  auto out_plain = RunUnit(&u, &*unit, input, plain);
  ASSERT_TRUE(out_plain.ok()) << out_plain.status() << "\n" << source;
  for (int r = 3; r < GenProgram::kRelations; ++r) {
    EXPECT_EQ(out->Relation(u.Intern(GenProgram::Name(r))),
              out_plain->Relation(u.Intern(GenProgram::Name(r))))
        << "indexed vs plain divergence, seed " << GetParam() << "\n"
        << source;
  }

  // Every rule this fuzzer generates must compile to verifier-clean IL in
  // each lowering the evaluator can request (full and delta variants). A
  // fresh universe keeps the front end here independent of the evaluation
  // runs above.
  {
    Universe u2;
    auto unit2 = ParseUnit(&u2, source);
    ASSERT_TRUE(unit2.ok()) << unit2.status() << "\n" << source;
    ASSERT_TRUE(TypeCheck(&u2, unit2->schema, &unit2->program).ok());
    const Program& p = unit2->program;
    for (const auto& stage : p.stages) {
      for (const Rule& rule : stage) {
        std::vector<size_t> variants = {il::kNoDelta};
        for (size_t d = 0; d < rule.body.size(); ++d) {
          const Literal& lit = rule.body[d];
          if (lit.kind == Literal::Kind::kMembership && lit.positive &&
              p.term(lit.lhs).kind == Term::Kind::kRelName) {
            variants.push_back(d);
          }
        }
        for (size_t delta : variants) {
          auto cr = il::CompileRule(p, rule, delta);
          if (!cr.has_value()) continue;
          auto violations = il::VerifyRule(*cr);
          EXPECT_TRUE(violations.empty())
              << "compiled IL fails verification: " << violations[0].detail
              << ", seed " << GetParam() << "\n" << source;
        }
      }
    }
  }

  // The register VM must be byte-equivalent to the tree-walker (the VM's
  // own naive run is `out_naive` above).
  {
    auto out_vm = RunUnit(&u, &*unit, input, EvalOptions{});
    ASSERT_TRUE(out_vm.ok()) << out_vm.status() << "\n" << source;
    for (int r = 3; r < GenProgram::kRelations; ++r) {
      Symbol name = u.Intern(GenProgram::Name(r));
      EXPECT_EQ(out->Relation(name), out_vm->Relation(name))
          << "vm vs tree-walk divergence, seed " << GetParam() << "\n"
          << source;
    }
  }

  // The flat engine's indexed mode against its own scan-based mode.
  {
    datalog::Database db2;
    for (int r = 0; r < GenProgram::kRelations; ++r) {
      ASSERT_TRUE(
          db2.AddRelation(GenProgram::Name(r), GenProgram::Arity(r)).ok());
    }
    for (int r = 0; r < 3; ++r) {
      for (const auto& t : edb[r]) {
        datalog::Tuple tuple;
        for (int c : t) tuple.push_back(db2.InternConstant(c));
        db2.AddFact(rel_ids[r], std::move(tuple));
      }
    }
    ASSERT_TRUE(datalog::Evaluate(dprog, &db2,
                                  datalog::EvalMode::kSemiNaiveIndexed)
                    .ok());
    for (int r = 3; r < GenProgram::kRelations; ++r) {
      ASSERT_EQ(db2.FactCount(rel_ids[r]), db.FactCount(rel_ids[r]))
          << "indexed datalog divergence, seed " << GetParam() << "\n"
          << source;
      for (const auto& t : db2.Facts(rel_ids[r])) {
        EXPECT_TRUE(db.Contains(rel_ids[r], t))
            << "indexed datalog divergence, seed " << GetParam() << "\n"
            << source;
      }
    }
  }

  // --- compare all IDB relations ---
  for (int r = 3; r < GenProgram::kRelations; ++r) {
    const auto& iql_rel = out->Relation(u.Intern(GenProgram::Name(r)));
    ASSERT_EQ(iql_rel.size(), db.FactCount(rel_ids[r]))
        << "relation " << GenProgram::Name(r) << ", seed " << GetParam()
        << "\n" << source;
    for (ValueId fact : iql_rel) {
      datalog::Tuple key;
      const ValueNode& n = v.node(fact);
      if (n.kind == ValueKind::kConst) {
        key.push_back(db.InternConstant(std::string(u.Name(n.atom))));
      } else {
        for (const auto& [attr, child] : n.fields) {
          key.push_back(
              db.InternConstant(std::string(u.Name(v.node(child).atom))));
        }
      }
      EXPECT_TRUE(db.Contains(rel_ids[r], key))
          << "relation " << GenProgram::Name(r) << ", seed " << GetParam()
          << "\n" << source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint32_t>(0, 40));

}  // namespace
}  // namespace iqlkit
