#include "datalog/datalog.h"

#include <gtest/gtest.h>

#include <random>

namespace iqlkit::datalog {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  // Builds the canonical TC program over relations E and TC.
  void BuildTC() {
    auto e = db_.AddRelation("E", 2);
    auto tc = db_.AddRelation("TC", 2);
    ASSERT_TRUE(e.ok() && tc.ok());
    e_ = *e;
    tc_ = *tc;
    // TC(x, y) :- E(x, y).
    program_.rules.push_back(
        Rule{Atom{tc_, {Term::Var(0), Term::Var(1)}},
             {Atom{e_, {Term::Var(0), Term::Var(1)}}},
             {}});
    // TC(x, z) :- TC(x, y), E(y, z).
    program_.rules.push_back(
        Rule{Atom{tc_, {Term::Var(0), Term::Var(2)}},
             {Atom{tc_, {Term::Var(0), Term::Var(1)}},
              Atom{e_, {Term::Var(1), Term::Var(2)}}},
             {}});
  }

  void AddEdge(int a, int b) {
    db_.AddFact(e_, {db_.InternConstant(a), db_.InternConstant(b)});
  }

  Database db_;
  Program program_;
  int e_ = -1, tc_ = -1;
};

TEST_F(DatalogTest, TransitiveClosureNaive) {
  BuildTC();
  AddEdge(1, 2);
  AddEdge(2, 3);
  AddEdge(3, 4);
  ASSERT_TRUE(Evaluate(program_, &db_, EvalMode::kNaive).ok());
  EXPECT_EQ(db_.FactCount(tc_), 6u);
}

TEST_F(DatalogTest, TransitiveClosureSemiNaive) {
  BuildTC();
  AddEdge(1, 2);
  AddEdge(2, 3);
  AddEdge(3, 4);
  ASSERT_TRUE(Evaluate(program_, &db_, EvalMode::kSemiNaive).ok());
  EXPECT_EQ(db_.FactCount(tc_), 6u);
}

TEST_F(DatalogTest, NaiveAndSemiNaiveAgreeOnRandomGraphs) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    Database db1, db2;
    Program prog1, prog2;
    auto build = [&](Database* db, Program* prog) {
      int e = *db->AddRelation("E", 2);
      int tc = *db->AddRelation("TC", 2);
      prog->rules.push_back(Rule{Atom{tc, {Term::Var(0), Term::Var(1)}},
                                 {Atom{e, {Term::Var(0), Term::Var(1)}}},
                                 {}});
      prog->rules.push_back(
          Rule{Atom{tc, {Term::Var(0), Term::Var(2)}},
               {Atom{tc, {Term::Var(0), Term::Var(1)}},
                Atom{e, {Term::Var(1), Term::Var(2)}}},
               {}});
      return std::pair<int, int>{e, tc};
    };
    auto [e1, tc1] = build(&db1, &prog1);
    auto [e2, tc2] = build(&db2, &prog2);
    std::uniform_int_distribution<int> node(0, 15);
    for (int k = 0; k < 30; ++k) {
      int a = node(rng), b = node(rng);
      db1.AddFact(e1, {db1.InternConstant(a), db1.InternConstant(b)});
      db2.AddFact(e2, {db2.InternConstant(a), db2.InternConstant(b)});
    }
    Stats s1, s2;
    ASSERT_TRUE(Evaluate(prog1, &db1, EvalMode::kNaive, &s1).ok());
    ASSERT_TRUE(Evaluate(prog2, &db2, EvalMode::kSemiNaive, &s2).ok());
    ASSERT_EQ(db1.FactCount(tc1), db2.FactCount(tc2)) << "trial " << trial;
    for (const Tuple& t : db1.Facts(tc1)) {
      EXPECT_TRUE(db2.Contains(tc2, t));
    }
    // Semi-naive does strictly less re-derivation on multi-round closures.
    if (s1.iterations > 3) {
      EXPECT_LT(s2.derivations, s1.derivations);
    }
  }
}

TEST_F(DatalogTest, ConstantsInAtoms) {
  int r = *db_.AddRelation("R", 2);
  int out = *db_.AddRelation("Out", 1);
  Value a = db_.InternConstant("a");
  db_.AddFact(r, {a, db_.InternConstant("x")});
  db_.AddFact(r, {db_.InternConstant("b"), db_.InternConstant("y")});
  Program p;
  // Out(v) :- R("a", v).
  p.rules.push_back(Rule{Atom{out, {Term::Var(0)}},
                         {Atom{r, {Term::Const(a), Term::Var(0)}}},
                         {}});
  ASSERT_TRUE(Evaluate(p, &db_, EvalMode::kSemiNaive).ok());
  EXPECT_EQ(db_.FactCount(out), 1u);
}

TEST_F(DatalogTest, StratifiedNegation) {
  int e = *db_.AddRelation("E", 2);
  int r = *db_.AddRelation("Reach", 1);
  int nr = *db_.AddRelation("Unreached", 1);
  int node = *db_.AddRelation("Node", 1);
  Value n1 = db_.InternConstant(1), n2 = db_.InternConstant(2),
        n3 = db_.InternConstant(3);
  db_.AddFact(e, {n1, n2});
  for (Value v : {n1, n2, n3}) db_.AddFact(node, {v});
  db_.AddFact(r, {n1});
  Program p;
  // Reach(y) :- Reach(x), E(x, y).
  p.rules.push_back(Rule{Atom{r, {Term::Var(1)}},
                         {Atom{r, {Term::Var(0)}},
                          Atom{e, {Term::Var(0), Term::Var(1)}}},
                         {}});
  // Unreached(x) :- Node(x), !Reach(x).
  p.rules.push_back(Rule{Atom{nr, {Term::Var(0)}},
                         {Atom{node, {Term::Var(0)}}},
                         {Atom{r, {Term::Var(0)}}}});
  ASSERT_TRUE(Evaluate(p, &db_, EvalMode::kSemiNaive).ok());
  EXPECT_EQ(db_.FactCount(r), 2u);   // 1, 2
  EXPECT_EQ(db_.FactCount(nr), 1u);  // 3
  EXPECT_TRUE(db_.Contains(nr, {n3}));
}

TEST_F(DatalogTest, NonStratifiableRejected) {
  int a = *db_.AddRelation("A", 1);
  int b = *db_.AddRelation("B", 1);
  Program p;
  // A(x) :- B(x), !A(x): recursion through negation.
  p.rules.push_back(Rule{Atom{a, {Term::Var(0)}},
                         {Atom{b, {Term::Var(0)}}},
                         {Atom{a, {Term::Var(0)}}}});
  Status s = Evaluate(p, &db_, EvalMode::kNaive);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(DatalogTest, UnsafeRuleRejected) {
  int r = *db_.AddRelation("R", 1);
  int out = *db_.AddRelation("Out", 2);
  Program p;
  // Out(x, y) :- R(x): y unbound.
  p.rules.push_back(Rule{Atom{out, {Term::Var(0), Term::Var(1)}},
                         {Atom{r, {Term::Var(0)}}},
                         {}});
  Status s = Evaluate(p, &db_, EvalMode::kNaive);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(DatalogTest, EmptyProgramIsFixpoint) {
  Program p;
  EXPECT_TRUE(Evaluate(p, &db_, EvalMode::kSemiNaive).ok());
}

TEST_F(DatalogTest, SameGenerationSiblings) {
  // Same-generation: a classic non-linear recursion.
  int par = *db_.AddRelation("Par", 2);
  int sg = *db_.AddRelation("SG", 2);
  Program p;
  // SG(x, y) :- Par(x, z), Par(y, z): siblings share a parent.
  p.rules.push_back(Rule{Atom{sg, {Term::Var(0), Term::Var(1)}},
                         {Atom{par, {Term::Var(0), Term::Var(2)}},
                          Atom{par, {Term::Var(1), Term::Var(2)}}},
                         {}});
  // SG(x, y) :- Par(x, u), SG(u, v), Par(y, v).
  p.rules.push_back(Rule{Atom{sg, {Term::Var(0), Term::Var(1)}},
                         {Atom{par, {Term::Var(0), Term::Var(2)}},
                          Atom{sg, {Term::Var(2), Term::Var(3)}},
                          Atom{par, {Term::Var(1), Term::Var(3)}}},
                         {}});
  Value a = db_.InternConstant("a"), b = db_.InternConstant("b"),
        c = db_.InternConstant("c"), d = db_.InternConstant("d"),
        e2 = db_.InternConstant("e");
  // a and b are children of c; c and d children of e.
  db_.AddFact(par, {a, c});
  db_.AddFact(par, {b, c});
  db_.AddFact(par, {c, e2});
  db_.AddFact(par, {d, e2});
  ASSERT_TRUE(Evaluate(p, &db_, EvalMode::kSemiNaive).ok());
  EXPECT_TRUE(db_.Contains(sg, {a, b}));
  EXPECT_TRUE(db_.Contains(sg, {c, d}));
  EXPECT_FALSE(db_.Contains(sg, {a, d}));
}

}  // namespace
}  // namespace iqlkit::datalog
