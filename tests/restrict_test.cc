// §5: the syntactic sublanguages IQLrr and IQLpr and their analyses.

#include "iql/restrict.h"

#include <gtest/gtest.h>

#include "iql/parser.h"
#include "iql/typecheck.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

class RestrictTest : public ::testing::Test {
 protected:
  RestrictionReport Analyze(std::string_view source) {
    auto unit = ParseUnit(&u_, source);
    EXPECT_TRUE(unit.ok()) << unit.status();
    unit_ = std::make_unique<ParsedUnit>(std::move(*unit));
    Status s = TypeCheck(&u_, unit_->schema, &unit_->program);
    EXPECT_TRUE(s.ok()) << s;
    return AnalyzeRestrictions(&u_, unit_->program);
  }

  Universe u_;
  std::unique_ptr<ParsedUnit> unit_;
};

TEST_F(RestrictTest, DatalogTransitiveClosureIsIqlRr) {
  RestrictionReport r = Analyze(R"(
    schema { relation E : [D, D]; relation TC : [D, D]; }
    program {
      TC(x, y) :- E(x, y).
      TC(x, z) :- TC(x, y), E(y, z).
    }
  )");
  EXPECT_TRUE(r.ptime_restricted);
  EXPECT_TRUE(r.range_restricted);
  EXPECT_TRUE(r.invention_free);
  EXPECT_FALSE(r.recursion_free);  // TC depends on TC
  EXPECT_TRUE(r.in_iql_rr);        // invention-free => controlled
  EXPECT_TRUE(r.in_iql_pr);
}

TEST_F(RestrictTest, UnrestrictedPowersetRejected) {
  RestrictionReport r = Analyze(R"(
    schema { relation R : D; relation R1 : {D}; }
    program { var X : {D}; R1(X) :- X = X. }
  )");
  EXPECT_FALSE(r.ptime_restricted);
  EXPECT_FALSE(r.range_restricted);
  EXPECT_FALSE(r.in_iql_pr);
  EXPECT_FALSE(r.in_iql_rr);
  ASSERT_FALSE(r.notes.empty());
}

TEST_F(RestrictTest, OidPowersetHasRecursionThroughInvention) {
  // Example 3.4.2's range-restricted powerset: every rule is
  // range-restricted, but its single stage recurses through invention
  // (P feeds R1 feeds R2 which invents into P), so it is (correctly)
  // outside IQLpr -- it computes an exponential result.
  RestrictionReport r = Analyze(R"(
    schema {
      relation R  : D;
      relation R1 : {D};
      relation R2 : [{D}, {D}, P];
      class P : {D};
    }
    program {
      R1({}).
      R1({x}) :- R(x).
      R2(X, Y, z) :- R1(X), R1(Y).
      z^(x) :- R2(X, Y, z), X(x).
      z^(y) :- R2(X, Y, z), Y(y).
      R1(z^) :- P(z).
    }
  )");
  EXPECT_FALSE(r.invention_free);
  EXPECT_FALSE(r.recursion_free);
  EXPECT_FALSE(r.in_iql_pr);
}

TEST_F(RestrictTest, CycleThroughABodyVariableClassIsRecursion) {
  // No predicate feeds back into itself: the stage's only cycle is P -> P,
  // from the class of body variable w to the class of invented z.
  RestrictionReport r = Analyze(R"(
    schema { class P : D; relation R0 : P; relation R1 : P; }
    program { var z: P, w: P; R1(z) :- R0(w). }
  )");
  EXPECT_FALSE(r.invention_free);
  EXPECT_FALSE(r.recursion_free);
  EXPECT_FALSE(r.in_iql_pr);
  EXPECT_FALSE(r.in_iql_rr);
}

TEST_F(RestrictTest, Example341NestIsPtimeRestricted) {
  // The nest program of Example 3.4.1: the paper calls it
  // ptime-restricted. Stages separate invention from recursion.
  RestrictionReport r = Analyze(R"(
    schema {
      relation R2 : [D, D];
      relation R3 : [D, {D}];
      relation R4 : D;
      relation R5 : [D, P];
      class P : {D};
    }
    program {
      R4(x) :- R2(x, y).
      ;
      R5(x, z) :- R4(x).
      ;
      z^(y) :- R2(x, y), R5(x, z).
      ;
      R3(x, z^) :- R5(x, z).
    }
  )");
  EXPECT_TRUE(r.ptime_restricted);
  EXPECT_TRUE(r.in_iql_pr);
  // Not range-restricted: z^'s elements come via R2, but the set variable
  // rule R3(x, z^) has only class-typed-or-data vars... in fact all rules
  // here close from relations, and range-restriction's base case (class
  // variables) plus closure covers every variable.
  EXPECT_TRUE(r.in_iql_rr);
}

TEST_F(RestrictTest, StagingChangesTheVerdict) {
  // The graph-encoding program as one big stage mixes invention with
  // recursion; split into stages, every stage is controlled. Same
  // semantics, different syntactic classification -- Definition 5.3 is
  // about stages.
  RestrictionReport merged = Analyze(R"(
    schema {
      relation R  : [D, D];
      relation R0 : D;
      relation R9 : [D, P, P'];
      class P  : [D, {P}];
      class P' : {P};
    }
    program {
      R0(x) :- R(x, y).
      R0(x) :- R(y, x).
      R9(x, p, p') :- R0(x).
      p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).
    }
  )");
  EXPECT_FALSE(merged.in_iql_rr);

  RestrictionReport staged = Analyze(R"(
    schema {
      relation R  : [D, D];
      relation R0 : D;
      relation R9 : [D, P, P'];
      class P  : [D, {P}];
      class P' : {P};
    }
    program {
      R0(x) :- R(x, y).
      R0(x) :- R(y, x).
      ;
      R9(x, p, p') :- R0(x).
      ;
      p'^(q) :- R9(x, p, p'), R9(y, q, q'), R(x, y).
    }
  )");
  EXPECT_TRUE(staged.in_iql_rr) << [&] {
    std::string all;
    for (const auto& n : staged.notes) all += n + "\n";
    return all;
  }();
}

TEST_F(RestrictTest, NonterminatingInventionRejected) {
  // R3(y, z) :- R3(x, y): invention inside recursion.
  RestrictionReport r = Analyze(R"(
    schema { relation R3 : [P, P]; class P : D; }
    program { R3(y, z) :- R3(x, y). }
  )");
  EXPECT_FALSE(r.invention_free);
  EXPECT_FALSE(r.recursion_free);
  EXPECT_FALSE(r.in_iql_pr);
}

TEST_F(RestrictTest, SetVariableBoundByRelationIsPtimeRestricted) {
  // X has a set type (not ptime base case) but is bound by R1(X):
  // closure through the membership literal restricts it.
  RestrictionReport r = Analyze(R"(
    schema { relation R1 : {D}; relation Out : D; }
    program { Out(x) :- R1(X), X(x). }
  )");
  EXPECT_TRUE(r.ptime_restricted);
  EXPECT_TRUE(r.in_iql_pr);
}

TEST_F(RestrictTest, RangeRestrictionIsStricterThanPtime) {
  // A variable of type D with no binding literal: ptime-restricted by the
  // base case (set-free type), but not range-restricted.
  RestrictionReport r = Analyze(R"(
    schema { relation R : D; relation Out : [D, D]; }
    program { Out(x, y) :- R(x), y = y. }
  )");
  EXPECT_TRUE(r.ptime_restricted);
  EXPECT_FALSE(r.range_restricted);
  EXPECT_TRUE(r.in_iql_pr);
  EXPECT_FALSE(r.in_iql_rr);
}

}  // namespace
}  // namespace iqlkit
