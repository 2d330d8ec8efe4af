// IQL* (§4.5): negative heads interpreted as deletions, allowing
// non-disjoint input-output schemas (updates). Deleting an oid propagates:
// facts whose values mention it are erased, and non-set objects whose value
// mentions it are deleted in cascade.

#include <gtest/gtest.h>

#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

class IqlStarTest : public ::testing::Test {
 protected:
  Result<Instance> Run(std::string_view source,
                       const std::function<void(Instance*)>& fill) {
    auto unit = ParseUnit(&u_, source);
    if (!unit.ok()) return unit.status();
    unit_ = std::make_unique<ParsedUnit>(std::move(*unit));
    auto in_schema = unit_->schema.Project(unit_->input_names);
    if (!in_schema.ok()) return in_schema.status();
    in_schema_ = std::make_unique<Schema>(std::move(*in_schema));
    Instance input(in_schema_.get(), &u_);
    fill(&input);
    EvalOptions options;
    options.allow_deletions = true;
    return RunUnit(&u_, unit_.get(), input, options);
  }

  ValueId C(std::string_view s) { return u_.values().Const(s); }

  Universe u_;
  std::unique_ptr<ParsedUnit> unit_;
  std::unique_ptr<Schema> in_schema_;
};

TEST_F(IqlStarTest, DeletesRelationFacts) {
  auto out = Run(R"(
    schema { relation R : D; relation Kill : D; }
    input R, Kill;
    program { !R(x) :- Kill(x). }
  )",
                 [&](Instance* in) {
                   for (const char* c : {"a", "b", "c"}) {
                     ASSERT_TRUE(in->AddToRelation("R", C(c)).ok());
                   }
                   ASSERT_TRUE(in->AddToRelation("Kill", C("b")).ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  Symbol r = u_.Intern("R");
  EXPECT_EQ(out->Relation(r).size(), 2u);
  EXPECT_FALSE(out->RelationContains(r, C("b")));
}

TEST_F(IqlStarTest, DeleteWinsOverInsertInSameStep) {
  // x is both derived into S and deleted from S in the same step; the
  // *-semantics applies deletions after insertions.
  auto out = Run(R"(
    schema { relation R : D; relation S : D; }
    input R;
    program {
      S(x) :- R(x).
      !S(x) :- R(x).
    }
  )",
                 [&](Instance* in) {
                   ASSERT_TRUE(in->AddToRelation("R", C("a")).ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->Relation(u_.Intern("S")).empty());
}

TEST(IqlStarStepsTest, InsertDeleteOfAFreshFactIsAFixpointInOneStep) {
  // S is absent from the input and empty after the first step: J = I, so
  // that step is already the fixpoint. The emptied S entry the step leaves
  // behind must not read as a change and cost an extra step.
  Universe u;
  auto unit = ParseUnit(&u, R"(
    schema { relation R : D; relation S : D; }
    input R;
    program {
      S(x) :- R(x).
      !S(x) :- R(x).
    }
  )");
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto in_schema = unit->schema.Project(unit->input_names);
  ASSERT_TRUE(in_schema.ok()) << in_schema.status();
  Instance input(&*in_schema, &u);
  ASSERT_TRUE(input.AddToRelation("R", u.values().Const("a")).ok());
  EvalOptions options;
  options.allow_deletions = true;
  EvalStats stats;
  auto out = RunUnit(&u, &*unit, input, options, &stats);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->Relation(u.Intern("S")).empty());
  EXPECT_EQ(stats.steps, 1u);
}

TEST_F(IqlStarTest, SetElementRemoval) {
  auto out = Run(R"(
    schema { class P : {D}; relation Holder : P; relation Kill : D; }
    input P, Holder, Kill;
    program { !p^(x) :- Holder(p), Kill(x). }
  )",
                 [&](Instance* in) {
                   auto o = in->CreateOid("P");
                   ASSERT_TRUE(o.ok());
                   ASSERT_TRUE(in->AddToSetOid(*o, C("keep")).ok());
                   ASSERT_TRUE(in->AddToSetOid(*o, C("drop")).ok());
                   ASSERT_TRUE(
                       in->AddToRelation("Holder", u_.values().OfOid(*o))
                           .ok());
                   ASSERT_TRUE(in->AddToRelation("Kill", C("drop")).ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  Oid o = *out->ClassExtent(u_.Intern("P")).begin();
  EXPECT_EQ(out->ValueOf(o), u_.values().Set({C("keep")}));
}

TEST_F(IqlStarTest, OidDeletionCascades) {
  // Deleting a Node oid erases the relation facts mentioning it and strips
  // it from set values; a non-set Wrapper whose value mentions it dies too.
  auto out = Run(R"(
    schema {
      class Node : D;
      class Bag : {Node};
      class Wrapper : Node;
      relation Edge : [Node, Node];
      relation Kill : Node;
    }
    input Node, Bag, Wrapper, Edge, Kill;
    program { !Node(n) :- Kill(n). }
  )",
                 [&](Instance* in) {
                   ValueStore& v = u_.values();
                   auto n1 = in->CreateOid("Node");
                   auto n2 = in->CreateOid("Node");
                   ASSERT_TRUE(n1.ok() && n2.ok());
                   ASSERT_TRUE(in->SetOidValue(*n1, C("n1")).ok());
                   ASSERT_TRUE(in->SetOidValue(*n2, C("n2")).ok());
                   auto bag = in->CreateOid("Bag");
                   ASSERT_TRUE(bag.ok());
                   ASSERT_TRUE(in->AddToSetOid(*bag, v.OfOid(*n1)).ok());
                   ASSERT_TRUE(in->AddToSetOid(*bag, v.OfOid(*n2)).ok());
                   auto wrap = in->CreateOid("Wrapper");
                   ASSERT_TRUE(wrap.ok());
                   ASSERT_TRUE(in->SetOidValue(*wrap, v.OfOid(*n1)).ok());
                   ASSERT_TRUE(
                       in->AddToRelation(
                             "Edge",
                             v.Tuple({{PositionalAttr(&u_, 1), v.OfOid(*n1)},
                                      {PositionalAttr(&u_, 2),
                                       v.OfOid(*n2)}}))
                           .ok());
                   ASSERT_TRUE(in->AddToRelation("Kill", v.OfOid(*n1)).ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->ClassExtent(u_.Intern("Node")).size(), 1u);
  EXPECT_TRUE(out->ClassExtent(u_.Intern("Wrapper")).empty());
  EXPECT_TRUE(out->Relation(u_.Intern("Edge")).empty());
  Oid bag = *out->ClassExtent(u_.Intern("Bag")).begin();
  EXPECT_EQ(u_.values().node(*out->ValueOf(bag)).elems.size(), 1u);
  // Kill itself was cleaned of the dangling oid.
  EXPECT_TRUE(out->Relation(u_.Intern("Kill")).empty());
  EXPECT_TRUE(out->Validate().ok()) << out->Validate();
}

TEST_F(IqlStarTest, ValueRetraction) {
  auto out = Run(R"(
    schema { class P : D; relation Holder : P; }
    input P, Holder;
    program { !p^ = p^ :- Holder(p). }
  )",
                 [&](Instance* in) {
                   auto o = in->CreateOid("P");
                   ASSERT_TRUE(o.ok());
                   ASSERT_TRUE(in->SetOidValue(*o, C("gone")).ok());
                   ASSERT_TRUE(
                       in->AddToRelation("Holder", u_.values().OfOid(*o))
                           .ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  Oid o = *out->ClassExtent(u_.Intern("P")).begin();
  EXPECT_FALSE(out->ValueOf(o).has_value());
}

TEST_F(IqlStarTest, InsertionsAndDeletionsExpressUpdates) {
  // Replace: move every S-marked element of R to T (delete from R, add to
  // T) -- a non-monotone transformation impossible in plain IQL.
  auto out = Run(R"(
    schema { relation R : D; relation S : D; relation T : D; }
    input R, S;
    program {
      T(x)  :- R(x), S(x).
      !R(x) :- S(x).
    }
  )",
                 [&](Instance* in) {
                   for (const char* c : {"a", "b"}) {
                     ASSERT_TRUE(in->AddToRelation("R", C(c)).ok());
                   }
                   ASSERT_TRUE(in->AddToRelation("S", C("a")).ok());
                 });
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->Relation(u_.Intern("R")).size(), 1u);
  EXPECT_TRUE(out->RelationContains(u_.Intern("T"), C("a")));
}

}  // namespace
}  // namespace iqlkit
