// Instance mechanics not covered elsewhere: Absorb conflicts, projection
// typing, deletion primitives at the model level, and the agreement of a
// relation's id-membership set with its ordered extent under every
// mutator.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "model/instance.h"
#include "model/schema.h"
#include "model/universe.h"

namespace iqlkit {
namespace {

class InstanceExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TypePool& t = u_.types();
    schema_ = std::make_unique<Schema>(&u_);
    ASSERT_TRUE(schema_->DeclareRelation("R", t.Base()).ok());
    ASSERT_TRUE(schema_->DeclareClass("P", t.Base()).ok());
    ASSERT_TRUE(schema_->DeclareClass("Q", t.Base()).ok());
    ASSERT_TRUE(schema_->DeclareClass("Bag", t.Set(t.Base())).ok());
  }

  Universe u_;
  std::unique_ptr<Schema> schema_;
};

TEST_F(InstanceExtraTest, AbsorbMergesFacts) {
  Instance a(schema_.get(), &u_);
  Instance b(schema_.get(), &u_);
  ASSERT_TRUE(a.AddToRelation("R", u_.values().Const("x")).ok());
  ASSERT_TRUE(b.AddToRelation("R", u_.values().Const("y")).ok());
  auto o = b.CreateOid("P");
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(b.SetOidValue(*o, u_.values().Const("v")).ok());
  ASSERT_TRUE(a.Absorb(b).ok());
  EXPECT_EQ(a.Relation(u_.Intern("R")).size(), 2u);
  EXPECT_EQ(a.ValueOf(*o), u_.values().Const("v"));
}

TEST_F(InstanceExtraTest, AbsorbRejectsClassConflicts) {
  Instance a(schema_.get(), &u_);
  Instance b(schema_.get(), &u_);
  Oid o{777};
  ASSERT_TRUE(a.AddOid(u_.Intern("P"), o).ok());
  ASSERT_TRUE(b.AddOid(u_.Intern("Q"), o).ok());
  EXPECT_EQ(a.Absorb(b).code(), StatusCode::kFailedPrecondition);
}

TEST_F(InstanceExtraTest, AbsorbRejectsNuConflicts) {
  Instance a(schema_.get(), &u_);
  Instance b(schema_.get(), &u_);
  Oid o{778};
  ASSERT_TRUE(a.AddOid(u_.Intern("P"), o).ok());
  ASSERT_TRUE(a.SetOidValue(o, u_.values().Const("a")).ok());
  ASSERT_TRUE(b.AddOid(u_.Intern("P"), o).ok());
  ASSERT_TRUE(b.SetOidValue(o, u_.values().Const("b")).ok());
  EXPECT_EQ(a.Absorb(b).code(), StatusCode::kFailedPrecondition);
}

TEST_F(InstanceExtraTest, RemoveFromRelationAndSet) {
  Instance a(schema_.get(), &u_);
  ValueId x = u_.values().Const("x");
  ASSERT_TRUE(a.AddToRelation("R", x).ok());
  EXPECT_TRUE(a.RemoveFromRelation(u_.Intern("R"), x));
  EXPECT_FALSE(a.RemoveFromRelation(u_.Intern("R"), x));  // already gone

  auto bag = a.CreateOid("Bag");
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(a.AddToSetOid(*bag, x).ok());
  EXPECT_TRUE(a.RemoveFromSetOid(*bag, x));
  EXPECT_FALSE(a.RemoveFromSetOid(*bag, x));
  EXPECT_EQ(a.ValueOf(*bag), u_.values().EmptySet());
}

TEST_F(InstanceExtraTest, ClearOidValueSemantics) {
  Instance a(schema_.get(), &u_);
  auto p = a.CreateOid("P");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(a.ClearOidValue(*p));  // nothing to clear
  ASSERT_TRUE(a.SetOidValue(*p, u_.values().Const("v")).ok());
  EXPECT_TRUE(a.ClearOidValue(*p));
  EXPECT_FALSE(a.ValueOf(*p).has_value());
  // Set-valued: clearing resets to the empty set, never undefined.
  auto bag = a.CreateOid("Bag");
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(a.AddToSetOid(*bag, u_.values().Const("e")).ok());
  EXPECT_TRUE(a.ClearOidValue(*bag));
  EXPECT_EQ(a.ValueOf(*bag), u_.values().EmptySet());
}

TEST_F(InstanceExtraTest, DeleteOidCascadeThroughMixedStructures) {
  TypePool& t = u_.types();
  Schema s(&u_);
  ASSERT_TRUE(s.DeclareClass("N", t.Base()).ok());
  ASSERT_TRUE(s.DeclareClass("Wrap", t.Tuple({{u_.Intern("w"),
                                               t.ClassNamed("N")}}))
                  .ok());
  ASSERT_TRUE(s.DeclareClass("Pool", t.Set(t.ClassNamed("N"))).ok());
  ASSERT_TRUE(s.DeclareRelation("Uses",
                                t.Tuple({{u_.Intern("a"),
                                          t.ClassNamed("Wrap")}}))
                  .ok());
  Instance a(&s, &u_);
  ValueStore& v = u_.values();
  auto n = a.CreateOid("N");
  auto wrap = a.CreateOid("Wrap");
  auto pool = a.CreateOid("Pool");
  ASSERT_TRUE(n.ok() && wrap.ok() && pool.ok());
  ASSERT_TRUE(a.SetOidValue(*n, v.Const("n")).ok());
  ASSERT_TRUE(
      a.SetOidValue(*wrap, v.Tuple({{u_.Intern("w"), v.OfOid(*n)}})).ok());
  ASSERT_TRUE(a.AddToSetOid(*pool, v.OfOid(*n)).ok());
  ASSERT_TRUE(a.AddToRelation(
                   "Uses", v.Tuple({{u_.Intern("a"), v.OfOid(*wrap)}}))
                  .ok());
  // Deleting n kills wrap (value mentions n), strips pool's element, and
  // erases the Uses fact (it mentions wrap, which died).
  EXPECT_EQ(a.DeleteOidCascade(*n), 2u);
  EXPECT_FALSE(a.HasOid(*n));
  EXPECT_FALSE(a.HasOid(*wrap));
  EXPECT_TRUE(a.HasOid(*pool));
  EXPECT_EQ(a.ValueOf(*pool), v.EmptySet());
  EXPECT_TRUE(a.Relation(u_.Intern("Uses")).empty());
  EXPECT_TRUE(a.Validate().ok()) << a.Validate();
}

// Every relation's O(1) membership answer agrees with its ordered extent,
// for every value interned so far.
void ExpectMembershipAgrees(const Instance& inst,
                            const std::vector<Symbol>& relations) {
  size_t values = inst.universe()->values().size();
  for (Symbol r : relations) {
    const ValueIdSet& extent = inst.Relation(r);
    for (ValueId v = 0; v < values; ++v) {
      ASSERT_EQ(inst.RelationContains(r, v), extent.count(v) > 0)
          << "relation " << inst.universe()->Name(r) << " value " << v;
    }
  }
}

// Seeded random sequences of every relation mutator -- add, remove,
// DeleteOidCascade, Absorb, Project, and copy/move construction and
// assignment -- checking after each step that membership by id and the
// ordered extent agree, and that a duplicate add journals nothing.
TEST_F(InstanceExtraTest, EmptiedRelationAndClassEqualAbsentOnes) {
  // Removals keep an emptied relation's and class's entry; ground-fact
  // equality must not see it.
  Instance emptied(schema_.get(), &u_);
  ASSERT_TRUE(emptied.AddToRelation("R", u_.values().Const("x")).ok());
  ASSERT_TRUE(emptied.RemoveFromRelation(u_.Intern("R"),
                                         u_.values().Const("x")));
  auto o = emptied.CreateOid("P");
  ASSERT_TRUE(o.ok());
  ASSERT_TRUE(emptied.SetOidValue(*o, u_.values().Const("v")).ok());
  EXPECT_GT(emptied.DeleteOidCascade(*o), 0u);
  Instance fresh(schema_.get(), &u_);
  EXPECT_TRUE(emptied.EqualGroundFacts(fresh));
  EXPECT_TRUE(fresh.EqualGroundFacts(emptied));

  // Facts elsewhere still count, on either side of an emptied entry.
  ASSERT_TRUE(fresh.AddOid(u_.Intern("Q"), Oid{900}).ok());
  EXPECT_FALSE(emptied.EqualGroundFacts(fresh));
  ASSERT_TRUE(emptied.AddOid(u_.Intern("Q"), Oid{900}).ok());
  EXPECT_TRUE(emptied.EqualGroundFacts(fresh));
  ASSERT_TRUE(emptied.AddToRelation("R", u_.values().Const("y")).ok());
  EXPECT_FALSE(emptied.EqualGroundFacts(fresh));
}

TEST(InstanceMembershipTest, HashMembershipTracksEveryMutator) {
  Universe u;
  TypePool& t = u.types();
  Schema schema(&u);
  ASSERT_TRUE(schema.DeclareClass("P", t.Base()).ok());
  ASSERT_TRUE(schema.DeclareRelation("R", t.Base()).ok());
  ASSERT_TRUE(schema
                  .DeclareRelation("T", t.Tuple({{u.Intern("a"),
                                                  t.ClassNamed("P")},
                                                 {u.Intern("b"), t.Base()}}))
                  .ok());
  auto sub = schema.Project({"P", "T"});
  ASSERT_TRUE(sub.ok());
  const Symbol r = u.Intern("R");
  const Symbol tr = u.Intern("T");
  const std::vector<Symbol> relations = {r, tr};
  ValueStore& v = u.values();
  std::vector<ValueId> consts;
  for (int i = 0; i < 12; ++i) consts.push_back(v.ConstInt(i));

  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) {
      return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    std::vector<FactOp> journal;
    Instance a(&schema, &u);
    a.set_journal(&journal);
    std::vector<Oid> oids;  // minted so far; some may be deleted
    auto oid_tuple = [&](Oid o) {
      return v.Tuple({{u.Intern("a"), v.OfOid(o)},
                      {u.Intern("b"), consts[pick(consts.size())]}});
    };
    for (int step = 0; step < 200; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      journal.clear();
      switch (pick(9)) {
        case 0: {  // add to R, journaled exactly when new
          ValueId c = consts[pick(consts.size())];
          bool had = a.RelationContains(r, c);
          ASSERT_TRUE(a.AddToRelation(r, c).ok());
          EXPECT_EQ(journal.size(), had ? 0u : 1u);
          ASSERT_TRUE(a.AddToRelation(r, c).ok());  // now a duplicate
          EXPECT_EQ(journal.size(), had ? 0u : 1u);
          break;
        }
        case 1: {
          ValueId c = consts[pick(consts.size())];
          bool had = a.RelationContains(r, c);
          EXPECT_EQ(a.RemoveFromRelation(r, c), had);
          break;
        }
        case 2: {  // add a T fact over a live oid
          auto o = a.CreateOid("P");
          ASSERT_TRUE(o.ok());
          oids.push_back(*o);
          for (int k = 0; k < 3; ++k) {
            Oid live = oids[pick(oids.size())];
            if (a.HasOid(live)) {
              ASSERT_TRUE(a.AddToRelation(tr, oid_tuple(live)).ok());
            }
          }
          break;
        }
        case 3:
          if (!oids.empty()) a.DeleteOidCascade(oids[pick(oids.size())]);
          break;
        case 4: {  // absorb a second instance over some of the same facts
          Instance b(&schema, &u);
          for (int k = 0; k < 4; ++k) {
            ASSERT_TRUE(
                b.AddToRelation(r, consts[pick(consts.size())]).ok());
          }
          for (Oid o : a.ClassExtent(u.Intern("P"))) {
            ASSERT_TRUE(b.AddOid(u.Intern("P"), o).ok());
            ASSERT_TRUE(b.AddToRelation(tr, oid_tuple(o)).ok());
            break;
          }
          ExpectMembershipAgrees(b, relations);
          ASSERT_TRUE(a.Absorb(b).ok());
          break;
        }
        case 5: {  // project onto {P, T}, then absorb the projection back
          Instance projected = a.Project(&*sub);
          ExpectMembershipAgrees(projected, {tr});
          EXPECT_EQ(projected.Relation(tr), a.Relation(tr));
          Instance rebuilt(&schema, &u);
          ASSERT_TRUE(rebuilt.Absorb(projected).ok());
          for (ValueId c : a.Relation(r)) {
            ASSERT_TRUE(rebuilt.AddToRelation(r, c).ok());
          }
          ExpectMembershipAgrees(rebuilt, relations);
          EXPECT_EQ(rebuilt.Relation(r), a.Relation(r));
          EXPECT_EQ(rebuilt.Relation(tr), a.Relation(tr));
          a = rebuilt;
          break;
        }
        case 6: {  // copy construction and copy assignment
          Instance copy(a);
          ExpectMembershipAgrees(copy, relations);
          ASSERT_TRUE(copy.AddToRelation(r, consts[pick(consts.size())])
                          .ok());
          ExpectMembershipAgrees(a, relations);  // the copy is independent
          Instance assigned(&schema, &u);
          assigned = a;
          ExpectMembershipAgrees(assigned, relations);
          a = copy;
          break;
        }
        case 7: {  // move construction and move assignment
          Instance moved(std::move(a));
          ExpectMembershipAgrees(moved, relations);
          a = std::move(moved);
          break;
        }
        case 8: {  // remove a T fact that is present
          const ValueIdSet& facts = a.Relation(tr);
          if (!facts.empty()) {
            ValueId f = *std::next(facts.begin(), pick(facts.size()));
            EXPECT_TRUE(a.RemoveFromRelation(tr, f));
            EXPECT_FALSE(a.RelationContains(tr, f));
          }
          break;
        }
      }
      a.set_journal(&journal);  // assignment detaches the journal
      ExpectMembershipAgrees(a, relations);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace iqlkit
