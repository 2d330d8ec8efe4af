#include "model/value.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "base/interner.h"
#include "model/oid.h"

namespace iqlkit {
namespace {

class ValueTest : public ::testing::Test {
 protected:
  SymbolTable syms_;
  ValueStore store_{&syms_};
};

TEST_F(ValueTest, ConstInterning) {
  EXPECT_EQ(store_.Const("a"), store_.Const("a"));
  EXPECT_NE(store_.Const("a"), store_.Const("b"));
}

TEST_F(ValueTest, ConstIntInternsAsDecimalAtom) {
  EXPECT_EQ(store_.ConstInt(42), store_.Const("42"));
}

TEST_F(ValueTest, OidValuesDistinctFromConsts) {
  ValueId c = store_.Const("7");
  ValueId o = store_.OfOid(Oid{7});
  EXPECT_NE(c, o);
  EXPECT_EQ(store_.node(o).kind, ValueKind::kOid);
  EXPECT_EQ(store_.node(o).oid, (Oid{7}));
}

TEST_F(ValueTest, TupleFieldOrderIsCanonical) {
  Symbol a = syms_.Intern("A");
  Symbol b = syms_.Intern("B");
  ValueId x = store_.Const("x");
  ValueId y = store_.Const("y");
  ValueId t1 = store_.Tuple({{a, x}, {b, y}});
  ValueId t2 = store_.Tuple({{b, y}, {a, x}});
  EXPECT_EQ(t1, t2);
}

TEST_F(ValueTest, TuplesWithDifferentAttrsDiffer) {
  Symbol a = syms_.Intern("A");
  Symbol b = syms_.Intern("B");
  ValueId x = store_.Const("x");
  EXPECT_NE(store_.Tuple({{a, x}}), store_.Tuple({{b, x}}));
}

TEST_F(ValueTest, EmptyTupleDistinctFromEmptySet) {
  EXPECT_NE(store_.EmptyTuple(), store_.EmptySet());
}

TEST_F(ValueTest, SetDeduplicatesAndSorts) {
  ValueId x = store_.Const("x");
  ValueId y = store_.Const("y");
  ValueId s1 = store_.Set({x, y, x});
  ValueId s2 = store_.Set({y, x});
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(store_.node(s1).elems.size(), 2u);
}

TEST_F(ValueTest, SingletonSetNotElement) {
  ValueId x = store_.Const("x");
  EXPECT_NE(store_.Set({x}), x);
}

TEST_F(ValueTest, SetOfEmptySetNotEmptySet) {
  // {} vs {{}} -- the paper stresses this distinction for types; the value
  // level must keep it too.
  ValueId empty = store_.EmptySet();
  ValueId nested = store_.Set({empty});
  EXPECT_NE(empty, nested);
}

TEST_F(ValueTest, SetInsertIsIdempotent) {
  ValueId x = store_.Const("x");
  ValueId s = store_.EmptySet();
  ValueId s1 = store_.SetInsert(s, x);
  ValueId s2 = store_.SetInsert(s1, x);
  EXPECT_EQ(s1, s2);
  EXPECT_TRUE(store_.SetContains(s1, x));
  EXPECT_FALSE(store_.SetContains(s, x));
}

TEST_F(ValueTest, SetUnionMatchesInsertion) {
  ValueId x = store_.Const("x");
  ValueId y = store_.Const("y");
  ValueId z = store_.Const("z");
  ValueId a = store_.Set({x, y});
  ValueId b = store_.Set({y, z});
  EXPECT_EQ(store_.SetUnion(a, b), store_.Set({x, y, z}));
}

TEST_F(ValueTest, DeepStructuralSharing) {
  Symbol a = syms_.Intern("A");
  ValueId leaf = store_.Const("leaf");
  ValueId t1 = store_.Tuple({{a, store_.Set({leaf})}});
  ValueId t2 = store_.Tuple({{a, store_.Set({leaf})}});
  EXPECT_EQ(t1, t2);
}

TEST_F(ValueTest, CollectOidsTransitive) {
  Symbol a = syms_.Intern("A");
  ValueId inner = store_.Set({store_.OfOid(Oid{1}), store_.OfOid(Oid{2})});
  ValueId v = store_.Tuple({{a, inner}});
  std::set<Oid> oids;
  store_.CollectOids(v, &oids);
  EXPECT_EQ(oids, (std::set<Oid>{Oid{1}, Oid{2}}));
}

TEST_F(ValueTest, CollectConstsTransitive) {
  Symbol a = syms_.Intern("A");
  ValueId v = store_.Tuple({{a, store_.Set({store_.Const("x")})}});
  std::set<Symbol> consts;
  store_.CollectConsts(v, &consts);
  ASSERT_EQ(consts.size(), 1u);
  EXPECT_EQ(syms_.name(*consts.begin()), "x");
}

TEST_F(ValueTest, RewriteOidsAppliesRenaming) {
  Symbol a = syms_.Intern("A");
  ValueId v = store_.Tuple({{a, store_.Set({store_.OfOid(Oid{1})})}});
  ValueId w =
      store_.RewriteOids(v, [](Oid o) { return Oid{o.raw + 100}; });
  std::set<Oid> oids;
  store_.CollectOids(w, &oids);
  EXPECT_EQ(oids, (std::set<Oid>{Oid{101}}));
}

TEST_F(ValueTest, RewriteOidsIdentityIsNoop) {
  Symbol a = syms_.Intern("A");
  ValueId v = store_.Tuple({{a, store_.OfOid(Oid{5})}});
  EXPECT_EQ(store_.RewriteOids(v, [](Oid o) { return o; }), v);
}

TEST_F(ValueTest, ToStringPaperNotation) {
  Symbol name = syms_.Intern("name");
  Symbol kids = syms_.Intern("children");
  ValueId v = store_.Tuple(
      {{name, store_.Const("Adam")},
       {kids, store_.Set({store_.OfOid(Oid{3})})}});
  // Attribute order is canonical (symbol interning order: name first here).
  EXPECT_EQ(store_.ToString(v), "[name: \"Adam\", children: {@3}]");
}

TEST_F(ValueTest, ManyValuesStayInterned) {
  // Insert a few thousand values and re-derive them; ids must agree.
  Symbol a = syms_.Intern("A");
  std::vector<ValueId> first;
  for (int i = 0; i < 3000; ++i) {
    first.push_back(store_.Tuple({{a, store_.ConstInt(i)}}));
  }
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(store_.Tuple({{a, store_.ConstInt(i)}}), first[i]);
  }
}

// -- IdHashTable / the intern table -----------------------------------------

// Every hash collides into one of three probe runs, so lookups and
// backward-shift erasure are exercised on long runs that wrap the table.
TEST(InternTableTest, IdHashTableFindsAndErasesUnderCollisions) {
  IdHashTable table;
  auto hash = [](ValueId id) { return uint64_t{id % 3} * 0x9e3779b9u; };
  std::set<ValueId> present;
  for (ValueId id = 0; id < 600; ++id) {
    table.Insert(hash(id), id);
    present.insert(id);
  }
  EXPECT_EQ(table.size(), 600u);
  EXPECT_GE(table.capacity(), 1200u);  // at most half full
  std::mt19937 rng(7);
  for (int round = 0; round < 3; ++round) {
    for (ValueId id = 0; id < 600; ++id) {
      if (rng() % 2 == 0) continue;
      EXPECT_EQ(table.Erase(hash(id), id), present.erase(id) > 0) << id;
    }
    EXPECT_EQ(table.size(), present.size());
    for (ValueId id = 0; id < 600; ++id) {
      ValueId found =
          table.Find(hash(id), [id](ValueId c) { return c == id; });
      EXPECT_EQ(found, present.count(id) ? id : kInvalidValue) << id;
    }
    for (ValueId id = 0; id < 600; id += 5) {
      if (present.insert(id).second) table.Insert(hash(id), id);
    }
  }
}

// ValueIdHashSet against std::set over a seeded random op sequence.
TEST(InternTableTest, ValueIdHashSetMatchesAReferenceSet) {
  ValueIdHashSet set;
  std::set<ValueId> ref;
  std::mt19937 rng(11);
  for (int i = 0; i < 20000; ++i) {
    ValueId v = rng() % 512;
    switch (rng() % 3) {
      case 0:
        EXPECT_EQ(set.insert(v), ref.insert(v).second);
        break;
      case 1:
        EXPECT_EQ(set.erase(v), ref.erase(v) > 0);
        break;
      default:
        EXPECT_EQ(set.contains(v), ref.count(v) > 0);
    }
  }
  EXPECT_EQ(set.size(), ref.size());
  for (ValueId v = 0; v < 512; ++v) {
    EXPECT_EQ(set.contains(v), ref.count(v) > 0);
  }
}

// Nested values built twice, through a store that grows (and so rehashes
// its intern table) many times in between: ids stay stable, dedup is exact
// and ids stay dense.
TEST(InternTableTest, GrowthKeepsIdsStableAndDedupExact) {
  SymbolTable syms;
  ValueStore store(&syms);
  Symbol a = syms.Intern("a");
  Symbol b = syms.Intern("b");
  auto build = [&](int i) {
    ValueId c = store.ConstInt(i);
    ValueId t = store.Tuple({{a, c}, {b, store.ConstInt(i % 17)}});
    return store.Set({t, c, store.OfOid(Oid{static_cast<uint64_t>(i % 5)})});
  };
  std::vector<ValueId> first;
  std::vector<size_t> size_after;
  for (int i = 0; i < 4000; ++i) {
    first.push_back(build(i));
    size_after.push_back(store.size());
  }
  size_t interned = store.size();
  for (int i = 0; i < 4000; ++i) {
    ASSERT_EQ(build(i), first[i]) << i;
    ASSERT_LT(first[i], size_after[i]) << i;
  }
  EXPECT_EQ(store.size(), interned);  // re-building interned nothing new
  // Every id names a distinct node: dedup is exact, never over-eager.
  std::set<std::string> rendered;
  for (ValueId id = 0; id < store.size(); ++id) {
    rendered.insert(std::to_string(static_cast<int>(store.node(id).kind)) +
                    store.ToString(id));
  }
  EXPECT_EQ(rendered.size(), store.size());
}

}  // namespace
}  // namespace iqlkit
