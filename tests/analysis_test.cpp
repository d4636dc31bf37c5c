// Tests for the A(e)/F(e) analyses and the physical building blocks
// (keys, hash index, equi-predicate extraction).
#include <gtest/gtest.h>

#include "nal/analysis.h"
#include "nal/physical.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::S;
using testutil::T;
using testutil::Table;

Sequence TwoRows() {
  Sequence s;
  s.Append(T({{"a", I(1)}, {"b", S("x")}}));
  s.Append(T({{"a", I(2)}, {"b", S("y")}}));
  return s;
}

TEST(OutputAttrsTest, BasicOperators) {
  AlgebraPtr base = Table(TwoRows());
  EXPECT_TRUE(OutputAttrs(*base).Has(Symbol("a")));
  EXPECT_TRUE(OutputAttrs(*base).Has(Symbol("b")));

  AlgebraPtr map = Map(Symbol("c"), MakeConst(I(1)), base->Clone());
  EXPECT_TRUE(OutputAttrs(*map).Has(Symbol("c")));

  AlgebraPtr keep = ProjectKeep({Symbol("a")}, base->Clone());
  EXPECT_FALSE(OutputAttrs(*keep).Has(Symbol("b")));

  AlgebraPtr drop = ProjectDrop({Symbol("a")}, base->Clone());
  EXPECT_FALSE(OutputAttrs(*drop).Has(Symbol("a")));
  EXPECT_TRUE(OutputAttrs(*drop).Has(Symbol("b")));

  AlgebraPtr rename = ProjectRename({{Symbol("z"), Symbol("a")}},
                                    base->Clone());
  AttrInfo info = OutputAttrs(*rename);
  EXPECT_TRUE(info.Has(Symbol("z")));
  EXPECT_FALSE(info.Has(Symbol("a")));
  EXPECT_TRUE(info.Has(Symbol("b")));
}

TEST(OutputAttrsTest, JoinsAndGrouping) {
  Sequence left;
  left.Append(T({{"l", I(1)}}));
  Sequence right;
  right.Append(T({{"r", I(1)}}));
  AlgebraPtr join = Join(MakeConst(Value(true)), Table(left), Table(right));
  EXPECT_TRUE(OutputAttrs(*join).Has(Symbol("l")));
  EXPECT_TRUE(OutputAttrs(*join).Has(Symbol("r")));
  AlgebraPtr semi = SemiJoin(MakeConst(Value(true)), Table(left), Table(right));
  EXPECT_FALSE(OutputAttrs(*semi).Has(Symbol("r")));
  AlgebraPtr gamma = GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("r")},
                                AggId(), Table(right));
  AttrInfo info = OutputAttrs(*gamma);
  EXPECT_TRUE(info.Has(Symbol("g")));
  EXPECT_TRUE(info.Has(Symbol("r")));
  // f = id records the nested shape.
  ASSERT_TRUE(info.nested.count(Symbol("g")));
  EXPECT_TRUE(info.nested[Symbol("g")].count(Symbol("r")));
}

TEST(OutputAttrsTest, UnnestExpandsKnownNestedShape) {
  Sequence right;
  right.Append(T({{"r", I(1)}, {"s", I(2)}}));
  AlgebraPtr gamma = GroupUnary(Symbol("g"), CmpOp::kEq, {Symbol("r")},
                                AggId(), Table(right));
  AlgebraPtr mu = Unnest(Symbol("g"), gamma);
  AttrInfo info = OutputAttrs(*mu);
  EXPECT_FALSE(info.Has(Symbol("g")));
  EXPECT_TRUE(info.Has(Symbol("r")));
  EXPECT_TRUE(info.Has(Symbol("s")));
}

TEST(FreeVarsTest, DetectsOuterReferences) {
  // σ_{a1 = a2}(e2) where a1 is not produced below: free.
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("outer_x")),
              MakeAttrRef(Symbol("a"))),
      Table(TwoRows()));
  SymbolSet free = FreeVars(*plan);
  EXPECT_TRUE(free.count(Symbol("outer_x")));
  EXPECT_FALSE(free.count(Symbol("a")));
}

TEST(FreeVarsTest, NestedAlgebraContributesItsFreeVars) {
  AlgebraPtr inner = Select(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("k")), MakeAttrRef(Symbol("a"))),
      Table(TwoRows()));
  AlgebraPtr plan = Map(Symbol("g"), MakeNestedAlg(inner), Table(TwoRows()));
  // `k` is not bound anywhere: still free. `a` is bound by both levels.
  SymbolSet free = FreeVars(*plan);
  EXPECT_TRUE(free.count(Symbol("k")));
  EXPECT_FALSE(free.count(Symbol("a")));
}

TEST(FreeVarsTest, QuantifierBindsItsVariable) {
  AlgebraPtr range = Table(TwoRows());
  ExprPtr quant = MakeQuant(
      QuantKind::kSome, Symbol("q"), range,
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("q")),
              MakeAttrRef(Symbol("elsewhere"))));
  SymbolSet free = FreeVarsExpr(*quant, {});
  EXPECT_FALSE(free.count(Symbol("q")));
  EXPECT_TRUE(free.count(Symbol("elsewhere")));
}

TEST(SetHelpersTest, UnionMinusSubsetDisjoint) {
  SymbolSet a = {Symbol("x"), Symbol("y")};
  SymbolSet b = {Symbol("y"), Symbol("z")};
  EXPECT_EQ(Union(a, b).size(), 3u);
  EXPECT_EQ(Minus(a, b).size(), 1u);
  EXPECT_TRUE(Subset({Symbol("x")}, a));
  EXPECT_FALSE(Subset(a, b));
  EXPECT_FALSE(Disjoint(a, b));
  EXPECT_TRUE(Disjoint({Symbol("x")}, {Symbol("z")}));
}

TEST(MakeKeysTest, AtomicAndSequenceKeys) {
  xml::Store store;
  Tuple t = T({{"a", I(1)}, {"b", S("x")}});
  std::vector<Symbol> ab = {Symbol("a"), Symbol("b")};
  std::vector<Key> multi = MakeKeys(t, ab, store);
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0].values.size(), 2u);
  // Sequence-valued single attribute expands to one key per distinct item.
  Tuple seq_t;
  seq_t.Set(Symbol("s"), Value::FromItems({I(1), I(2), I(1)}));
  std::vector<Symbol> s = {Symbol("s")};
  std::vector<Key> keys = MakeKeys(seq_t, s, store);
  EXPECT_EQ(keys.size(), 2u);  // 1 deduplicated
}

TEST(HashIndexTest, BuildAndLookup) {
  xml::Store store;
  Sequence rows;
  rows.Append(T({{"k", I(1)}, {"v", I(10)}}));
  rows.Append(T({{"k", I(2)}, {"v", I(20)}}));
  rows.Append(T({{"k", I(1)}, {"v", I(30)}}));
  HashIndex index;
  std::vector<Symbol> k = {Symbol("k")};
  index.Build(rows, k, store);
  Tuple probe = T({{"k", I(1)}});
  std::vector<uint32_t> hits = index.Lookup(probe, k, store);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);  // input order preserved inside buckets
  EXPECT_EQ(hits[1], 2u);
  Tuple miss = T({{"k", I(9)}});
  EXPECT_TRUE(index.Lookup(miss, k, store).empty());
  // Probing with a sequence value unions the buckets in input order.
  Tuple seq_probe;
  seq_probe.Set(Symbol("k"), Value::FromItems({I(2), I(1)}));
  std::vector<uint32_t> all = index.Lookup(seq_probe, k, store);
  EXPECT_EQ(all, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(ExtractEquiPredicateTest, SplitsConjuncts) {
  SymbolSet left = {Symbol("l1"), Symbol("l2")};
  SymbolSet right = {Symbol("r1"), Symbol("r2")};
  ExprPtr pred = MakeAnd(
      MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("l1")), MakeAttrRef(Symbol("r1"))),
      MakeAnd(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("r2")),
                      MakeAttrRef(Symbol("l2"))),  // reversed orientation
              MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("l1")),
                      MakeAttrRef(Symbol("r2")))));
  auto equi = ExtractEquiPredicate(pred, left, right);
  ASSERT_TRUE(equi.has_value());
  ASSERT_EQ(equi->left_attrs.size(), 2u);
  EXPECT_EQ(equi->left_attrs[0], Symbol("l1"));
  EXPECT_EQ(equi->right_attrs[0], Symbol("r1"));
  EXPECT_EQ(equi->left_attrs[1], Symbol("l2"));
  EXPECT_EQ(equi->right_attrs[1], Symbol("r2"));
  ASSERT_NE(equi->residual, nullptr);
  EXPECT_EQ(equi->residual->kind, ExprKind::kCmp);
}

TEST(ExtractEquiPredicateTest, NoEquiConjunctMeansNullopt) {
  SymbolSet left = {Symbol("l")};
  SymbolSet right = {Symbol("r")};
  ExprPtr pred = MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("l")),
                         MakeAttrRef(Symbol("r")));
  EXPECT_FALSE(ExtractEquiPredicate(pred, left, right).has_value());
  // Equality between two left attributes does not qualify either.
  ExprPtr same_side = MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("l")),
                              MakeAttrRef(Symbol("l")));
  EXPECT_FALSE(ExtractEquiPredicate(same_side, left, right).has_value());
}

TEST(ExtractEquiPredicateTest, TypedNumbersStayInTheResidual) {
  SymbolSet left = {Symbol("l1"), Symbol("l2")};
  SymbolSet right = {Symbol("r1"), Symbol("r2")};
  ExprPtr typed = MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("l1")),
                          MakeAttrRef(Symbol("r1")));
  ExprPtr pred = MakeAnd(typed, MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("l2")),
                                        MakeAttrRef(Symbol("r2"))));
  auto equi = ExtractEquiPredicate(pred, left, right, {Symbol("r1")});
  ASSERT_TRUE(equi.has_value());
  EXPECT_EQ(equi->left_attrs, std::vector<Symbol>{Symbol("l2")});
  EXPECT_EQ(equi->residual, typed);
  EXPECT_FALSE(ExtractEquiPredicate(typed, left, right, {Symbol("l1")}));
}

TEST(TypedNumberAttrsTest, FollowsNumericBindings) {
  ExprPtr doc = MakeFnCall("doc", {MakeConst(Value("bib.xml"))});
  AlgebraPtr books = UnnestMap(
      Symbol("b"), MakePath(doc, xml::Path::Parse("//book")), Singleton());
  AlgebraPtr plan = Map(
      Symbol("x"),
      MakeFnCall("decimal", {MakePath(MakeAttrRef(Symbol("b")),
                                      xml::Path::Parse("price"))}),
      books);
  plan = Map(Symbol("y"), MakeAttrRef(Symbol("x")), plan);
  plan = Map(Symbol("s"),
             MakeArith(ArithOp::kAdd, MakeConst(I(1)), MakeConst(I(2))), plan);
  plan = Map(Symbol("t"), MakeFnCall("string", {MakeAttrRef(Symbol("x"))}),
             plan);
  plan = ProjectRename({{Symbol("z"), Symbol("y")}}, plan);
  plan = GroupUnary(Symbol("n"), CmpOp::kEq, {Symbol("t")}, AggCount(), plan);
  SymbolSet typed = TypedNumberAttrs(*plan);
  for (const char* a : {"x", "y", "z", "s", "n"}) {
    EXPECT_EQ(typed.count(Symbol(a)), 1u) << a;
  }
  for (const char* a : {"b", "t"}) EXPECT_EQ(typed.count(Symbol(a)), 0u) << a;
  // Subscript algebra counts too: a group over typed numbers is typed.
  AlgebraPtr outer = Map(Symbol("g"), MakeNestedAlg(plan), books->Clone());
  EXPECT_EQ(TypedNumberAttrs(*outer).count(Symbol("g")), 1u);
  AlgebraPtr paths = Map(Symbol("g"), MakeNestedAlg(books->Clone()),
                         books->Clone());
  EXPECT_TRUE(TypedNumberAttrs(*paths).empty());
}

}  // namespace
}  // namespace nalq::nal
