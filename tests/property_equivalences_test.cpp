// Property tests for the unnesting equivalences (paper Fig. 4, Appendix A).
//
// For every equivalence we construct the left- and right-hand plans exactly
// as stated (side conditions satisfied *by construction*), evaluate both on
// randomized relations — including empty inputs and values without join
// partners, the "count bug" scenario — and require identical sequences,
// order included. Parameterized over random seeds; each seed sweeps the
// comparison operators θ and aggregate functions f the paper allows.
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/printer.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq {
namespace {

using nal::AggSpec;
using nal::AlgebraPtr;
using nal::CmpOp;
using nal::Sequence;
using nal::Symbol;
using testutil::SeqEq;
using testutil::Table;

class EquivalenceProperty : public ::testing::TestWithParam<unsigned> {
 protected:
  EquivalenceProperty() : rnd_(GetParam()), eval_(store_) {}

  Sequence Eval(const AlgebraPtr& plan) { return eval_.Eval(*plan); }

  /// Aggregate specs valid for every equivalence (they never read the
  /// nested attribute, paper condition on f).
  std::vector<AggSpec> SafeAggs() {
    return {nal::AggCount(), nal::AggProjectItems(Symbol("b")),
            nal::AggOf(AggSpec::Kind::kMin, Symbol("b")),
            nal::AggOf(AggSpec::Kind::kSum, Symbol("b"))};
  }

  std::vector<CmpOp> AllThetas() {
    return {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
            CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  }

  size_t Rows(size_t base) {
    // Vary sizes with the seed; include empty relations.
    return (GetParam() + base) % 8;
  }

  xml::Store store_;
  testutil::RandomRelation rnd_;
  nal::Evaluator eval_;
};

// --- Eqv. 1: χ_{g:f(σ_{A1θA2}(e2))}(e1) = e1 Γ_{g;A1θA2;f} e2 -----------

TEST_P(EquivalenceProperty, Eqv1BinaryGrouping) {
  for (CmpOp theta : AllThetas()) {
    for (const AggSpec& f : SafeAggs()) {
      Sequence e1 = rnd_.Make({"a1", "x"}, Rows(3), 4);
      Sequence e2 = rnd_.Make({"a2", "b"}, Rows(5), 4);
      Symbol g("g");
      AlgebraPtr lhs = nal::Map(
          g,
          nal::MakeAgg(f.CloneSpec(),
                       nal::MakeNestedAlg(nal::Select(
                           nal::MakeCmp(theta, nal::MakeAttrRef(Symbol("a1")),
                                        nal::MakeAttrRef(Symbol("a2"))),
                           Table(e2)))),
          Table(e1));
      AlgebraPtr rhs =
          nal::GroupBinary(g, {Symbol("a1")}, theta, {Symbol("a2")},
                           f.CloneSpec(), Table(e1), Table(e2));
      EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)))
          << "theta=" << nal::CmpOpName(theta) << " f=" << f.DebugString();
    }
  }
}

// --- Eqv. 2: outer join with grouped inner ------------------------------

TEST_P(EquivalenceProperty, Eqv2OuterJoin) {
  for (const AggSpec& f : SafeAggs()) {
    Sequence e1 = rnd_.Make({"a1", "x"}, Rows(4), 3);
    Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
    Symbol g("g");
    AlgebraPtr lhs = nal::Map(
        g,
        nal::MakeAgg(f.CloneSpec(),
                     nal::MakeNestedAlg(nal::Select(
                         nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                      nal::MakeAttrRef(Symbol("a2"))),
                         Table(e2)))),
        Table(e1));
    AlgebraPtr grouped = nal::GroupUnary(g, CmpOp::kEq, {Symbol("a2")},
                                         f.CloneSpec(), Table(e2));
    AlgebraPtr rhs = nal::ProjectDrop(
        {Symbol("a2")},
        nal::OuterJoin(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                    nal::MakeAttrRef(Symbol("a2"))),
                       g, nal::MakeConst(eval_.AggEmptyValue(f)), Table(e1),
                       std::move(grouped)));
    EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs))) << "f=" << f.DebugString();
  }
}

// --- Eqv. 3: pure grouping under e1 = ΠD_{A1:A2}(Π_{A2}(e2)) -------------

TEST_P(EquivalenceProperty, Eqv3UnaryGrouping) {
  for (CmpOp theta : AllThetas()) {
    for (const AggSpec& f : SafeAggs()) {
      Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
      // e1 is by construction the renamed distinct projection of e2.
      auto e1_alg = [&]() {
        return nal::ProjectRename(
            {{Symbol("a1"), Symbol("a2")}},
            nal::ProjectDistinct({Symbol("a2")}, Table(e2)));
      };
      Symbol g("g");
      AlgebraPtr lhs = nal::Map(
          g,
          nal::MakeAgg(f.CloneSpec(),
                       nal::MakeNestedAlg(nal::Select(
                           nal::MakeCmp(theta, nal::MakeAttrRef(Symbol("a1")),
                                        nal::MakeAttrRef(Symbol("a2"))),
                           Table(e2)))),
          e1_alg());
      AlgebraPtr rhs = nal::ProjectRename(
          {{Symbol("a1"), Symbol("a2")}},
          nal::GroupUnary(g, theta, {Symbol("a2")}, f.CloneSpec(), Table(e2)));
      EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)))
          << "theta=" << nal::CmpOpName(theta) << " f=" << f.DebugString();
    }
  }
}

// --- Eqv. 4: membership (A1 ∈ a2) via outer join + μD --------------------

TEST_P(EquivalenceProperty, Eqv4OuterJoinNested) {
  for (const AggSpec& f : SafeAggs()) {
    Sequence e1 = rnd_.Make({"a1", "x"}, Rows(4), 3);
    Sequence e2 = rnd_.MakeWithNested({"b"}, "a2", Symbol("a2i"), Rows(6), 3,
                                      /*max_len=*/3);
    Symbol g("g");
    AlgebraPtr lhs = nal::Map(
        g,
        nal::MakeAgg(f.CloneSpec(),
                     nal::MakeNestedAlg(nal::Select(
                         nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                      nal::MakeAttrRef(Symbol("a2"))),
                         Table(e2)))),
        Table(e1));
    AlgebraPtr mu = nal::Unnest(Symbol("a2"), Table(e2), /*distinct=*/true,
                                /*outer=*/false);
    AlgebraPtr grouped = nal::GroupUnary(g, CmpOp::kEq, {Symbol("a2i")},
                                         f.CloneSpec(), std::move(mu));
    AlgebraPtr rhs = nal::ProjectDrop(
        {Symbol("a2i")},
        nal::OuterJoin(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                    nal::MakeAttrRef(Symbol("a2i"))),
                       g, nal::MakeConst(eval_.AggEmptyValue(f)), Table(e1),
                       std::move(grouped)));
    EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs))) << "f=" << f.DebugString();
  }
}

// --- Eqv. 5: membership with the distinct-source condition ---------------

TEST_P(EquivalenceProperty, Eqv5GroupingNested) {
  for (const AggSpec& f : SafeAggs()) {
    Sequence e2 = rnd_.MakeWithNested({"b"}, "a2", Symbol("a2i"), Rows(6), 3,
                                      /*max_len=*/3);
    // e1 = ΠD_{A1:A2}(Π_{A2}(μ_{a2}(e2))) — by construction.
    auto e1_alg = [&]() {
      return nal::ProjectRename(
          {{Symbol("a1"), Symbol("a2i")}},
          nal::ProjectDistinct({Symbol("a2i")},
                               nal::Unnest(Symbol("a2"), Table(e2),
                                           /*distinct=*/false,
                                           /*outer=*/false)));
    };
    Symbol g("g");
    AlgebraPtr lhs = nal::Map(
        g,
        nal::MakeAgg(f.CloneSpec(),
                     nal::MakeNestedAlg(nal::Select(
                         nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                      nal::MakeAttrRef(Symbol("a2"))),
                         Table(e2)))),
        e1_alg());
    AlgebraPtr mu = nal::Unnest(Symbol("a2"), Table(e2), /*distinct=*/true,
                                /*outer=*/false);
    AlgebraPtr rhs = nal::ProjectRename(
        {{Symbol("a1"), Symbol("a2i")}},
        nal::GroupUnary(g, CmpOp::kEq, {Symbol("a2i")}, f.CloneSpec(),
                        std::move(mu)));
    EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs))) << "f=" << f.DebugString();
  }
}

// --- Eqv. 6/7: quantifiers to semijoin / antijoin ------------------------

TEST_P(EquivalenceProperty, Eqv6Semijoin) {
  for (CmpOp theta_p : {CmpOp::kGt, CmpOp::kLe, CmpOp::kNe}) {
    Sequence e1 = rnd_.Make({"a1", "x"}, Rows(5), 3);
    Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
    Symbol var("q");
    // Range: Π_{a2}(σ_{a1=a2}(e2)); p: q θ 1.
    AlgebraPtr range = nal::ProjectKeep(
        {Symbol("a2")},
        nal::Select(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                 nal::MakeAttrRef(Symbol("a2"))),
                    Table(e2)));
    nal::ExprPtr p = nal::MakeCmp(theta_p, nal::MakeAttrRef(var),
                                  nal::MakeConst(testutil::I(1)));
    AlgebraPtr lhs = nal::Select(
        nal::MakeQuant(nal::QuantKind::kSome, var, range, p), Table(e1));
    nal::ExprPtr p_sub = nal::MakeCmp(theta_p, nal::MakeAttrRef(Symbol("a2")),
                                      nal::MakeConst(testutil::I(1)));
    AlgebraPtr rhs = nal::SemiJoin(
        nal::MakeAnd(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                  nal::MakeAttrRef(Symbol("a2"))),
                     p_sub),
        Table(e1), Table(e2));
    EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)))
        << "p theta=" << nal::CmpOpName(theta_p);
  }
}

TEST_P(EquivalenceProperty, Eqv7Antijoin) {
  for (CmpOp theta_p : {CmpOp::kGt, CmpOp::kLe, CmpOp::kNe}) {
    Sequence e1 = rnd_.Make({"a1", "x"}, Rows(5), 3);
    Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
    Symbol var("q");
    AlgebraPtr range = nal::ProjectKeep(
        {Symbol("a2")},
        nal::Select(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                 nal::MakeAttrRef(Symbol("a2"))),
                    Table(e2)));
    nal::ExprPtr p = nal::MakeCmp(theta_p, nal::MakeAttrRef(var),
                                  nal::MakeConst(testutil::I(1)));
    AlgebraPtr lhs = nal::Select(
        nal::MakeQuant(nal::QuantKind::kEvery, var, range, p), Table(e1));
    nal::ExprPtr not_p =
        nal::MakeCmp(nal::NegateCmp(theta_p), nal::MakeAttrRef(Symbol("a2")),
                     nal::MakeConst(testutil::I(1)));
    AlgebraPtr rhs = nal::AntiJoin(
        nal::MakeAnd(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                  nal::MakeAttrRef(Symbol("a2"))),
                     not_p),
        Table(e1), Table(e2));
    EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)))
        << "p theta=" << nal::CmpOpName(theta_p);
  }
}

// --- Eqv. 8/9: semi/antijoin to counting Γ -------------------------------

TEST_P(EquivalenceProperty, Eqv8Counting) {
  Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
  nal::ExprPtr p = nal::MakeCmp(CmpOp::kGt, nal::MakeAttrRef(Symbol("b")),
                                nal::MakeConst(testutil::I(0)));
  auto e1_alg = [&]() {
    return nal::ProjectRename(
        {{Symbol("a1"), Symbol("a2")}},
        nal::ProjectDistinct({Symbol("a2")}, Table(e2)));
  };
  AlgebraPtr lhs = nal::SemiJoin(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                   nal::MakeAttrRef(Symbol("a2"))),
      e1_alg(), nal::Select(p->Clone(), Table(e2)));
  AggSpec count = nal::AggCount();
  count.filter = p->Clone();
  AlgebraPtr rhs = nal::Select(
      nal::MakeCmp(CmpOp::kGt, nal::MakeAttrRef(Symbol("c")),
                   nal::MakeConst(testutil::I(0))),
      nal::ProjectRename(
          {{Symbol("a1"), Symbol("a2")}},
          nal::GroupUnary(Symbol("c"), CmpOp::kEq, {Symbol("a2")},
                          std::move(count), Table(e2))));
  // The RHS exposes the count attribute c; drop it for comparison.
  rhs = nal::ProjectDrop({Symbol("c")}, std::move(rhs));
  EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)));
}

TEST_P(EquivalenceProperty, Eqv9Counting) {
  Sequence e2 = rnd_.Make({"a2", "b"}, Rows(6), 3);
  nal::ExprPtr p = nal::MakeCmp(CmpOp::kGt, nal::MakeAttrRef(Symbol("b")),
                                nal::MakeConst(testutil::I(0)));
  auto e1_alg = [&]() {
    return nal::ProjectRename(
        {{Symbol("a1"), Symbol("a2")}},
        nal::ProjectDistinct({Symbol("a2")}, Table(e2)));
  };
  AlgebraPtr lhs = nal::AntiJoin(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                   nal::MakeAttrRef(Symbol("a2"))),
      e1_alg(), nal::Select(p->Clone(), Table(e2)));
  AggSpec count = nal::AggCount();
  count.filter = p->Clone();
  AlgebraPtr rhs = nal::Select(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("c")),
                   nal::MakeConst(testutil::I(0))),
      nal::ProjectRename(
          {{Symbol("a1"), Symbol("a2")}},
          nal::GroupUnary(Symbol("c"), CmpOp::kEq, {Symbol("a2")},
                          std::move(count), Table(e2))));
  rhs = nal::ProjectDrop({Symbol("c")}, std::move(rhs));
  EXPECT_TRUE(SeqEq(Eval(lhs), Eval(rhs)));
}

// --- The count bug (Klug 1982): values with no join partner --------------

TEST_P(EquivalenceProperty, CountBugEmptyGroupsSurvive) {
  // e1 has values that never occur in e2; the count for those must be 0 in
  // every unnested plan, and the rows must not vanish.
  Sequence e1;
  e1.Append(testutil::T({{"a1", testutil::S("present")}}));
  e1.Append(testutil::T({{"a1", testutil::S("missing")}}));
  Sequence e2 = rnd_.Make({"a2", "b"}, Rows(5), 2);
  e2.Append(testutil::T({{"a2", testutil::S("present")},
                         {"b", testutil::I(1)}}));
  AggSpec f = nal::AggCount();
  Symbol g("g");
  AlgebraPtr lhs = nal::Map(
      g,
      nal::MakeAgg(f.CloneSpec(),
                   nal::MakeNestedAlg(nal::Select(
                       nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                    nal::MakeAttrRef(Symbol("a2"))),
                       Table(e2)))),
      Table(e1));
  AlgebraPtr rhs = nal::ProjectDrop(
      {Symbol("a2")},
      nal::OuterJoin(nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("a1")),
                                  nal::MakeAttrRef(Symbol("a2"))),
                     g, nal::MakeConst(testutil::I(0)), Table(e1),
                     nal::GroupUnary(g, CmpOp::kEq, {Symbol("a2")},
                                     f.CloneSpec(), Table(e2))));
  Sequence l = Eval(lhs);
  Sequence r = Eval(rhs);
  EXPECT_TRUE(SeqEq(l, r));
  ASSERT_EQ(l.size(), 2u);  // both outer rows survive
  EXPECT_EQ(l[1].Get(g).AsInt(), 0);  // ... with count 0 for the missing one
}

// --- Hash keys vs general comparison over typed numbers ------------------

// x2 := decimal(...) is a typed number and p1 an untyped price node, so
// general = compares them numerically ("12.50" = 12.5). A hash key on the
// atomized values would see a double and a string and never match: joins
// must leave the conjunct to their nested-loop residual, and the nest-join
// must run its θ loop.
class TypedNumberKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(30));
  }

  /// Every alternative of `query`, on every executor and at budgets
  /// {0, 64 KB}, returns the nested plan's bytes; returns those bytes.
  std::string CheckAlternatives(const char* query, const char* rule) {
    engine::CompiledQuery q = engine_.Compile(query);
    EXPECT_NE(q.Find(rule), nullptr) << rule;
    std::string expected =
        engine_.Run(q.nested_plan, engine::ExecMode::kMaterializing).output;
    for (const rewrite::Alternative& alt : q.alternatives) {
      for (auto [mode, threads] :
           {std::pair{engine::ExecMode::kMaterializing, 1u},
            std::pair{engine::ExecMode::kStreaming, 1u},
            std::pair{engine::ExecMode::kParallel, 2u}}) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{64 * 1024}}) {
          EXPECT_EQ(engine_
                        .Run(alt.plan, mode, engine::PathMode::kIndexed,
                             threads, budget)
                        .output,
                    expected)
              << alt.rule << " threads=" << threads << " budget=" << budget;
        }
      }
    }
    return expected;
  }

  engine::Engine engine_;
};

TEST_F(TypedNumberKeyTest, SemijoinAgreesWithTheNestedPlan) {
  std::string expected = CheckAlternatives(R"(
    let $d1 := doc("prices.xml")
    for $p1 in $d1//book/price
    where some $c2 in (for $b2 in $d1//book
                       let $x2 := decimal($b2/price)
                       return $x2)
          satisfies $c2 = $p1
    return <x>{ $p1 }</x>)",
                                           "eqv6-semijoin");
  EXPECT_EQ(expected.size(), 810u);
}

TEST_F(TypedNumberKeyTest, NestJoinAndOuterJoinAgreeWithTheNestedPlan) {
  std::string expected = CheckAlternatives(R"(
    let $d1 := doc("prices.xml")
    for $p1 in $d1//book/price
    let $m := (for $b2 in $d1//book
               let $x2 := decimal($b2/price)
               where $x2 = $p1
               return $b2)
    return <x>{ count($m) }</x>)",
                                           "eqv1-nestjoin");
  // Every price equals at least its own book's decimal.
  EXPECT_EQ(expected.find("<x>0</x>"), std::string::npos) << expected;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceProperty,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace nalq
