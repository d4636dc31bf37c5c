// Differential suite for keyed probes: a correlated σ over a CSE entry whose
// predicate has an `entry_attr = outer_attr` conjunct looks the outer value
// up in a hash index over the entry (rewrite/invariants.h,
// CseTable::Index in nal/spool.h) and evaluates the full predicate on the
// candidates only. Output bytes must equal the definitional reference
// evaluator on the unmarked translation, and equal the same plan with its
// probes removed; EvalStats must be identical across the materializing,
// streaming and parallel executors (dop 1/2/4) and budgets {0, 64 KB,
// 1 MB}, and differ from the scan in predicate_evals only. Hand-built
// shapes cover multi-valued and duplicate keys, an empty entry, Null and
// empty outer values, a residual conjunct the candidates must still pass,
// typed numbers (left unkeyed statically, or caught at run time) and θ
// correlations (never keyed); budgeted runs cover a spilled entry and an
// index that does not fit; a deadline trips inside probes that find
// nothing.
#include <gtest/gtest.h>

#include <chrono>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "nal/printer.h"
#include "plan_runs.h"
#include "rewrite/invariants.h"
#include "test_util.h"
#include "xquery/translate.h"

namespace nalq {
namespace {

using nal::AlgebraOp;
using nal::AlgebraPtr;
using nal::CmpOp;
using nal::ExprPtr;
using nal::Sequence;
using nal::Symbol;
using nal::Value;
using testutil::CheckEverywhere;
using testutil::Exec;
using testutil::Outcome;
using testutil::ReferenceOutput;
using testutil::RunPlan;
using testutil::S;
using testutil::StatsEq;
using testutil::T;
using testutil::Table;

/// Calls `fn` on every operator of `op`, subscript algebra included.
template <typename Fn>
void ForEachOp(AlgebraOp& op, Fn&& fn) {
  fn(op);
  auto visit_expr = [&](const auto& self, const nal::Expr& e) -> void {
    if (e.alg != nullptr) ForEachOp(*e.alg, fn);
    for (const ExprPtr& c : e.children) self(self, *c);
  };
  nal::ForEachSubscript(
      op, [&](const nal::Expr& e) { visit_expr(visit_expr, e); });
  for (const AlgebraPtr& c : op.children) ForEachOp(*c, fn);
}

int CountProbes(const AlgebraPtr& plan) {
  int n = 0;
  ForEachOp(*plan, [&](const AlgebraOp& op) { n += op.probe.active(); });
  return n;
}

/// A clone of `plan` with every keyed probe removed: the scan it replaces.
AlgebraPtr WithoutProbes(const AlgebraPtr& plan) {
  AlgebraPtr copy = plan->Clone();
  ForEachOp(*copy, [](AlgebraOp& op) { op.probe = {}; });
  return copy;
}

/// The keyed plan agrees with its scan twin: same bytes, same counters
/// except predicate_evals, which must not grow. Returns the keyed run.
Outcome CheckAgainstScan(const xml::Store& store, const AlgebraPtr& plan) {
  Outcome keyed = RunPlan(store, plan, Exec::kStreaming);
  Outcome scan = RunPlan(store, WithoutProbes(plan), Exec::kStreaming);
  EXPECT_EQ(keyed.output, scan.output);
  EXPECT_EQ(keyed.stats.nested_alg_evals, scan.stats.nested_alg_evals);
  EXPECT_EQ(keyed.stats.doc_scans, scan.stats.doc_scans);
  EXPECT_EQ(keyed.stats.tuples_produced, scan.stats.tuples_produced);
  EXPECT_EQ(keyed.stats.xpath.nodes_visited, scan.stats.xpath.nodes_visited);
  EXPECT_LE(keyed.stats.predicate_evals, scan.stats.predicate_evals);
  return keyed;
}

ExprPtr Ref(const char* a) { return nal::MakeAttrRef(Symbol(a)); }

ExprPtr Eq(const char* a, const char* b) {
  return nal::MakeCmp(CmpOp::kEq, Ref(a), Ref(b));
}

ExprPtr Doc(const char* name) {
  return nal::MakeFnCall("doc", {nal::MakeConst(Value(name))});
}

/// Ξ["<r>"; i; "|"; g; "</r>"](χ_{g: σ_pred(entry)}(outer)): every outer
/// tuple renders the entry tuples its σ keeps, in order. The pass runs
/// over the plan, so a path-bound `entry` is marked and the σ keyed where
/// the pass allows.
AlgebraPtr Correlated(AlgebraPtr entry, ExprPtr pred, AlgebraPtr outer) {
  nal::XiProgram s1 = {nal::XiCommand::Literal("<r>"),
                       nal::XiCommand::Var(Symbol("i")),
                       nal::XiCommand::Literal("|"),
                       nal::XiCommand::Var(Symbol("g")),
                       nal::XiCommand::Literal("</r>")};
  return nal::XiSimple(
      s1, nal::Map(Symbol("g"),
                   nal::MakeNestedAlg(nal::Select(std::move(pred),
                                                  std::move(entry))),
                   std::move(outer)));
}

/// A literal entry marked as CSE node 0, as the pass marks a path scan.
AlgebraPtr MarkedTable(Sequence rows) {
  AlgebraPtr t = Table(std::move(rows));
  t->cse_id = 0;
  return t;
}

/// Outer rows (i, A) with the given A values, i numbering them.
AlgebraPtr Outer(std::vector<Value> values) {
  Sequence rows;
  for (size_t i = 0; i < values.size(); ++i) {
    rows.Append(T({{"i", testutil::I(static_cast<int64_t>(i))},
                   {"A", values[i]}}));
  }
  return Table(std::move(rows));
}

Value Items(std::vector<Value> items) {
  return Value::FromItems(std::move(items));
}

/// Runs the shape through the pass and the whole contract; returns the
/// marked plan.
AlgebraPtr CheckShape(const xml::Store& store, const AlgebraPtr& original,
                      bool expect_probe) {
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(original);
  EXPECT_EQ(CountProbes(plan), expect_probe ? 1 : 0) << nal::PrintPlan(*plan);
  std::string reference = ReferenceOutput(store, original);
  CheckEverywhere(store, plan, reference);
  EXPECT_EQ(CheckAgainstScan(store, plan).output, reference);
  return plan;
}

class KeyedProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    size_t n = 30;
    datagen::BibOptions bib;
    bib.books = n;
    bib.authors_per_book = 2;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("reviews.xml", datagen::GenerateReviews(n));
    engine_.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(n));
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
    datagen::DblpOptions dblp;
    dblp.publications = 60;
    engine_.AddDocument("dblp.xml", datagen::GenerateDblp(dblp));
    engine_.RegisterDtd("dblp.xml", datagen::kDblpDtd);
  }

  const xml::Store& store() const { return engine_.store(); }

  /// The nested plan of `query` keys `probes` σs, matches the reference
  /// on the unmarked translation everywhere, and matches its scan twin
  /// with fewer predicate evaluations.
  void CheckNestedQuery(const std::string& query, int probes) {
    engine::CompiledQuery q =
        engine_.Compile(query, engine::PlanChoice::kManual);
    ASSERT_EQ(q.best.plan, q.nested_plan);
    EXPECT_EQ(CountProbes(q.nested_plan), probes)
        << nal::PrintPlan(*q.nested_plan);
    AlgebraPtr original = xquery::Translate(q.normalized, &engine_.dtds());
    ASSERT_LT(testutil::MaxMark(*original), 0);
    std::string reference = ReferenceOutput(store(), original);
    ASSERT_FALSE(reference.empty());
    CheckEverywhere(store(), q.nested_plan, reference);
    Outcome keyed = CheckAgainstScan(store(), q.nested_plan);
    EXPECT_EQ(keyed.output, reference);
    if (probes > 0) {
      Outcome scan =
          RunPlan(store(), WithoutProbes(q.nested_plan), Exec::kStreaming);
      EXPECT_LT(keyed.stats.predicate_evals, scan.stats.predicate_evals);
    }
  }

  engine::Engine engine_;
};

TEST_F(KeyedProbeTest, Q1MultiValuedAuthors) {
  CheckNestedQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author>
        <name>{ $a1 }</name>
        {
          let $d2 := doc("bib.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title
        }
      </author>)",
                   1);
}

TEST_F(KeyedProbeTest, Q2KeyNextToATypedNumber) {
  // c2 := decimal(p2) is typed, but the key t1 = t2 is path-bound.
  CheckNestedQuery(R"(
    let $d1 := doc("prices.xml")
    for $t1 in distinct-values($d1//book/title)
    let $p1 := let $d2 := doc("prices.xml")
               for $b2 in $d2//book
               let $t2 := $b2/title
               let $p2 := $b2/price
               let $c2 := decimal($p2)
               where $t1 = $t2
               return $c2
    return
      <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>)",
                   1);
}

TEST_F(KeyedProbeTest, Q3Exists) {
  CheckNestedQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>)",
                   1);
}

TEST_F(KeyedProbeTest, Q4NodeKeys) {
  CheckNestedQuery(R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return <book>{ $a1 }</book>)",
                   1);
}

TEST_F(KeyedProbeTest, Q5Universal) {
  CheckNestedQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return <new-author>{ $a1 }</new-author>)",
                   1);
}

TEST_F(KeyedProbeTest, Q6Having) {
  CheckNestedQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return <popular-item>{ $i1 }</popular-item>)",
                   1);
}

TEST_F(KeyedProbeTest, E1bDblpAuthorsWithoutBooks) {
  CheckNestedQuery(R"(
    let $d1 := doc("dblp.xml")
    for $a1 in distinct-values($d1//author)
    return
      <author>
        <name>{ $a1 }</name>
        {
          let $d2 := doc("dblp.xml")
          for $b2 in $d2//book[$a1 = author]
          return $b2/title
        }
      </author>)",
                   1);
}

TEST_F(KeyedProbeTest, MultiValuedEntryAndProbeKeys) {
  // au holds a book's two authors as one item sequence, so a book is filed
  // under both; outer values repeat, miss, and carry several items.
  AlgebraPtr entry = nal::Map(
      Symbol("au"), nal::MakePath(Ref("b"), xml::Path::Parse("author")),
      nal::UnnestMap(Symbol("b"),
                     nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//book")),
                     nal::Singleton()));
  std::vector<Value> outer;
  for (const char* name : {"Last1First1", "Last2First2", "Last1First1",
                           "nobody", "Last7First7"}) {
    outer.push_back(Value(name));
  }
  outer.push_back(Items({Value("Last3First3"), Value("Last1First1")}));
  outer.push_back(Items({Value("Last3First3"), Value("Last3First3")}));
  AlgebraPtr plan = CheckShape(
      store(), Correlated(entry, Eq("au", "A"), Outer(outer)), true);
  EXPECT_EQ(plan->child(0)->expr->alg->child(0)->cse_id, 0);
}

TEST_F(KeyedProbeTest, DuplicateKeysNullAndEmptyProbes) {
  Sequence rows;
  const char* keys[] = {"x", "y", "x", "z", "x", "y"};
  for (int p = 0; p < 6; ++p) {
    rows.Append(T({{"p", testutil::I(p)}, {"k", S(keys[p])}}));
  }
  rows.Append(T({{"p", testutil::I(6)}, {"k", Value::Null()}}));
  rows.Append(T({{"p", testutil::I(7)}, {"k", Items({S("z"), S("x")})}}));
  std::vector<Value> outer = {S("x"), S("y"), S("w"), Value::Null(),
                              Items({}), Items({S("z"), S("y")}), S("x")};
  CheckShape(store(), Correlated(MarkedTable(rows), Eq("k", "A"), Outer(outer)),
             true);
}

TEST_F(KeyedProbeTest, CandidatesStillPassTheFullPredicate) {
  // p = 2 shares the key "x" but fails the second conjunct.
  Sequence rows;
  const char* keys[] = {"x", "y", "x", "x"};
  for (int p = 0; p < 4; ++p) {
    rows.Append(T({{"p", testutil::I(p)}, {"k", S(keys[p])}}));
  }
  ExprPtr pred = nal::MakeAnd(
      nal::MakeCmp(CmpOp::kNe, Ref("p"), nal::MakeConst(testutil::I(2))),
      Eq("A", "k"));
  AlgebraPtr plan = CheckShape(
      store(), Correlated(MarkedTable(rows), pred, Outer({S("x"), S("y")})),
      true);
  EXPECT_EQ(RunPlan(store(), plan, Exec::kMaterializing).output,
            "<r>0|0x3x</r><r>1|1y</r>");
}

TEST_F(KeyedProbeTest, EmptyEntry) {
  AlgebraPtr nothing = nal::UnnestMap(
      Symbol("k"), nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//nothing")),
      nal::Singleton());
  CheckShape(store(), Correlated(nothing, Eq("k", "A"), Outer({S("x"), S("")})),
             true);
}

TEST_F(KeyedProbeTest, TypedNumberCorrelationStaysAScan) {
  // decimal() types x, so general = compares it with the untyped price
  // nodes numerically ("12.50" = 12.5): no hash key, no probe.
  AlgebraPtr entry = nal::Map(
      Symbol("x"),
      nal::MakeFnCall("decimal",
                      {nal::MakePath(Ref("b"), xml::Path::Parse("price"))}),
      nal::UnnestMap(Symbol("b"),
                     nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//book")),
                     nal::Singleton()));
  AlgebraPtr outer = nal::Map(
      Symbol("i"), Ref("A"),
      nal::UnnestMap(
          Symbol("A"),
          nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//book/price")),
          nal::Singleton()));
  AlgebraPtr plan =
      CheckShape(store(), Correlated(entry, Eq("x", "A"), outer), false);
  Outcome run = RunPlan(store(), plan, Exec::kStreaming);
  EXPECT_EQ(run.stats.predicate_evals, 30u * 30u) << "not a full scan";
  EXPECT_NE(run.output.find("|<book"), std::string::npos)
      << "no price matched its own decimal";
}

TEST_F(KeyedProbeTest, TypedNumbersSeenAtRunTimeScan) {
  // Literal relations are typed by their author, so the pass keys these σs;
  // the index sees the typed numbers and every probe falls back to all
  // positions, which keeps 12 = "12" and "3" = 3.0 true.
  Sequence numbers;
  numbers.Append(T({{"p", testutil::I(0)}, {"k", testutil::I(12)}}));
  numbers.Append(T({{"p", testutil::I(1)}, {"k", S("12")}}));
  CheckShape(store(),
             Correlated(MarkedTable(numbers), Eq("k", "A"),
                        Outer({S("12"), S("12.0"), S("x")})),
             true);
  Sequence strings;
  strings.Append(T({{"p", testutil::I(0)}, {"k", S("3")}}));
  strings.Append(T({{"p", testutil::I(1)}, {"k", S("4")}}));
  CheckShape(store(),
             Correlated(MarkedTable(strings), Eq("k", "A"),
                        Outer({testutil::D(3.0), S("4"), Items({})})),
             true);
}

TEST_F(KeyedProbeTest, ThetaCorrelationIsNeverKeyed) {
  Sequence rows;
  for (const char* k : {"a", "c", "e"}) rows.Append(T({{"k", S(k)}}));
  CheckShape(store(),
             Correlated(MarkedTable(rows),
                        nal::MakeCmp(CmpOp::kLt, Ref("k"), Ref("A")),
                        Outer({S("b"), S("d"), S("f")})),
             false);
}

/// 400 books × 3 authors: the keyed author scan (~1200 tuples) exceeds a
/// 64 KB budget.
class KeyedProbeBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::BibOptions bib;
    bib.books = 400;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
  }

  AlgebraPtr Plan() {
    AlgebraPtr entry = nal::UnnestMap(
        Symbol("x"),
        nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//book/author")),
        nal::Singleton());
    AlgebraPtr original = Correlated(
        entry, Eq("x", "A"),
        Outer({S("Last1First1"), S("nobody"), S("Last30First30"),
               S("Last1First1")}));
    AlgebraPtr plan = rewrite::ShareInvariantSubscripts(original);
    EXPECT_EQ(CountProbes(plan), 1);
    reference_ = ReferenceOutput(engine_.store(), original);
    return plan;
  }

  engine::Engine engine_;
  std::string reference_;
};

TEST_F(KeyedProbeBudgetTest, SpilledEntryKeepsItsIndexAndEveryCounter) {
  AlgebraPtr plan = Plan();
  const xml::Store& store = engine_.store();
  Outcome base = CheckEverywhere(store, plan, reference_);
  EXPECT_EQ(base.stats.doc_scans, 1u);
  Outcome unlimited = RunPlan(store, plan, Exec::kStreaming);
  EXPECT_EQ(unlimited.stats.spill.spill_runs, 0u);
  Outcome tight = RunPlan(store, plan, Exec::kStreaming, 1, 64 * 1024);
  EXPECT_GT(tight.stats.spill.spill_runs, 0u) << "the entry did not spill";
  EXPECT_TRUE(StatsEq(unlimited.stats, tight.stats));
  EXPECT_EQ(tight.output, reference_);
  EXPECT_EQ(tight.budget_left, 0u) << "the entry or its index kept a charge";
  Outcome tight_parallel =
      RunPlan(store, plan, Exec::kParallel, 4, 64 * 1024);
  EXPECT_GT(tight_parallel.stats.spill.spill_runs, 0u);
  EXPECT_TRUE(StatsEq(unlimited.stats, tight_parallel.stats));
  EXPECT_EQ(tight_parallel.output, reference_);
}

TEST_F(KeyedProbeBudgetTest, IndexThatDoesNotFitGivesTheSameCandidates) {
  // 8 KB holds neither the entry nor its ~1200 (hash, position) pairs:
  // probes hash a replay of the spilled entry instead.
  AlgebraPtr plan = Plan();
  const xml::Store& store = engine_.store();
  Outcome unlimited = RunPlan(store, plan, Exec::kStreaming);
  for (uint64_t budget : {uint64_t{8 * 1024}, uint64_t{1}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Outcome tiny = RunPlan(store, plan, Exec::kStreaming, 1, budget);
    EXPECT_EQ(tiny.output, reference_);
    EXPECT_TRUE(StatsEq(unlimited.stats, tiny.stats));
    EXPECT_EQ(tiny.budget_left, 0u);
    Outcome tiny_parallel = RunPlan(store, plan, Exec::kParallel, 2, budget);
    EXPECT_EQ(tiny_parallel.output, reference_);
    EXPECT_TRUE(StatsEq(unlimited.stats, tiny_parallel.stats));
  }
}

TEST(KeyedProbeDeadlineTest, DeadlineTripsWhileProbesFindNothing) {
  // 4000 × 4000 outer tuples, each probing the title index with an author
  // name that never matches: seconds of work, cut at 50 ms.
  engine::Engine engine;
  datagen::BibOptions bib;
  bib.books = 2000;
  bib.authors_per_book = 2;
  engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  auto authors = [](const char* attr, AlgebraPtr input) {
    return nal::UnnestMap(
        Symbol(attr),
        nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//author")),
        std::move(input));
  };
  AlgebraPtr titles = nal::UnnestMap(
      Symbol("t"),
      nal::MakePath(Doc("bib.xml"), xml::Path::Parse("//book/title")),
      nal::Singleton());
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(nal::XiSimple(
      {nal::XiCommand::Var(Symbol("a"))},
      nal::Select(nal::MakeQuant(nal::QuantKind::kSome, Symbol("x"),
                                 nal::Select(Eq("t", "a"), titles),
                                 nal::MakeConst(Value(true))),
                  authors("b", authors("a", nal::Singleton())))));
  ASSERT_EQ(CountProbes(plan), 1);
  for (auto [mode, threads] :
       {std::pair{engine::ExecMode::kStreaming, 1u},
        std::pair{engine::ExecMode::kParallel, 2u}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto start = std::chrono::steady_clock::now();
    try {
      engine.Run(plan, mode, engine::PathMode::kIndexed, threads, 0,
                 /*deadline_ms=*/50);
      ADD_FAILURE() << "the run finished before its deadline";
    } catch (const engine::Error& e) {
      EXPECT_EQ(e.code(), engine::ErrorCode::kDeadlineExceeded);
    }
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_LT(seconds, 3.0) << "the deadline tripped late";
  }
}

}  // namespace
}  // namespace nalq
