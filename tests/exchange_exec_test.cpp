// Differential suite for the parallel partitioned executor
// (src/nal/exchange.h): at every worker count, chunk size and partition
// strategy, a parallel run must produce the byte-identical Ξ output, the
// identical root tuple sequence and the identical merged EvalStats of the
// serial streaming executor — on operator pipelines over random relations,
// on randomized plan × document × thread-count sweeps, and on every plan
// alternative of the paper's Q1–Q6. Plus partition-point analysis checks
// and exchange edge cases (empty producers, more workers than tuples,
// nested Ξ under a would-be partition boundary).
#include <gtest/gtest.h>

#include <thread>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/exchange.h"
#include "nal/printer.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::S;
using testutil::SeqEq;
using testutil::Table;

unsigned Hardware() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Worker counts the acceptance criteria name: {1, 2, 4, hw}, deduplicated.
std::vector<unsigned> ThreadSweep() {
  std::vector<unsigned> sweep = {1, 2, 4};
  unsigned hw = Hardware();
  if (hw != 1 && hw != 2 && hw != 4) sweep.push_back(hw);
  return sweep;
}

::testing::AssertionResult StatsEq(const EvalStats& expected,
                                   const EvalStats& actual) {
  if (expected.nested_alg_evals == actual.nested_alg_evals &&
      expected.doc_scans == actual.doc_scans &&
      expected.tuples_produced == actual.tuples_produced &&
      expected.predicate_evals == actual.predicate_evals &&
      expected.xpath.steps_evaluated == actual.xpath.steps_evaluated &&
      expected.xpath.nodes_visited == actual.xpath.nodes_visited &&
      expected.xpath.index_lookups == actual.xpath.index_lookups &&
      expected.xpath.index_hits == actual.xpath.index_hits &&
      expected.xpath.index_nodes_skipped ==
          actual.xpath.index_nodes_skipped) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "EvalStats differ:\n  nested_alg_evals "
         << expected.nested_alg_evals << " vs " << actual.nested_alg_evals
         << "\n  doc_scans " << expected.doc_scans << " vs "
         << actual.doc_scans << "\n  tuples_produced "
         << expected.tuples_produced << " vs " << actual.tuples_produced
         << "\n  predicate_evals " << expected.predicate_evals << " vs "
         << actual.predicate_evals << "\n  xpath.steps "
         << expected.xpath.steps_evaluated << " vs "
         << actual.xpath.steps_evaluated << "\n  xpath.nodes "
         << expected.xpath.nodes_visited << " vs "
         << actual.xpath.nodes_visited << "\n  xpath.index_lookups "
         << expected.xpath.index_lookups << " vs "
         << actual.xpath.index_lookups;
}

/// Runs `plan` serially (streaming) and in parallel with `options`, and
/// asserts identical tuple sequence, Ξ output and merged EvalStats.
void ExpectParallelAgrees(const xml::Store& store, const AlgebraPtr& plan,
                          const ParallelOptions& options) {
  Evaluator streaming(store);
  Sequence expected = ExecuteStreaming(streaming, *plan);

  Evaluator parallel(store);
  Sequence actual = ExecuteParallel(parallel, *plan, options);

  EXPECT_TRUE(SeqEq(expected, actual));
  EXPECT_EQ(streaming.output(), parallel.output());
  EXPECT_TRUE(StatsEq(streaming.stats(), parallel.stats()));
}

void ExpectParallelAgreesAllConfigs(const xml::Store& store,
                                    const AlgebraPtr& plan) {
  for (unsigned threads : ThreadSweep()) {
    for (PartitionStrategy strategy :
         {PartitionStrategy::kRoundRobin, PartitionStrategy::kRange}) {
      for (uint32_t chunk : {1u, 3u, 64u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " strategy=" +
                     (strategy == PartitionStrategy::kRange ? "range"
                                                            : "round-robin") +
                     " chunk=" + std::to_string(chunk));
        ParallelOptions options;
        options.threads = threads;
        options.strategy = strategy;
        options.chunk_tuples = chunk;
        ExpectParallelAgrees(store, plan, options);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partition-point analysis
// ---------------------------------------------------------------------------

TEST(PartitionPointTest, PipelineOverUnnestSplitsAboveTheExpander) {
  testutil::RandomRelation rng(1);
  Sequence rows = rng.MakeWithNested({"A"}, "G", Symbol("V"), 16, 3, 3);
  // σ(χ(μ_G(table))) — table itself is μ(χ(□)).
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Map(Symbol("M"), MakeConst(S("x")),
          Unnest(Symbol("G"), Table(std::move(rows)))));
  std::optional<PartitionPoint> point = FindPartitionPoint(*plan);
  ASSERT_TRUE(point.has_value());
  // The producer must be expander-rooted so chunks carry real cardinality.
  EXPECT_TRUE(point->source->kind == OpKind::kUnnest ||
              point->source->kind == OpKind::kUnnestMap);
  EXPECT_FALSE(point->segment.empty());
  EXPECT_EQ(point->segment.front(), point->top);
  for (const AlgebraOp* op : point->segment) {
    EXPECT_TRUE(IsPartitionableOp(*op));
  }
}

TEST(PartitionPointTest, XiIsNeverInsideTheSegment) {
  testutil::RandomRelation rng(2);
  Sequence rows = rng.Make({"A"}, 12, 3);
  XiProgram s1;
  s1.push_back(XiCommand::Var(Symbol("A")));
  AlgebraPtr plan =
      XiSimple(std::move(s1),
               Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")),
                              MakeConst(I(0))),
                      Table(std::move(rows))));
  std::optional<PartitionPoint> point = FindPartitionPoint(*plan);
  ASSERT_TRUE(point.has_value());
  for (const AlgebraOp* op : point->segment) {
    EXPECT_NE(op->kind, OpKind::kXiSimple);
    EXPECT_NE(op->kind, OpKind::kXiGroup);
  }
}

TEST(PartitionPointTest, NoPartitionableRunMeansNoPoint) {
  // Γ directly over the table leaves nothing per-tuple above an expander.
  testutil::RandomRelation rng(3);
  Sequence rows = rng.Make({"A", "B"}, 12, 3);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("B");
  AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                               std::move(agg), Table(std::move(rows)));
  EXPECT_FALSE(FindPartitionPoint(*plan).has_value());
}

TEST(PartitionPointTest, SubscriptXiAndDistinctAreNotPartitionable) {
  testutil::RandomRelation rng(4);
  XiProgram s1;
  s1.push_back(XiCommand::Literal("x"));
  AlgebraPtr inner = XiSimple(std::move(s1), Table(rng.Make({"X"}, 4, 2)));
  AlgebraPtr with_xi = Map(Symbol("M"), MakeNestedAlg(std::move(inner)),
                           Table(rng.Make({"A"}, 8, 2)));
  EXPECT_FALSE(IsPartitionableOp(*with_xi));

  AlgebraPtr distinct =
      ProjectDistinct({Symbol("A")}, Table(rng.Make({"A"}, 8, 2)));
  EXPECT_FALSE(IsPartitionableOp(*distinct));

  AlgebraPtr keep = ProjectKeep({Symbol("A")}, Table(rng.Make({"A", "B"}, 8, 2)));
  EXPECT_TRUE(IsPartitionableOp(*keep));
}

// ---------------------------------------------------------------------------
// Operator-pipeline differential tests over random relations
// ---------------------------------------------------------------------------

class ExchangeOperatorTest : public ::testing::Test {
 protected:
  xml::Store store_;
  testutil::RandomRelation rng_{20260730};
};

TEST_F(ExchangeOperatorTest, SelectMapUnnestPipeline) {
  Sequence rows = rng_.MakeWithNested({"A", "B"}, "G", Symbol("V"), 60, 4, 3);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Map(Symbol("M"), MakeConst(S("x")),
          Unnest(Symbol("G"),
                 ProjectDrop({Symbol("B")}, Table(std::move(rows))))));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, MapWithNestedAlgebraSubscript) {
  // χ with a nested algebraic subscript: each worker re-evaluates the
  // subscript per tuple on its own evaluator; merged nested_alg_evals must
  // equal the serial count.
  Sequence outer = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 24, 3, 3);
  Sequence inner = rng_.Make({"X", "Y"}, 8, 3);
  AlgebraPtr nested =
      Select(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                     MakeAttrRef(Symbol("X"))),
             Table(std::move(inner)));
  AlgebraPtr plan =
      Map(Symbol("R"), MakeNestedAlg(std::move(nested)),
          Unnest(Symbol("G"), Table(std::move(outer))));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, UnnestDistinctAndOuterInsideSegment) {
  for (bool outer : {false, true}) {
    Sequence rows =
        rng_.MakeWithNested({"A"}, "G", Symbol("V"), 30, 2, 4);
    Sequence outer_rows =
        rng_.MakeWithNested({"B"}, "H", Symbol("W"), 30, 2, 3);
    // μD_G over the expander μ_H — both in the worker segment.
    AlgebraPtr plan =
        Unnest(Symbol("G"),
               Map(Symbol("G"), MakeConst(Value::FromTuples(std::move(rows))),
                   Unnest(Symbol("H"), Table(std::move(outer_rows)),
                          /*distinct=*/false, outer)),
               /*distinct=*/true, outer);
    ExpectParallelAgreesAllConfigs(store_, plan);
  }
}

TEST_F(ExchangeOperatorTest, BreakersAboveTheExchange) {
  // Sort ∘ Γ above the parallel segment: the serial part consumes the
  // merged stream.
  Sequence rows = rng_.MakeWithNested({"A", "B"}, "G", Symbol("V"), 40, 3, 3);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("V");
  AlgebraPtr plan = SortBy(
      {Symbol("A")},
      GroupUnary(Symbol("N"), CmpOp::kEq, {Symbol("A")}, std::move(agg),
                 Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("V")),
                                MakeConst(I(0))),
                        Unnest(Symbol("G"), Table(std::move(rows))))));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, XiRootAboveTheExchange) {
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 32, 3, 3);
  XiProgram s1;
  s1.push_back(XiCommand::Literal("<r>"));
  s1.push_back(XiCommand::Var(Symbol("V")));
  s1.push_back(XiCommand::Literal("</r>"));
  AlgebraPtr plan =
      XiSimple(std::move(s1),
               Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("V")),
                              MakeConst(I(0))),
                      Unnest(Symbol("G"), Table(std::move(rows)))));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

// ---------------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------------

TEST_F(ExchangeOperatorTest, ZeroTupleProducer) {
  // The nested sequences are all empty and the unnest is inner: the
  // producer emits nothing, no chunk is ever dispatched.
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 10, 3, 0);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Unnest(Symbol("G"), Table(std::move(rows)), /*distinct=*/false,
             /*outer=*/false));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, EmptyTable) {
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Unnest(Symbol("G"), Table(Sequence()), /*distinct=*/false,
             /*outer=*/false));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, MoreWorkersThanTuples) {
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 2, 3, 2);
  AlgebraPtr plan = Map(Symbol("M"), MakeConst(I(7)),
                        Unnest(Symbol("G"), Table(std::move(rows))));
  ParallelOptions options;
  options.threads = 16;
  options.chunk_tuples = 1;
  ExpectParallelAgrees(store_, plan, options);
  options.strategy = PartitionStrategy::kRange;
  ExpectParallelAgrees(store_, plan, options);
}

TEST_F(ExchangeOperatorTest, SingleTupleProducer) {
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 1, 3, 3);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("V")), MakeConst(I(99))),
      Unnest(Symbol("G"), Table(std::move(rows))));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, NestedXiUnderAPartitionBoundary) {
  // A Ξ hiding inside a χ subscript right above the expander: the op is
  // not partitionable, so it must stay on the consumer thread and the
  // output bytes must still match serial streaming exactly.
  Sequence outer = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 12, 3, 2);
  Sequence inner = rng_.Make({"X"}, 3, 2);
  XiProgram s1;
  s1.push_back(XiCommand::Literal("i"));
  AlgebraPtr xi_inner = XiSimple(std::move(s1), Table(std::move(inner)));
  AlgebraPtr plan = Map(
      Symbol("M"), MakeNestedAlg(std::move(xi_inner)),
      Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("V")), MakeConst(I(0))),
             Unnest(Symbol("G"), Table(std::move(outer)))));
  ASSERT_FALSE(IsPartitionableOp(*plan));
  ExpectParallelAgreesAllConfigs(store_, plan);
}

TEST_F(ExchangeOperatorTest, NonPartitionablePlanFallsBackToSerial) {
  testutil::RandomRelation rng(5);
  Sequence rows = rng.Make({"A", "B"}, 20, 3);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kId;
  AlgebraPtr plan = GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                               std::move(agg), Table(std::move(rows)));
  ASSERT_FALSE(FindPartitionPoint(*plan).has_value());
  ParallelOptions options;
  options.threads = 4;
  ExpectParallelAgrees(store_, plan, options);
}

TEST_F(ExchangeOperatorTest, ErrorInWorkerPropagates) {
  // theta-grouping inside a χ subscript with a multi-attribute key throws
  // at evaluation time; the exception must surface from the parallel run.
  Sequence rows = rng_.MakeWithNested({"A"}, "G", Symbol("V"), 8, 3, 2);
  AggSpec agg;
  agg.kind = AggSpec::Kind::kCount;
  agg.project = Symbol("X");
  AlgebraPtr bad_inner =
      GroupUnary(Symbol("N"), CmpOp::kLt, {Symbol("X"), Symbol("Y")},
                 std::move(agg), Table(rng_.Make({"X", "Y"}, 4, 2)));
  AlgebraPtr plan = Map(Symbol("M"), MakeNestedAlg(std::move(bad_inner)),
                        Unnest(Symbol("G"), Table(std::move(rows))));
  Evaluator parallel(store_);
  ParallelOptions options;
  options.threads = 3;
  options.chunk_tuples = 1;
  EXPECT_THROW(ExecuteParallel(parallel, *plan, options), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Randomized differential sweep: plans × relations × thread counts
// ---------------------------------------------------------------------------

TEST(ExchangeRandomizedTest, PlansByRelationsByThreads) {
  testutil::RandomRelation rng(987654);
  for (int round = 0; round < 12; ++round) {
    // Vary cardinalities through the interesting regimes: empty, one tuple,
    // fewer tuples than workers, many chunks.
    size_t rows = static_cast<size_t>(round % 4 == 0 ? round / 4
                                                     : 3 * round + 1);
    Sequence data =
        rng.MakeWithNested({"A", "B"}, "G", Symbol("V"), rows, 3, 3);
    AlgebraPtr plan;
    switch (round % 3) {
      case 0:
        plan = Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("V")),
                              MakeConst(I(1))),
                      Unnest(Symbol("G"), Table(std::move(data))));
        break;
      case 1:
        plan = Map(Symbol("M"),
                   MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("A")),
                           MakeAttrRef(Symbol("B"))),
                   Unnest(Symbol("G"), Table(std::move(data)),
                          /*distinct=*/false, /*outer=*/true));
        break;
      default:
        plan = ProjectDrop(
            {Symbol("B")},
            Select(MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")),
                           MakeConst(I(0))),
                   Unnest(Symbol("G"), Table(std::move(data)),
                          /*distinct=*/true)));
        break;
    }
    xml::Store store;
    SCOPED_TRACE("round " + std::to_string(round) + " rows " +
                 std::to_string(rows));
    for (unsigned threads : {1u, 2u, 5u}) {
      ParallelOptions options;
      options.threads = threads;
      options.chunk_tuples = 1 + static_cast<uint32_t>(round % 5);
      options.strategy = round % 2 == 0 ? PartitionStrategy::kRoundRobin
                                        : PartitionStrategy::kRange;
      ExpectParallelAgrees(store, plan, options);
    }
  }
}

// ---------------------------------------------------------------------------
// Full-query differential tests: Q1–Q6, every alternative, thread sweep
// ---------------------------------------------------------------------------

class ExchangeQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    size_t n = 25;
    datagen::BibOptions bib;
    bib.books = n;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("reviews.xml", datagen::GenerateReviews(n));
    engine_.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(n));
    engine_.RegisterDtd("prices.xml", datagen::kPricesDtd);
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
  }

  /// Every plan alternative of `query` must agree between serial streaming
  /// and parallel execution at every worker count of the sweep.
  void CheckQuery(const std::string& query) {
    engine::CompiledQuery q = engine_.Compile(query);
    ASSERT_FALSE(q.alternatives.empty());
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE("plan: " + alt.rule);
      for (unsigned threads : ThreadSweep()) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ParallelOptions options;
        options.threads = threads;
        options.chunk_tuples = 8;  // small chunks: many tickets even at n=25
        ExpectParallelAgrees(engine_.store(), alt.plan, options);
      }
      // Range partitioning once per alternative (at the widest sweep point).
      ParallelOptions range;
      range.threads = ThreadSweep().back();
      range.strategy = PartitionStrategy::kRange;
      ExpectParallelAgrees(engine_.store(), alt.plan, range);
    }
  }

  engine::Engine engine_;
};

TEST_F(ExchangeQueryTest, Q1Grouping) {
  CheckQuery(R"(
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
      </author>
  )");
}

TEST_F(ExchangeQueryTest, Q2Aggregation) {
  CheckQuery(R"(
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
      <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>
  )");
}

TEST_F(ExchangeQueryTest, Q3Exists) {
  CheckQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(ExchangeQueryTest, Q4ExistsCount) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return
      <book>{ $a1 }</book>
  )");
}

TEST_F(ExchangeQueryTest, Q5Universal) {
  CheckQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(ExchangeQueryTest, Q6Having) {
  CheckQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )");
}

TEST_F(ExchangeQueryTest, MarkedNestedPlansStayInsideTheExchange) {
  // Compile marks the invariant part of the nested Q3/Q5 subscripts as CSE
  // nodes (rewrite/invariants.h). The σ evaluating them must stay
  // partitionable, and the run's one CseTable must keep the merged
  // counters equal to the serial run's.
  const char* kQueries[] = {R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>)",
                            R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return <new-author>{ $a1 }</new-author>)"};
  for (const char* query : kQueries) {
    engine::CompiledQuery q =
        engine_.Compile(query, engine::PlanChoice::kManual);
    ASSERT_NE(nal::PrintPlan(*q.nested_plan).find("(cse#"), std::string::npos)
        << nal::PrintPlan(*q.nested_plan);
    Evaluator serial(engine_.store());
    DrainStreaming(serial, *q.nested_plan);
    Evaluator parallel(engine_.store());
    StreamStats stream;
    ParallelOptions options;
    options.threads = 4;
    options.chunk_tuples = 8;
    DrainParallel(parallel, *q.nested_plan, options, &stream);
    EXPECT_GT(stream.exchange_dop, 1u);
    EXPECT_EQ(serial.output(), parallel.output());
    EXPECT_EQ(serial.stats().doc_scans, parallel.stats().doc_scans);
    EXPECT_TRUE(StatsEq(serial.stats(), parallel.stats()));
  }
}

TEST_F(ExchangeQueryTest, BothPathModesAgreeUnderParallel) {
  const char kQuery[] = R"(
    for $b in doc("bib.xml")//book
    where count($b/author) >= 2
    return <multi>{ $b/title }</multi>
  )";
  for (engine::PathMode path :
       {engine::PathMode::kIndexed, engine::PathMode::kScan}) {
    engine::RunResult serial =
        engine_.RunQuery(kQuery, engine::ExecMode::kStreaming, path);
    for (unsigned threads : ThreadSweep()) {
      engine::RunResult parallel = engine_.RunQuery(
          kQuery, engine::ExecMode::kParallel, path, threads);
      EXPECT_EQ(serial.output, parallel.output);
      EXPECT_TRUE(StatsEq(serial.stats, parallel.stats));
    }
  }
}

TEST_F(ExchangeQueryTest, EngineParallelModeMatchesStreaming) {
  const char kQuery[] = R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ $a1 }</a>
  )";
  engine::RunResult s = engine_.RunQuery(kQuery, engine::ExecMode::kStreaming);
  engine::RunResult p = engine_.RunQuery(kQuery, engine::ExecMode::kParallel,
                                         engine::PathMode::kIndexed,
                                         /*threads=*/4);
  EXPECT_EQ(s.output, p.output);
  EXPECT_TRUE(StatsEq(s.stats, p.stats));
}

// ---------------------------------------------------------------------------
// Concurrent shared-read paths (also exercised under TSan in CI)
// ---------------------------------------------------------------------------

TEST(SharedStoreTest, ConcurrentStringValueAndIndexReaders) {
  engine::Engine engine;
  datagen::BibOptions bib;
  bib.books = 40;
  bib.authors_per_book = 3;
  engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  const xml::Store& store = engine.store();
  xml::StoreReadLease lease(store);

  std::vector<std::string> first(8);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < first.size(); ++i) {
    threads.emplace_back([&store, &first, i] {
      const xml::DocumentIndex& index = store.index(0);
      const xml::Document& doc = store.document(0);
      std::string all;
      for (xml::NodeId id : index.AllElements()) {
        all += *doc.SharedStringValue(id);
      }
      first[i] = std::move(all);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 1; i < first.size(); ++i) EXPECT_EQ(first[0], first[i]);
}

}  // namespace
}  // namespace nalq::nal
