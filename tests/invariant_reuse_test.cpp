// Differential suite for invariant reuse: the Compile-time pass that marks
// the free-variable-free parts of subscript algebra (rewrite/invariants.h)
// and the run-scoped CseTable that computes each of them once per run
// (nal/spool.h). Output bytes must equal the definitional reference
// evaluator run on the original, unmarked translation; EvalStats must be
// identical across the materializing, streaming and parallel executors
// (dop 1/2/4) and across memory budgets {0, 64 KB, 1 MB}. Hand-built cases
// pin the pass's limits (an empty outer input never fills the table, a
// correlated leading conjunct stays put, Ξ is never cached), the budget
// contract (a spilled entry keeps every counter), and plan ownership of
// the marks (plans freed and recompiled in a loop).
#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "nal/cursor.h"
#include "nal/exchange.h"
#include "nal/printer.h"
#include "nal/reference.h"
#include "nal/spool.h"
#include "rewrite/invariants.h"
#include "test_util.h"
#include "xquery/translate.h"

namespace nalq {
namespace {

using nal::AlgebraOp;
using nal::AlgebraPtr;
using nal::CmpOp;
using nal::EvalStats;
using nal::Symbol;
using testutil::Table;
using testutil::T;

constexpr uint64_t kBudgets[] = {0, 64 * 1024, 1024 * 1024};

::testing::AssertionResult StatsEq(const EvalStats& expected,
                                   const EvalStats& actual) {
  if (expected.nested_alg_evals == actual.nested_alg_evals &&
      expected.doc_scans == actual.doc_scans &&
      expected.tuples_produced == actual.tuples_produced &&
      expected.predicate_evals == actual.predicate_evals &&
      expected.xpath.steps_evaluated == actual.xpath.steps_evaluated &&
      expected.xpath.nodes_visited == actual.xpath.nodes_visited &&
      expected.xpath.index_lookups == actual.xpath.index_lookups &&
      expected.xpath.index_hits == actual.xpath.index_hits) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "EvalStats differ:\n  nested_alg_evals "
         << expected.nested_alg_evals << " vs " << actual.nested_alg_evals
         << "\n  doc_scans " << expected.doc_scans << " vs "
         << actual.doc_scans << "\n  tuples_produced "
         << expected.tuples_produced << " vs " << actual.tuples_produced
         << "\n  predicate_evals " << expected.predicate_evals << " vs "
         << actual.predicate_evals << "\n  xpath.nodes "
         << expected.xpath.nodes_visited << " vs "
         << actual.xpath.nodes_visited;
}

struct Outcome {
  std::string output;
  EvalStats stats;
  nal::StreamStats stream;
  uint64_t budget_left = 0;  ///< bytes still charged after the run
};

enum class Exec { kMaterializing, kStreaming, kParallel };

Outcome RunPlan(const xml::Store& store, const AlgebraPtr& plan, Exec exec,
                unsigned threads = 1, uint64_t budget = 0) {
  Outcome out;
  nal::Evaluator ev(store);
  switch (exec) {
    case Exec::kMaterializing:
      ev.Eval(*plan);
      break;
    case Exec::kStreaming: {
      nal::SpoolContext spool(budget);
      nal::DrainStreaming(ev, *plan, &out.stream,
                          budget != 0 ? &spool : nullptr);
      out.budget_left = spool.budget().used_bytes();
      break;
    }
    case Exec::kParallel: {
      nal::ParallelOptions options;
      options.threads = threads;
      options.chunk_tuples = 4;
      options.memory_budget_bytes = budget;
      nal::DrainParallel(ev, *plan, options, &out.stream);
      break;
    }
  }
  out.output = ev.output();
  out.stats = ev.stats();
  return out;
}

/// Runs `plan` on every executor, dop and budget of the contract and checks
/// each run against `expected_output` and the materializing run's stats.
/// Returns the materializing outcome.
Outcome CheckEverywhere(const xml::Store& store, const AlgebraPtr& plan,
                        const std::string& expected_output) {
  Outcome base = RunPlan(store, plan, Exec::kMaterializing);
  EXPECT_EQ(base.output, expected_output);
  for (uint64_t budget : kBudgets) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    Outcome s = RunPlan(store, plan, Exec::kStreaming, 1, budget);
    EXPECT_EQ(s.output, expected_output);
    EXPECT_TRUE(StatsEq(base.stats, s.stats));
    EXPECT_EQ(s.budget_left, 0u) << "a CSE entry kept its budget charge";
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Outcome p = RunPlan(store, plan, Exec::kParallel, threads, budget);
      EXPECT_EQ(p.output, expected_output);
      EXPECT_TRUE(StatsEq(base.stats, p.stats));
    }
  }
  return base;
}

/// Largest cse_id anywhere in `op`, subscripts included; -1 when unmarked.
int MaxMark(const AlgebraOp& op) {
  int out = op.cse_id;
  auto visit_expr = [&](const auto& self, const nal::Expr& e) -> void {
    if (e.alg != nullptr) out = std::max(out, MaxMark(*e.alg));
    for (const nal::ExprPtr& c : e.children) self(self, *c);
  };
  for (const nal::ExprPtr* e : {&op.pred, &op.expr}) {
    if (*e != nullptr) visit_expr(visit_expr, **e);
  }
  for (const AlgebraPtr& c : op.children) out = std::max(out, MaxMark(*c));
  return out;
}

/// Ξ output of the definitional evaluator (nal/reference.h), which covers
/// the Sec. 2 core operators: it evaluates the root Ξ's input, and the Ξ
/// program renders each tuple through the shared result-construction path.
/// The evaluator has no CSE table bound, so marks are ignored.
std::string ReferenceOutput(const xml::Store& store, const AlgebraPtr& plan) {
  nal::Evaluator ev(store);
  if (plan->kind != nal::OpKind::kXiSimple) {
    nal::reference::Eval(ev, *plan);
    return ev.output();
  }
  for (const nal::Tuple& t : nal::reference::Eval(ev, *plan->child(0))) {
    ev.RunXiProgram(plan->s1, t, nal::Tuple());
  }
  return ev.output();
}

/// A subscript range that scans every book title of bib.xml.
AlgebraPtr TitleScan(Symbol attr) {
  return nal::UnnestMap(
      attr,
      nal::MakePath(
          nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
          xml::Path::Parse("//book/title")),
      nal::Singleton());
}

class InvariantReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    size_t n = 30;
    datagen::BibOptions bib;
    bib.books = n;
    bib.authors_per_book = 3;
    engine_.AddDocument("bib.xml", datagen::GenerateBib(bib));
    engine_.RegisterDtd("bib.xml", datagen::kBibDtd);
    engine_.AddDocument("reviews.xml", datagen::GenerateReviews(n));
    engine_.RegisterDtd("reviews.xml", datagen::kReviewsDtd);
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
  }

  /// Ξ output of the definitional evaluator on the original translation —
  /// no marks, no split σ, no CSE table.
  std::string QueryReference(const engine::CompiledQuery& q) {
    AlgebraPtr original = xquery::Translate(q.normalized, &engine_.dtds());
    EXPECT_LT(MaxMark(*original), 0);
    return ReferenceOutput(engine_.store(), original);
  }

  /// The nested plan of `query` is marked, matches the reference on every
  /// executor/dop/budget, and does less subscript work than unmarked.
  void CheckNestedQuery(const std::string& query) {
    engine::CompiledQuery q =
        engine_.Compile(query, engine::PlanChoice::kManual);
    ASSERT_EQ(q.best.plan, q.nested_plan);
    EXPECT_GE(MaxMark(*q.nested_plan), 0) << nal::PrintPlan(*q.nested_plan);
    std::string reference = QueryReference(q);
    ASSERT_FALSE(reference.empty());
    Outcome marked = CheckEverywhere(engine_.store(), q.nested_plan, reference);
    AlgebraPtr original = xquery::Translate(q.normalized, &engine_.dtds());
    Outcome unmarked = RunPlan(engine_.store(), original, Exec::kStreaming);
    EXPECT_EQ(unmarked.output, reference);
    EXPECT_EQ(marked.stats.nested_alg_evals, unmarked.stats.nested_alg_evals);
    EXPECT_LT(marked.stats.doc_scans, unmarked.stats.doc_scans);
    EXPECT_LT(marked.stats.xpath.nodes_visited,
              unmarked.stats.xpath.nodes_visited);
    // Every other alternative still agrees with the reference.
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE(alt.rule);
      EXPECT_EQ(RunPlan(engine_.store(), alt.plan, Exec::kStreaming).output,
                reference);
    }
  }

  engine::Engine engine_;
};

TEST_F(InvariantReuseTest, Q3Exists) {
  CheckNestedQuery(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>)");
}

TEST_F(InvariantReuseTest, Q4ExistsCountSplitsTheLeadingConjunct) {
  const std::string query = R"(
    let $d1 := doc("bib.xml")
    for $b1 in $d1//book,
        $a1 in $b1/author
    where exists(
      for $b2 in $d1//book
      for $a2 in $b2/author
      where contains($a2, "Suciu") and $b1 = $b2
      return $b2)
    return <book>{ $a1 }</book>)";
  CheckNestedQuery(query);
  // contains() moved below the correlated b1 = b2 into the cached part.
  engine::CompiledQuery q = engine_.Compile(query, engine::PlanChoice::kManual);
  std::string text = nal::PrintPlan(*q.nested_plan);
  EXPECT_NE(text.find("Select[b1 = b2]"), std::string::npos) << text;
  EXPECT_NE(text.find("Select[contains(a2, \"Suciu\")] (cse#0)"),
            std::string::npos)
      << text;
}

TEST_F(InvariantReuseTest, Q5Universal) {
  CheckNestedQuery(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return <new-author>{ $a1 }</new-author>)");
}

TEST_F(InvariantReuseTest, Q6Having) {
  CheckNestedQuery(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return <popular-item>{ $i1 }</popular-item>)");
}

TEST_F(InvariantReuseTest, UnnestedPlansAreLeftAlone) {
  engine::CompiledQuery q = engine_.Compile(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>)");
  ASSERT_NE(q.best.rule, "nested");
  EXPECT_LT(MaxMark(*q.best.plan), 0) << nal::PrintPlan(*q.best.plan);
  // No subscript algebra: the pass hands back the very same plan.
  EXPECT_EQ(rewrite::ShareInvariantSubscripts(q.best.plan), q.best.plan);
}

TEST_F(InvariantReuseTest, PassNeverModifiesItsInput) {
  AlgebraPtr plan = nal::Select(
      nal::MakeQuant(nal::QuantKind::kSome, Symbol("x"), TitleScan(Symbol("x")),
                     nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("x")),
                                  nal::MakeAttrRef(Symbol("A")))),
      Table({}));
  std::string before = nal::PrintPlan(*plan);
  AlgebraPtr marked = rewrite::ShareInvariantSubscripts(plan);
  EXPECT_NE(marked, plan);
  EXPECT_EQ(nal::PrintPlan(*plan), before);
  EXPECT_EQ(marked->pred->alg->cse_id, 0);
}

TEST_F(InvariantReuseTest, EmptyOuterInputNeverEvaluatesTheInvariant) {
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(nal::Select(
      nal::MakeQuant(nal::QuantKind::kSome, Symbol("x"), TitleScan(Symbol("x")),
                     nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("x")),
                                  nal::MakeAttrRef(Symbol("A")))),
      Table({})));
  ASSERT_EQ(plan->pred->alg->cse_id, 0);
  Outcome base = CheckEverywhere(engine_.store(), plan, "");
  EXPECT_EQ(base.stats.doc_scans, 0u);
  EXPECT_EQ(base.stats.nested_alg_evals, 0u);
  EXPECT_EQ(base.stats.xpath.nodes_visited, 0u);
}

TEST_F(InvariantReuseTest, CorrelatedLeadingConjunctDoesNotMove) {
  // σ_{A = t ∧ contains(t, "1")}(Υ_t(doc//book/title)) inside ∃: the
  // invariant contains() sits behind a correlated conjunct, so moving it
  // would evaluate it on tuples the and never reaches.
  nal::Sequence outer;
  for (int i = 0; i < 6; ++i) {
    outer.Append(T({{"A", nal::Value("Title" + std::to_string(i))}}));
  }
  AlgebraPtr range = nal::Select(
      nal::MakeAnd(
          nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(Symbol("A")),
                       nal::MakeAttrRef(Symbol("t"))),
          nal::MakeFnCall("contains", {nal::MakeAttrRef(Symbol("t")),
                                       nal::MakeConst(nal::Value("1"))})),
      TitleScan(Symbol("t")));
  nal::XiProgram s1 = {nal::XiCommand::Literal("<a>"),
                       nal::XiCommand::Var(Symbol("A")),
                       nal::XiCommand::Literal("</a>")};
  AlgebraPtr original = nal::XiSimple(
      s1, nal::Select(nal::MakeQuant(nal::QuantKind::kSome, Symbol("ex"),
                                     range, nal::MakeConst(nal::Value(true))),
                      Table(outer)));
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(original);
  const AlgebraOp& select = *plan->child(0)->pred->alg;
  EXPECT_EQ(select.kind, nal::OpKind::kSelect);
  EXPECT_LT(select.cse_id, 0);
  EXPECT_EQ(select.pred->kind, nal::ExprKind::kAnd) << "conjuncts moved";
  EXPECT_EQ(select.child(0)->cse_id, 0) << "the scan below is invariant";
  CheckEverywhere(engine_.store(), plan,
                  ReferenceOutput(engine_.store(), original));
}

TEST_F(InvariantReuseTest, XiInsideASubscriptIsNeverCached) {
  // χ_{r: Ξ(Υ_t(doc//book/title))}(outer): the Ξ writes every title once
  // per outer tuple, so only the Ξ-free scan below it may be shared.
  nal::Sequence outer;
  for (int i = 0; i < 3; ++i) outer.Append(T({{"A", testutil::I(i)}}));
  nal::XiProgram s1 = {nal::XiCommand::Var(Symbol("t"))};
  AlgebraPtr original = nal::Map(
      Symbol("r"),
      nal::MakeNestedAlg(nal::XiSimple(s1, TitleScan(Symbol("t")))),
      Table(outer));
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(original);
  const AlgebraOp& xi = *plan->expr->alg;
  EXPECT_EQ(xi.kind, nal::OpKind::kXiSimple);
  EXPECT_LT(xi.cse_id, 0);
  EXPECT_EQ(xi.child(0)->cse_id, 0);
  // Every outer tuple writes the titles again.
  std::string reference = ReferenceOutput(engine_.store(), original);
  Outcome base = RunPlan(engine_.store(), plan, Exec::kMaterializing);
  EXPECT_EQ(base.output, reference);
  for (uint64_t budget : kBudgets) {
    Outcome s = RunPlan(engine_.store(), plan, Exec::kStreaming, 1, budget);
    EXPECT_EQ(s.output, reference);
    EXPECT_TRUE(StatsEq(base.stats, s.stats));
  }
}

TEST(InvariantReuseBudgetTest, SpilledEntryKeepsEveryCounter) {
  // 400 books × 3 authors: the cached author scan (~1200 tuples) exceeds a
  // 64 KB budget but fits 1 MB.
  engine::Engine engine;
  datagen::BibOptions bib;
  bib.books = 400;
  bib.authors_per_book = 3;
  engine.AddDocument("bib.xml", datagen::GenerateBib(bib));
  nal::Sequence outer;
  for (int i = 0; i < 4; ++i) outer.Append(T({{"A", testutil::I(i)}}));
  AlgebraPtr range = nal::UnnestMap(
      Symbol("x"),
      nal::MakePath(
          nal::MakeFnCall("doc", {nal::MakeConst(nal::Value("bib.xml"))}),
          xml::Path::Parse("//book/author")),
      nal::Singleton());
  nal::XiProgram s1 = {nal::XiCommand::Var(Symbol("A"))};
  AlgebraPtr original = nal::XiSimple(
      s1, nal::Select(
              nal::MakeQuant(nal::QuantKind::kEvery, Symbol("x"), range,
                             nal::MakeCmp(CmpOp::kNe,
                                          nal::MakeAttrRef(Symbol("x")),
                                          nal::MakeConst(nal::Value("none")))),
              Table(outer)));
  AlgebraPtr plan = rewrite::ShareInvariantSubscripts(original);
  ASSERT_EQ(plan->child(0)->pred->alg->cse_id, 0);
  std::string reference = ReferenceOutput(engine.store(), original);
  ASSERT_EQ(reference, "0123");
  Outcome base = CheckEverywhere(engine.store(), plan, reference);
  EXPECT_EQ(base.stats.doc_scans, 1u) << "the scan ran more than once";
  Outcome unlimited = RunPlan(engine.store(), plan, Exec::kStreaming);
  EXPECT_EQ(unlimited.stats.spill.spill_runs, 0u);
  Outcome tight =
      RunPlan(engine.store(), plan, Exec::kStreaming, 1, 64 * 1024);
  EXPECT_GT(tight.stats.spill.spill_runs, 0u) << "the entry did not spill";
  EXPECT_TRUE(StatsEq(unlimited.stats, tight.stats));
  Outcome tight_parallel =
      RunPlan(engine.store(), plan, Exec::kParallel, 4, 64 * 1024);
  EXPECT_GT(tight_parallel.stats.spill.spill_runs, 0u);
  EXPECT_TRUE(StatsEq(unlimited.stats, tight_parallel.stats));
  Outcome roomy =
      RunPlan(engine.store(), plan, Exec::kStreaming, 1, 1024 * 1024);
  EXPECT_EQ(roomy.stats.spill.spill_runs, 0u);
}

TEST_F(InvariantReuseTest, PlansFreedAndRecompiledInALoop) {
  // Marks live on the plan, so a node address reused by the next plan can
  // never see another plan's cached result.
  const std::vector<std::string> queries = {
      R"(let $d1 := doc("bib.xml")
         for $a1 in distinct-values($d1//author)
         return <author><name>{ $a1 }</name>{
           for $b2 in doc("bib.xml")//book[$a1 = author]
           return $b2/title }</author>)",
      R"(let $d1 := doc("bib.xml")
         for $a1 in distinct-values($d1//author)
         where every $b2 in doc("bib.xml")//book[author = $a1]
               satisfies $b2/@year > 1993
         return <new-author>{ $a1 }</new-author>)",
      R"(let $d1 := document("bids.xml")
         for $i1 in distinct-values($d1//itemno)
         where count($d1//bidtuple[itemno = $i1]) >= 3
         return <popular-item>{ $i1 }</popular-item>)"};
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    expected.push_back(
        QueryReference(engine_.Compile(query, engine::PlanChoice::kManual)));
  }
  for (int round = 0; round < 8; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + " query " +
                   std::to_string(i));
      engine::CompiledQuery q =
          engine_.Compile(queries[i], engine::PlanChoice::kManual);
      EXPECT_EQ(engine_.Run(q.nested_plan).output, expected[i]);
      EXPECT_EQ(engine_
                    .Run(q.nested_plan, engine::ExecMode::kParallel,
                         engine::PathMode::kIndexed, 2)
                    .output,
                expected[i]);
      for (const rewrite::Alternative& alt : q.alternatives) {
        EXPECT_EQ(engine_.Run(alt.plan).output, expected[i]) << alt.rule;
      }
    }
  }
}

}  // namespace
}  // namespace nalq
