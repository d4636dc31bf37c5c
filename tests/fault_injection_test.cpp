// Lifecycle suite for cooperative cancellation, deadlines and the
// deterministic fault-injection harness (nal/query_control.h,
// nal/fault_injection.h, engine/error.h).
//
// The contract under test: any run — every Q1–Q6 plan alternative, every
// executor, any budget — that is cancelled, deadline-expired or hit by an
// injected spool/scheduler fault terminates promptly, surfaces one
// structured engine::Error with the right code/errno/context, leaves zero
// temp files behind and returns every budget byte (the leak half is
// additionally enforced by the ASan/TSan CI jobs). Transient faults at the
// spool open sites must be absorbed by the retry policy with byte-identical
// output.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"
#include "engine/error.h"
#include "nal/cursor.h"
#include "nal/eval.h"
#include "nal/exchange.h"
#include "nal/fault_injection.h"
#include "nal/query_control.h"
#include "nal/scheduler.h"
#include "nal/spool.h"
#include "test_util.h"
#include "xml/store.h"

namespace nalq::nal {
namespace {

using testutil::I;
using testutil::SeqEq;
using testutil::Table;

/// Disarms the process-wide injector when a test scope ends, so a failing
/// assertion cannot leave a standing fault for the rest of the binary.
struct InjectorReset {
  ~InjectorReset() { FaultInjector::Global().Reset(); }
};

/// Runs `fn`, requiring it to throw engine::Error with `expected`; returns
/// the caught error for further field assertions.
engine::Error RunExpectingError(const std::function<void()>& fn,
                                engine::ErrorCode expected) {
  try {
    fn();
  } catch (const engine::Error& e) {
    EXPECT_EQ(e.code(), expected)
        << "wrong code: " << engine::ErrorCodeName(e.code()) << " — "
        << e.what();
    return e;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected engine::Error("
                  << engine::ErrorCodeName(expected)
                  << "), got unstructured exception: " << e.what();
    return engine::Error(expected, "unstructured");
  }
  ADD_FAILURE() << "expected engine::Error("
                << engine::ErrorCodeName(expected)
                << "), but the run completed";
  return engine::Error(expected, "completed");
}

size_t FilesIn(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

/// This process's auto-created spool directories ("nalq-spool-<pid>-...")
/// currently in the system temp dir — the leak probe for runs whose
/// SpoolContexts the test cannot reach (the parallel executor's consumer and
/// worker spools). Other processes' directories (test binaries running in
/// parallel) do not count.
size_t SpoolDirsInTemp() {
  const std::string prefix = "nalq-spool-" + std::to_string(getpid()) + "-";
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, TransientRuleFiresExactlyOnTheNthCall) {
  InjectorReset guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();
  fi.FailNth(FaultSite::kSpoolWrite, 3, EDQUOT);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolWrite), 0);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolWrite), 0);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolWrite), EDQUOT);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolWrite), 0);  // transient: once
  EXPECT_EQ(fi.CallCount(FaultSite::kSpoolWrite), 4u);
  EXPECT_EQ(fi.InjectedFailures(), 1u);
  // Other sites are untouched.
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolRead), 0);
}

TEST(FaultInjectorTest, PersistentRuleFiresFromTheNthCallOn) {
  InjectorReset guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();
  fi.FailNth(FaultSite::kSpoolOpenRead, 2, ENOSPC, /*every=*/true);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolOpenRead), 0);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolOpenRead), ENOSPC);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolOpenRead), ENOSPC);
  EXPECT_EQ(fi.InjectedFailures(), 2u);
}

TEST(FaultInjectorTest, ResetDisarmsAndClearsCounters) {
  FaultInjector& fi = FaultInjector::Global();
  fi.FailAlways(FaultSite::kSpoolClose, EIO);
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolClose), EIO);
  fi.Reset();
  EXPECT_EQ(fi.MaybeFail(FaultSite::kSpoolClose), 0);
  EXPECT_EQ(fi.CallCount(FaultSite::kSpoolClose), 0u);
  EXPECT_EQ(fi.InjectedFailures(), 0u);
}

// ---------------------------------------------------------------------------
// engine::Error taxonomy
// ---------------------------------------------------------------------------

TEST(EngineErrorTest, CarriesCodeErrnoPathContextAndOp) {
  engine::Error e(engine::ErrorCode::kSpoolIo, "spool: short write", ENOSPC,
                  "/tmp/spool/f0", "spool.write");
  EXPECT_EQ(e.code(), engine::ErrorCode::kSpoolIo);
  EXPECT_EQ(e.sys_errno(), ENOSPC);
  EXPECT_EQ(e.path(), "/tmp/spool/f0");
  EXPECT_EQ(e.context(), "spool.write");
  e.set_op_if_empty("Sort");
  e.set_op_if_empty("Join");  // first annotation wins
  EXPECT_EQ(e.op(), "Sort");
  std::string what = e.what();
  EXPECT_NE(what.find("kSpoolIo"), std::string::npos) << what;
  EXPECT_NE(what.find("spool: short write"), std::string::npos) << what;
  EXPECT_NE(what.find("/tmp/spool/f0"), std::string::npos) << what;
  EXPECT_NE(what.find("spool.write"), std::string::npos) << what;
  EXPECT_NE(what.find("Sort"), std::string::npos) << what;
}

TEST(EngineErrorTest, IsCatchableAsRuntimeError) {
  // Pre-taxonomy callers catch std::runtime_error; they must keep working.
  EXPECT_THROW(
      throw engine::Error(engine::ErrorCode::kPlanError, "shape"),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// QueryControl semantics
// ---------------------------------------------------------------------------

TEST(QueryControlTest, CancelTripsTheNextPoll) {
  QueryControl control;
  EXPECT_NO_THROW(control.Poll());
  control.RequestCancel();
  EXPECT_TRUE(control.cancel_requested());
  engine::Error e = RunExpectingError([&] { control.Poll(); },
                                      engine::ErrorCode::kCancelled);
  EXPECT_EQ(e.context(), "QueryControl");
}

TEST(QueryControlTest, ExpiredDeadlineTripsTheFirstPoll) {
  QueryControl control;
  control.SetDeadlineMs(0);  // already expired
  RunExpectingError([&] { control.Poll(); },
                    engine::ErrorCode::kDeadlineExceeded);
  // Latched: every later poll reports the same code.
  RunExpectingError([&] { control.Poll(); },
                    engine::ErrorCode::kDeadlineExceeded);
}

TEST(QueryControlTest, FirstTripWinsOverALaterDeadline) {
  QueryControl control;
  control.RequestCancel();
  control.SetDeadlineMs(0);
  RunExpectingError([&] { control.Poll(); }, engine::ErrorCode::kCancelled);
}

TEST(QueryControlTest, FarDeadlineKeepsPollCheap) {
  QueryControl control;
  control.SetDeadlineMs(60 * 60 * 1000);
  for (int i = 0; i < 10'000; ++i) control.Poll();  // spans many clock reads
}

// ---------------------------------------------------------------------------
// Persistent spool faults: every site × every spill-active breaker
// ---------------------------------------------------------------------------

struct BreakerPlan {
  const char* name;
  AlgebraPtr plan;
  uint64_t budget;
};

std::vector<BreakerPlan> SpillingBreakerPlans() {
  std::vector<BreakerPlan> plans;
  {
    testutil::RandomRelation rng(5);
    Sequence lhs = rng.Make({"A"}, 120, 4);
    Sequence rhs = rng.Make({"C"}, 120, 4);
    plans.push_back({"grace-hash-join",
                     Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                  MakeAttrRef(Symbol("C"))),
                          Table(std::move(lhs)), Table(std::move(rhs))),
                     1024});
  }
  {
    testutil::RandomRelation rng(7);
    Sequence rows = rng.Make({"A", "B"}, 300, 5);
    plans.push_back(
        {"external-sort", SortBy({Symbol("A")}, Table(std::move(rows))),
         400});
  }
  {
    testutil::RandomRelation rng(9);
    Sequence rows = rng.Make({"A", "B"}, 300, 5);
    AggSpec agg;
    agg.kind = AggSpec::Kind::kCount;
    agg.project = Symbol("B");
    plans.push_back({"spilled-group",
                     GroupUnary(Symbol("G"), CmpOp::kEq, {Symbol("A")},
                                std::move(agg), Table(std::move(rows))),
                     700});
  }
  return plans;
}

constexpr FaultSite kSpoolSites[] = {
    FaultSite::kSpoolOpenWrite, FaultSite::kSpoolWrite,
    FaultSite::kSpoolClose, FaultSite::kSpoolOpenRead, FaultSite::kSpoolRead};

TEST(FaultSweepTest, StreamingSurfacesStructuredErrorAndLeaksNothing) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "nalq-fault-test").string();
  std::vector<BreakerPlan> plans = SpillingBreakerPlans();
  for (const BreakerPlan& bp : plans) {
    for (FaultSite site : kSpoolSites) {
      SCOPED_TRACE(std::string(bp.name) + " / " + FaultSiteName(site));
      std::filesystem::remove_all(dir);
      InjectorReset guard;
      FaultInjector::Global().Reset();
      FaultInjector::Global().FailAlways(site, ENOSPC);
      {
        xml::Store store;
        Evaluator ev(store);
        SpoolContext spool(bp.budget, dir);
        engine::Error e = RunExpectingError(
            [&] { ExecuteStreaming(ev, *bp.plan, nullptr, &spool); },
            engine::ErrorCode::kSpoolIo);
        EXPECT_EQ(e.sys_errno(), ENOSPC) << e.what();
        EXPECT_EQ(e.context(), FaultSiteName(site)) << e.what();
        EXPECT_FALSE(e.path().empty()) << e.what();
        EXPECT_FALSE(e.op().empty())
            << "spill cursor did not annotate the operator: " << e.what();
        EXPECT_GT(FaultInjector::Global().InjectedFailures(), 0u)
            << "the programmed site was never reached";
        // Unwinding already removed every temp file and returned every
        // budget byte, while the context (and its directory) still live.
        EXPECT_EQ(FilesIn(dir), 0u);
        EXPECT_EQ(spool.budget().used_bytes(), 0u);
      }
      // A caller-supplied directory is caller-owned: the destructor leaves
      // the (empty) directory itself in place but nothing inside it.
      EXPECT_EQ(FilesIn(dir), 0u)
          << "SpoolContext destructor left temp files behind";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FaultSweepTest, ParallelSurfacesStructuredErrorAndLeaksNoSpoolDirs) {
  std::vector<BreakerPlan> plans = SpillingBreakerPlans();
  size_t baseline = SpoolDirsInTemp();
  for (const BreakerPlan& bp : plans) {
    for (FaultSite site : kSpoolSites) {
      SCOPED_TRACE(std::string(bp.name) + " / " + FaultSiteName(site));
      InjectorReset guard;
      FaultInjector::Global().Reset();
      FaultInjector::Global().FailAlways(site, ENOSPC);
      {
        xml::Store store;
        Evaluator ev(store);
        ParallelOptions options;
        options.threads = 2;
        options.memory_budget_bytes = bp.budget;
        engine::Error e = RunExpectingError(
            [&] { ExecuteParallel(ev, *bp.plan, options); },
            engine::ErrorCode::kSpoolIo);
        EXPECT_EQ(e.sys_errno(), ENOSPC) << e.what();
        EXPECT_EQ(e.context(), FaultSiteName(site)) << e.what();
      }
      EXPECT_EQ(SpoolDirsInTemp(), baseline)
          << "a consumer/worker spool directory leaked";
    }
  }
}

// ---------------------------------------------------------------------------
// Transient faults: the open-site retry policy recovers byte-identically
// ---------------------------------------------------------------------------

TEST(FaultRecoveryTest, TransientOpenFaultRetriesToByteIdenticalOutput) {
  for (FaultSite site :
       {FaultSite::kSpoolOpenWrite, FaultSite::kSpoolOpenRead}) {
    SCOPED_TRACE(FaultSiteName(site));
    testutil::RandomRelation rng(5);
    Sequence lhs = rng.Make({"A"}, 120, 4);
    Sequence rhs = rng.Make({"C"}, 120, 4);
    AlgebraPtr plan = Join(MakeCmp(CmpOp::kEq, MakeAttrRef(Symbol("A")),
                                   MakeAttrRef(Symbol("C"))),
                           Table(std::move(lhs)), Table(std::move(rhs)));
    xml::Store store;
    Sequence clean_result;
    std::string clean_output;
    {
      Evaluator ev(store);
      SpoolContext spool(1024);
      clean_result = ExecuteStreaming(ev, *plan, nullptr, &spool);
      clean_output = ev.output();
      ASSERT_GT(ev.stats().spill.spill_runs, 0u);
    }
    InjectorReset guard;
    FaultInjector::Global().Reset();
    FaultInjector::Global().FailNth(site, 1, EIO);  // first attempt only
    {
      Evaluator ev(store);
      SpoolContext spool(1024);
      Sequence result = ExecuteStreaming(ev, *plan, nullptr, &spool);
      EXPECT_EQ(FaultInjector::Global().InjectedFailures(), 1u)
          << "the programmed site was never reached";
      EXPECT_TRUE(SeqEq(clean_result, result));
      EXPECT_EQ(clean_output, ev.output());
      EXPECT_EQ(spool.budget().used_bytes(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler faults
// ---------------------------------------------------------------------------

TEST(SchedulerFaultTest, WorkerStartFailureIsStructuredAndNonDamaging) {
  Scheduler& pool = Scheduler::Global();
  unsigned before = pool.thread_count();
  if (before >= Scheduler::kMaxThreads) {
    GTEST_SKIP() << "pool already at kMaxThreads; growth is a no-op";
  }
  InjectorReset guard;
  FaultInjector::Global().Reset();
  FaultInjector::Global().FailAlways(FaultSite::kSchedulerWorkerStart, EAGAIN);
  engine::Error e =
      RunExpectingError([&] { pool.EnsureThreads(before + 1); },
                        engine::ErrorCode::kBudgetExhausted);
  EXPECT_EQ(e.sys_errno(), EAGAIN) << e.what();
  EXPECT_EQ(e.context(), "scheduler.worker_start") << e.what();
  EXPECT_EQ(pool.thread_count(), before)
      << "failed growth must leave the pool as it was";
  // The fault was transient as far as the pool is concerned: once it
  // clears, the same request succeeds.
  FaultInjector::Global().Reset();
  pool.EnsureThreads(before + 1);
  EXPECT_GE(pool.thread_count(), before + 1);
}

TEST(SchedulerFaultTest, ParallelRunSurfacesWorkerStartFailure) {
  Scheduler& pool = Scheduler::Global();
  if (pool.thread_count() >= Scheduler::kMaxThreads) {
    GTEST_SKIP() << "pool already at kMaxThreads; growth is a no-op";
  }
  InjectorReset guard;
  FaultInjector::Global().Reset();
  FaultInjector::Global().FailAlways(FaultSite::kSchedulerWorkerStart, EAGAIN);
  testutil::RandomRelation rng(3);
  Sequence rows = rng.MakeWithNested({"A"}, "G", Symbol("V"), 16, 3, 3);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Map(Symbol("M"), MakeConst(testutil::S("x")),
          Unnest(Symbol("G"), Table(std::move(rows)))));
  xml::Store store;
  Evaluator ev(store);
  ParallelOptions options;
  options.threads = pool.thread_count() + 1;  // forces pool growth
  RunExpectingError([&] { ExecuteParallel(ev, *plan, options); },
                    engine::ErrorCode::kBudgetExhausted);
}

// ---------------------------------------------------------------------------
// Deterministic propagation under the exchange
// ---------------------------------------------------------------------------

TEST(ExchangePropagationTest, RepeatedCancelledRunsAlwaysReportCancelled) {
  // chunk_tuples=1 maximizes in-flight tasks: many workers race to fail,
  // but the latched token plus ticket-ordered error consumption must make
  // every repetition report the same code.
  testutil::RandomRelation rng(13);
  Sequence rows = rng.MakeWithNested({"A"}, "G", Symbol("V"), 64, 3, 3);
  AlgebraPtr plan = Select(
      MakeCmp(CmpOp::kNe, MakeAttrRef(Symbol("A")), MakeConst(I(0))),
      Map(Symbol("M"), MakeConst(testutil::S("x")),
          Unnest(Symbol("G"), Table(std::move(rows)))));
  xml::Store store;
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    QueryControl control;
    control.RequestCancel();
    Evaluator ev(store);
    ev.set_control(&control);
    ParallelOptions options;
    options.threads = 4;
    options.chunk_tuples = 1;
    RunExpectingError([&] { ExecuteParallel(ev, *plan, options); },
                      engine::ErrorCode::kCancelled);
  }
}

// ---------------------------------------------------------------------------
// Mid-run cancellation and deadlines on a long-running plan
// ---------------------------------------------------------------------------

AlgebraPtr LongThetaJoinPlan() {
  testutil::RandomRelation rng(11);
  Sequence lhs = rng.Make({"A"}, 2000, 8);
  Sequence rhs = rng.Make({"C"}, 2000, 8);
  // 4M nested-loop predicate evaluations: far longer than the cancel/
  // deadline fuses below on any build type.
  return Join(MakeCmp(CmpOp::kLt, MakeAttrRef(Symbol("A")),
                      MakeAttrRef(Symbol("C"))),
              Table(std::move(lhs)), Table(std::move(rhs)));
}

TEST(CancelLatencyTest, MidRunCancelFromAnotherThreadReturnsPromptly) {
  AlgebraPtr plan = LongThetaJoinPlan();
  xml::Store store;
  QueryControl control;
  QueryControl::Clock::time_point cancel_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel_at = QueryControl::Clock::now();
    control.RequestCancel();
  });
  Evaluator ev(store);
  ev.set_control(&control);
  RunExpectingError([&] { DrainStreaming(ev, *plan); },
                    engine::ErrorCode::kCancelled);
  canceller.join();  // publishes cancel_at
  auto latency = QueryControl::Clock::now() - cancel_at;
  // "Bounded interval": generous enough for sanitizer builds, far below
  // the plan's full runtime.
  EXPECT_LT(latency, std::chrono::seconds(30));
}

TEST(CancelLatencyTest, EngineRunDeadlineMsBoundsALongPlan) {
  AlgebraPtr plan = LongThetaJoinPlan();
  engine::Engine engine;
  auto start = QueryControl::Clock::now();
  RunExpectingError(
      [&] {
        engine.Run(plan, engine::ExecMode::kStreaming,
                   engine::PathMode::kIndexed, /*threads=*/0,
                   /*memory_budget_bytes=*/0, /*deadline_ms=*/5);
      },
      engine::ErrorCode::kDeadlineExceeded);
  auto elapsed = QueryControl::Clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// ---------------------------------------------------------------------------
// Q1–Q6: every plan alternative × executor × budget aborts cleanly
// ---------------------------------------------------------------------------

class LifecycleQueryTest : public ::testing::Test {
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
    engine_.AddDocument("prices.xml", datagen::GeneratePrices(n));
    engine_.RegisterDtd("prices.xml", datagen::kPricesDtd);
    datagen::AuctionOptions auction;
    auction.bids = n + n / 2;
    engine_.AddDocument("bids.xml", datagen::GenerateBids(auction));
    engine_.RegisterDtd("bids.xml", datagen::kBidsDtd);
  }

  /// For every alternative of `query`, every executor and both budgets:
  /// a pre-cancelled token must abort with kCancelled and an already-
  /// expired deadline with kDeadlineExceeded, before any result surfaces.
  void CheckQueryAborts(const std::string& query) {
    engine::CompiledQuery q = engine_.Compile(query);
    ASSERT_FALSE(q.alternatives.empty());
    for (const rewrite::Alternative& alt : q.alternatives) {
      SCOPED_TRACE("plan: " + alt.rule);
      for (uint64_t budget : {uint64_t{0}, uint64_t{1} << 20}) {
        SCOPED_TRACE("budget=" + std::to_string(budget));
        for (int kind = 0; kind < 2; ++kind) {
          engine::ErrorCode expected =
              kind == 0 ? engine::ErrorCode::kCancelled
                        : engine::ErrorCode::kDeadlineExceeded;
          SCOPED_TRACE(engine::ErrorCodeName(expected));
          for (int mode = 0; mode < 3; ++mode) {
            SCOPED_TRACE("mode=" + std::to_string(mode));
            QueryControl control;
            if (kind == 0) {
              control.RequestCancel();
            } else {
              control.SetDeadlineMs(0);
            }
            Evaluator ev(engine_.store());
            ev.set_control(&control);
            RunExpectingError(
                [&] {
                  switch (mode) {
                    case 0:
                      ev.Eval(*alt.plan);
                      break;
                    case 1: {
                      SpoolContext spool(budget);
                      ExecuteStreaming(ev, *alt.plan, nullptr, &spool);
                      break;
                    }
                    default: {
                      ParallelOptions options;
                      options.threads = 2;
                      options.memory_budget_bytes = budget;
                      ExecuteParallel(ev, *alt.plan, options);
                      break;
                    }
                  }
                },
                expected);
          }
        }
      }
    }
  }

  engine::Engine engine_;
};

TEST_F(LifecycleQueryTest, Q1Grouping) {
  CheckQueryAborts(R"(
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

TEST_F(LifecycleQueryTest, Q2Aggregation) {
  CheckQueryAborts(R"(
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

TEST_F(LifecycleQueryTest, Q3Exists) {
  CheckQueryAborts(R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return
      <book-with-review>{ $t1 }</book-with-review>
  )");
}

TEST_F(LifecycleQueryTest, Q4ExistsCount) {
  CheckQueryAborts(R"(
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

TEST_F(LifecycleQueryTest, Q5Universal) {
  CheckQueryAborts(R"(
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    where every $b2 in doc("bib.xml")//book[author = $a1]
          satisfies $b2/@year > 1993
    return
      <new-author>{ $a1 }</new-author>
  )");
}

TEST_F(LifecycleQueryTest, Q6Having) {
  CheckQueryAborts(R"(
    let $d1 := document("bids.xml")
    for $i1 in distinct-values($d1//itemno)
    where count($d1//bidtuple[itemno = $i1]) >= 3
    return
      <popular-item>{ $i1 }</popular-item>
  )");
}

TEST_F(LifecycleQueryTest, RunQueryHonoursACallerToken) {
  const char kQuery[] = R"(
    let $d1 := document("bib.xml")
    for $t1 in $d1//book/title
    where some $t2 in document("reviews.xml")//entry/title
          satisfies $t1 = $t2
    return <book-with-review>{ $t1 }</book-with-review>
  )";
  for (engine::ExecMode mode :
       {engine::ExecMode::kStreaming, engine::ExecMode::kMaterializing,
        engine::ExecMode::kParallel}) {
    SCOPED_TRACE(static_cast<int>(mode));
    {
      QueryControl cancelled;
      cancelled.RequestCancel();
      RunExpectingError(
          [&] {
            engine_.RunQuery(kQuery, mode, engine::PathMode::kIndexed, 2,
                             1024, engine::PlanChoice::kCost,
                             /*deadline_ms=*/0, &cancelled);
          },
          engine::ErrorCode::kCancelled);
    }
    {
      // deadline_ms=0 leaves the caller's pre-expired deadline untouched —
      // the deterministic way to exercise the deadline path end-to-end.
      QueryControl expired;
      expired.SetDeadlineMs(0);
      RunExpectingError(
          [&] {
            engine_.RunQuery(kQuery, mode, engine::PathMode::kIndexed, 2,
                             1024, engine::PlanChoice::kCost,
                             /*deadline_ms=*/0, &expired);
          },
          engine::ErrorCode::kDeadlineExceeded);
    }
  }
}

}  // namespace
}  // namespace nalq::nal
