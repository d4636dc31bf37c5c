// Differential helpers for nested-plan suites: run one plan on every
// executor, dop and memory budget, compare output bytes against the
// definitional reference evaluator and EvalStats against the materializing
// run. Shared by invariant_reuse_test and keyed_probe_test.
#ifndef NALQ_TESTS_PLAN_RUNS_H_
#define NALQ_TESTS_PLAN_RUNS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "nal/cursor.h"
#include "nal/exchange.h"
#include "nal/reference.h"
#include "nal/spool.h"

namespace nalq::testutil {

inline constexpr uint64_t kBudgets[] = {0, 64 * 1024, 1024 * 1024};

inline ::testing::AssertionResult StatsEq(const nal::EvalStats& expected,
                                          const nal::EvalStats& actual) {
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
  nal::EvalStats stats;
  nal::StreamStats stream;
  uint64_t budget_left = 0;  ///< bytes still charged after the run
};

enum class Exec { kMaterializing, kStreaming, kParallel };

inline Outcome RunPlan(const xml::Store& store, const nal::AlgebraPtr& plan,
                       Exec exec, unsigned threads = 1, uint64_t budget = 0) {
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
inline Outcome CheckEverywhere(const xml::Store& store,
                               const nal::AlgebraPtr& plan,
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
inline int MaxMark(const nal::AlgebraOp& op) {
  int out = op.cse_id;
  auto visit_expr = [&](const auto& self, const nal::Expr& e) -> void {
    if (e.alg != nullptr) out = std::max(out, MaxMark(*e.alg));
    for (const nal::ExprPtr& c : e.children) self(self, *c);
  };
  for (const nal::ExprPtr* e : {&op.pred, &op.expr}) {
    if (*e != nullptr) visit_expr(visit_expr, **e);
  }
  for (const nal::AlgebraPtr& c : op.children) {
    out = std::max(out, MaxMark(*c));
  }
  return out;
}

/// Ξ output of the definitional evaluator (nal/reference.h), which covers
/// the Sec. 2 core operators: it evaluates the root Ξ's input, and the Ξ
/// program renders each tuple through the shared result-construction path.
/// The evaluator has no CSE table bound, so marks and keyed probes are
/// ignored.
inline std::string ReferenceOutput(const xml::Store& store,
                                   const nal::AlgebraPtr& plan) {
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

}  // namespace nalq::testutil

#endif  // NALQ_TESTS_PLAN_RUNS_H_
