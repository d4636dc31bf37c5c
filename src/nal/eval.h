// The NAL evaluator.
//
// Implements every operator of Sec. 2 with order-preserving semantics.
// Nested algebraic expressions in subscripts are evaluated per input tuple —
// the nested-loop strategy whose cost the unnesting equivalences eliminate —
// and the evaluator counts those evaluations and document scans so the
// benchmarks can report them. Only their correlated part is recomputed:
// Engine::Compile marks every maximal subscript subtree without free
// variables as a CSE node (rewrite/invariants.h), and such a node is
// computed once per run into the run's CseTable (nal/spool.h) and re-read
// from there by every later evaluation, on every executor and worker.
#ifndef NALQ_NAL_EVAL_H_
#define NALQ_NAL_EVAL_H_

#include <string>
#include <unordered_map>

#include "nal/algebra.h"
#include "nal/physical.h"
#include "nal/query_control.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "xml/store.h"
#include "xml/xpath.h"

namespace nalq::nal {

class CseTable;  // run-scoped common-subexpression results (nal/spool.h)

/// Counters for the memory-bounded execution layer (nal/spool.h). Unlike
/// every other EvalStats field these are NOT part of the executors'
/// determinism contract: a budgeted run spills, an unlimited run does not,
/// and the differential suites compare "non-spill" stats only while
/// asserting on these separately (tests/spool_test.cpp).
struct SpillStats {
  uint64_t spilled_bytes = 0;  ///< bytes written to spool temp files
  uint64_t spill_runs = 0;     ///< sorted runs / partition files written
  uint64_t repartitions = 0;   ///< recursive grace re-partition steps
  uint64_t merge_passes = 0;   ///< extra external-sort merge passes (fan-in)

  /// Saturating merge (see xml::SaturatingAdd), used when the parallel
  /// executor folds per-worker spill counters into the main evaluator.
  SpillStats& operator+=(const SpillStats& other) {
    spilled_bytes = xml::SaturatingAdd(spilled_bytes, other.spilled_bytes);
    spill_runs = xml::SaturatingAdd(spill_runs, other.spill_runs);
    repartitions = xml::SaturatingAdd(repartitions, other.repartitions);
    merge_passes = xml::SaturatingAdd(merge_passes, other.merge_passes);
    return *this;
  }

  bool any() const {
    return spilled_bytes != 0 || spill_runs != 0 || repartitions != 0 ||
           merge_passes != 0;
  }
};

/// Counters accumulated during evaluation.
struct EvalStats {
  uint64_t nested_alg_evals = 0;  ///< nested algebra subscript evaluations
  uint64_t doc_scans = 0;         ///< descendant-axis walks from a doc root
  uint64_t tuples_produced = 0;   ///< tuples emitted by all operators
  uint64_t predicate_evals = 0;
  xml::XPathStats xpath;
  SpillStats spill;  ///< memory-bounded execution only; zero when unlimited

  void Reset() { *this = EvalStats(); }

  /// Merges a per-worker counter set (saturating — see xml::SaturatingAdd —
  /// so a merge can never wrap a counter back to a small value). Every
  /// counter is a pure sum of per-tuple events, which is what makes the
  /// parallel executor's merged stats identical to a serial run.
  EvalStats& operator+=(const EvalStats& other) {
    nested_alg_evals =
        xml::SaturatingAdd(nested_alg_evals, other.nested_alg_evals);
    doc_scans = xml::SaturatingAdd(doc_scans, other.doc_scans);
    tuples_produced =
        xml::SaturatingAdd(tuples_produced, other.tuples_produced);
    predicate_evals =
        xml::SaturatingAdd(predicate_evals, other.predicate_evals);
    xpath += other.xpath;
    spill += other.spill;
    return *this;
  }
};

/// Evaluates algebra trees against a document store. The evaluator owns the
/// Ξ output stream; a full query run is Eval() followed by output().
class Evaluator {
 public:
  explicit Evaluator(const xml::Store& store) : store_(store) {}
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Evaluates `op` with no outer bindings, with a fresh run-scoped CSE
  /// table (each top-level run re-reads the documents). The materializing
  /// evaluator ignores memory budgets, so the table is unlimited.
  Sequence Eval(const AlgebraOp& op);

  /// Evaluates `op` with outer variable bindings `env` (used for nested
  /// algebraic expressions).
  Sequence EvalOp(const AlgebraOp& op, const Tuple& env);

  /// Evaluates a scalar expression. `local` is the current tuple (shadows
  /// `env`).
  Value EvalExpr(const Expr& e, const Tuple& local, const Tuple& env);

  /// Effective boolean value of an expression.
  bool EvalPred(const Expr& e, const Tuple& local, const Tuple& env);

  /// Applies an aggregate spec to a group (with outer bindings for its
  /// filter predicate).
  Value ApplyAgg(const AggSpec& agg, const Sequence& group, const Tuple& env);

  /// Move form: f = id without a filter adopts the group sequence instead of
  /// copying it (the hot path of Γ with grouping-based plans).
  Value ApplyAgg(const AggSpec& agg, Sequence&& group, const Tuple& env) {
    if (agg.kind == AggSpec::Kind::kId && !agg.has_filter()) {
      return Value::FromTuples(std::move(group));
    }
    return ApplyAgg(agg, group, env);
  }

  /// f(ε): the meaningful value f assigns to the empty group.
  Value AggEmptyValue(const AggSpec& agg);

  /// Renders a value onto the Ξ output stream the way result construction
  /// does: nodes serialize as subtrees, atomics as encoded text, sequences
  /// item-wise.
  void RenderValue(const Value& v, std::string* out) const;

  const std::string& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

  EvalStats& stats() { return stats_; }
  const xml::Store& store() const { return store_; }

  /// Opt-in per-operator profiling sink (obs/profile.h), or null = off —
  /// the only hot-path cost of "off" is the null check in CountProduced.
  /// Shared by pointer like the control token; must outlive the run. The
  /// exchange gives each worker evaluator its own clone and folds at Close.
  void set_profile(obs::ProfileCollector* profile) { profile_ = profile; }
  obs::ProfileCollector* profile() const { return profile_; }

  /// Lifecycle span sink (obs/trace.h), or null = off. Thread-safe, so the
  /// exchange shares the run's one log with every worker evaluator.
  void set_trace(obs::TraceLog* trace) { trace_ = trace; }
  obs::TraceLog* trace() const { return trace_; }

  /// THE count site: every tuple any operator of any executor emits funnels
  /// through here (probe::CountProducedTuple per streamed tuple, EvalOp per
  /// materialized batch), which is what lets profiling attribute rows to
  /// the operator in scope exactly — per-operator rows partition
  /// tuples_produced and match across executors by construction.
  void CountProduced(uint64_t n) {
    stats_.tuples_produced += n;
    if (profile_ != nullptr && profile_->current() != nullptr) {
      profile_->current()->rows += n;
    }
  }

  /// Cancellation/deadline token for the run (nal/query_control.h), or null
  /// for an uncontrolled run. Shared by pointer: Engine::Run wires one token
  /// into the main evaluator and the exchange clones it onto every worker
  /// evaluator, so a single RequestCancel stops all of them. The token must
  /// outlive the run.
  void set_control(QueryControl* control) { control_ = control; }
  QueryControl* control() const { return control_; }

  /// Cancellation point: throws engine::Error{kCancelled|kDeadlineExceeded}
  /// once the run's token trips; near-free otherwise. Called per operator
  /// evaluation, per predicate, and — via probe::CountProducedTuple — per
  /// produced tuple, which bounds the interval between checks on every
  /// executor (see src/nal/README.md, "Query lifecycle").
  void CheckInterrupt() {
    if (control_ != nullptr) control_->Poll();
  }

  /// How path expressions resolve their steps (xml/xpath.h). Shared by both
  /// executors — the streaming cursors evaluate their path nodes through
  /// this evaluator's EvalExpr, so one setting governs a whole run. Results
  /// are mode-independent; only the XPathStats counters differ.
  void set_path_mode(xml::PathEvalMode mode) { path_mode_ = mode; }
  xml::PathEvalMode path_mode() const { return path_mode_; }

  /// XQuery general comparison between two (possibly sequence) values.
  bool GeneralCompare(CmpOp op, const Value& lhs, const Value& rhs);

  /// Runs one Ξ command program for tuple `t` (appends to the output
  /// stream). Public so the streaming executor (cursor.h) shares the exact
  /// result-construction path.
  void RunXiProgram(const XiProgram& program, const Tuple& t,
                    const Tuple& env);

  /// The run's common-subexpression table, or null: CSE nodes are then
  /// evaluated like any other node. Shared by pointer like the control
  /// token: the run entry points (Eval, DrainStreaming, the exchange) bind
  /// one table per run through ScopedCseTable, and the exchange binds the
  /// same table on every worker evaluator. Must outlive its binding.
  void set_cse_table(CseTable* table) { cse_ = table; }
  CseTable* cse_table() const { return cse_; }

 private:
  /// EvalOp for a caller that only reads the result: a CSE entry held in
  /// RAM is read in place instead of copied; anything else is evaluated
  /// into `*scratch`, which the caller may move tuples out of.
  const Sequence& EvalOpForRead(const AlgebraOp& op, const Tuple& env,
                                Sequence* scratch);
  /// EvalOp without the CSE lookup: evaluates and counts `op` itself.
  Sequence EvalOpUncached(const AlgebraOp& op, const Tuple& env);
  Sequence EvalSelect(const AlgebraOp& op, const Tuple& env);
  Sequence EvalProject(const AlgebraOp& op, const Tuple& env);
  Sequence EvalMap(const AlgebraOp& op, const Tuple& env);
  Sequence EvalUnnestMap(const AlgebraOp& op, const Tuple& env);
  Sequence EvalUnnest(const AlgebraOp& op, const Tuple& env);
  Sequence EvalCrossJoin(const AlgebraOp& op, const Tuple& env);
  Sequence EvalSemiAntiJoin(const AlgebraOp& op, const Tuple& env);
  Sequence EvalOuterJoin(const AlgebraOp& op, const Tuple& env);
  Sequence EvalGroupUnary(const AlgebraOp& op, const Tuple& env);
  Sequence EvalGroupBinary(const AlgebraOp& op, const Tuple& env);
  Sequence EvalSort(const AlgebraOp& op, const Tuple& env);
  Sequence EvalXi(const AlgebraOp& op, const Tuple& env);
  Sequence EvalXiGroup(const AlgebraOp& op, const Tuple& env);

  Value EvalFnCall(const Expr& e, const Tuple& local, const Tuple& env);
  Value EvalPathExpr(const Expr& e, const Tuple& local, const Tuple& env);
  bool AtomicCompare(CmpOp op, const Value& lhs, const Value& rhs);

  /// Rendered form of a node on the Ξ stream (serialized subtree for
  /// elements, entity-encoded string value otherwise), memoized because
  /// grouping queries render the same subtree once per group it appears in.
  const std::string& RenderedNode(xml::NodeRef ref) const;

  const xml::Store& store_;
  EvalStats stats_;
  QueryControl* control_ = nullptr;
  obs::ProfileCollector* profile_ = nullptr;
  obs::TraceLog* trace_ = nullptr;
  xml::PathEvalMode path_mode_ = xml::PathEvalMode::kIndexed;
  std::string output_;
  CseTable* cse_ = nullptr;
  mutable std::unordered_map<xml::NodeRef, std::string, xml::NodeRefHash>
      render_cache_;
};

/// Binds `table` as `ev`'s CSE table for the guard's lifetime and restores
/// the previous binding after — the run-scoped form every entry point uses.
class ScopedCseTable {
 public:
  ScopedCseTable(Evaluator& ev, CseTable* table)
      : ev_(ev), saved_(ev.cse_table()) {
    ev_.set_cse_table(table);
  }
  ~ScopedCseTable() { ev_.set_cse_table(saved_); }
  ScopedCseTable(const ScopedCseTable&) = delete;
  ScopedCseTable& operator=(const ScopedCseTable&) = delete;

 private:
  Evaluator& ev_;
  CseTable* saved_;
};

/// Flattens a value to its item sequence (null → empty, atomic/node →
/// singleton, item-seq → items, tuple-seq → single-attribute values).
void FlattenToItems(const Value& v, ItemSeq* out);

/// Effective boolean value per the XQuery rules the paper assumes.
bool EffectiveBooleanValue(const Value& v);

}  // namespace nalq::nal

#endif  // NALQ_NAL_EVAL_H_
