// Streaming, Volcano-style pull executor for the NAL algebra.
//
// One cursor per operator with the classic Open/Next/Close protocol.
// Tuples flow one at a time from the leaves to the root; a full intermediate
// Sequence is materialized only at the true pipeline breakers:
//
//   * Sort            — needs its whole input before the first output tuple,
//   * hash build sides — the right operand of ⋈/⋉/▷/outer-join/binary-Γ,
//   * Γ group construction — unary Γ and the group-detecting Ξ bucket their
//                       whole input by key,
//   * CSE nodes       — a shared subtree is computed once per run into the
//                       run's CseTable (nal/spool.h) and re-read from there,
//   * Ξ over Ξ        — a Ξ cursor materializes its input iff the subtree
//                       below it contains another Ξ, so interleaving pulls
//                       can never reorder writes on the shared output stream.
//
// Everything else (σ, Π, χ, Υ, μ, the probe side of every join, Ξ) streams.
//
// Order preservation: probes run in left-input order and hash buckets keep
// positions in right-input order (physical.h), exactly like the materializing
// evaluator — so the streamed output is tuple-for-tuple identical to
// Evaluator::Eval, and the EvalStats counters (nested_alg_evals, doc_scans,
// tuples_produced, predicate_evals, xpath) count identically. The
// differential suite in tests/streaming_exec_test.cpp asserts both.
//
// Path nodes: the cursors that evaluate path expressions (χ/Υ via
// Evaluator::EvalExpr) inherit the evaluator's PathEvalMode, so one
// set_path_mode() call governs indexed-vs-scan path resolution for a whole
// streaming run exactly as it does for a materializing run — the executors
// stay stat-identical under either mode.
#ifndef NALQ_NAL_CURSOR_H_
#define NALQ_NAL_CURSOR_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "nal/algebra.h"
#include "nal/eval.h"

namespace nalq::nal {

class SpoolContext;  // memory-bounded execution (nal/spool.h)

/// Streaming-executor bookkeeping, independent of EvalStats (which must stay
/// byte-identical across executors). Tracks how much the pipeline buffers so
/// tests can assert that pipelineable plans never materialize an
/// intermediate.
struct StreamStats {
  uint64_t buffered_tuples = 0;   ///< currently live in breaker buffers
  uint64_t peak_buffered = 0;     ///< high-water mark of the above
  uint64_t materialized_nodes = 0;  ///< breaker nodes that actually buffered
  uint64_t exchange_chunks = 0;   ///< morsels dispatched by an exchange

  // Parallel-breaker bookkeeping (exchange.h): which breakers the run
  // managed to parallelize and at what width. Executor-private like the
  // rest of StreamStats — EvalStats stays byte-identical across executors.
  uint64_t shared_probe_breakers = 0;  ///< joins probed through a shared build
  uint64_t gamma_partitions = 0;  ///< Γ partitions aggregated by workers
  uint64_t exchange_dop = 0;      ///< widest exchange degree of parallelism

  void OnBuffer(uint64_t n) {
    buffered_tuples += n;
    if (buffered_tuples > peak_buffered) peak_buffered = buffered_tuples;
    ++materialized_nodes;
  }
  void OnRelease(uint64_t n) { buffered_tuples -= n; }
  /// Exchange in-flight accounting: a chunk is buffered between dispatch and
  /// consumption of its result packet, but the exchange is not a breaker
  /// node, so materialized_nodes stays untouched.
  void OnChunkDispatch(uint64_t n) {
    buffered_tuples += n;
    if (buffered_tuples > peak_buffered) peak_buffered = buffered_tuples;
    ++exchange_chunks;
  }
};

/// The Volcano iterator protocol. Cursors are single-use: Open once, Next
/// until false, Close. Each cursor owns its children.
class Cursor {
 public:
  virtual ~Cursor() = default;
  virtual void Open() = 0;
  /// Produces the next tuple into `*out`; false at end of stream.
  virtual bool Next(Tuple* out) = 0;
  virtual void Close() = 0;
};

using CursorPtr = std::unique_ptr<Cursor>;

/// Shared state of one streaming execution: the evaluator supplies
/// expression evaluation, statistics, the Ξ output stream and the CSE table;
/// `env` is the (top-level, empty) outer binding every operator sees.
///
/// The plan/state split that makes operators per-worker clonable: a cursor
/// holds only a `const AlgebraOp&` into the shared plan plus its own mutable
/// iteration state, and every expression evaluation goes through `ev`. The
/// parallel exchange (exchange.h) instantiates one cursor chain — with its
/// own ExecContext and Evaluator — per worker over the one shared plan.
struct ExecContext {
  Evaluator* ev = nullptr;
  const Tuple* env = nullptr;
  StreamStats* stream = nullptr;  ///< optional

  /// Memory-bounded execution (nal/spool.h): when set and carrying a finite
  /// budget, the pipeline breakers buffer through the spool layer — grace
  /// partitioning for hash builds, external merge sort for Sort/Γ — instead
  /// of materializing fully in RAM. Null or unlimited preserves the plain
  /// in-memory breakers bit for bit.
  SpoolContext* spool = nullptr;

  /// Exchange injection point (exchange.h): when MakeCursor reaches the
  /// plan node `exchange_op`, it returns make_exchange(ctx) — the exchange
  /// cursor spanning that node's partitionable segment — instead of the
  /// serial operator cursor. One-shot; null in plain streaming execution.
  const AlgebraOp* exchange_op = nullptr;
  std::function<CursorPtr(ExecContext&)> make_exchange;
};

/// Builds the cursor tree for `op`. `ctx` must outlive the cursor.
CursorPtr MakeCursor(const AlgebraOp& op, ExecContext& ctx);

/// True if `op`'s cursor processes input tuples one at a time with no state
/// spanning tuples, is not itself a CSE node, and writes no Ξ output —
/// anywhere, including algebra nested in its subscript expressions. Exactly
/// these operators may be instantiated once per worker over a partition of
/// their input without changing output bytes or merged EvalStats
/// (exchange.h): σ, χ, Υ, μ/μD and Π in keep/drop/rename form. CSE nodes
/// inside their subscripts are fine: every worker reads the run's one
/// CseTable (nal/spool.h), which computes and counts each entry once.
bool IsPartitionableOp(const AlgebraOp& op);

/// Builds the operator cursor for the unary, partitionable `op` reading
/// from `input` instead of building `op.child(0)` — the per-worker clone
/// path of the exchange. Precondition: IsPartitionableOp(op).
CursorPtr MakeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                         CursorPtr input);

// ---------------------------------------------------------------------------
// Shared-build parallel probe (exchange.h tentpole): the build side of a
// join-family breaker is materialized ONCE on the consumer thread and
// published read-only; each exchange worker then probes it through its own
// JoinProbeLoops over its partition of the probe stream. Safe because the
// probe loops keep no state across left tuples, the HashIndex/Sequence are
// immutable after Build, and the atomize/string-value memo paths they read
// are already thread-safe (the guarantees exchange.h lists).
// ---------------------------------------------------------------------------

/// The consumer-built, read-only right side of one probe-partitionable
/// breaker: the materialized build sequence, its hash index (when the
/// predicate has equality conjuncts), and the outer join's ⊥-padding
/// attributes and default value. Defined in cursor.cpp; shared_ptr keeps
/// the type opaque to exchange.cpp.
struct SharedJoinBuild;
using SharedJoinBuildPtr = std::shared_ptr<SharedJoinBuild>;

/// True if `op` is a join-family breaker (⋈/×/⋉/▷/outer-join/binary-Γ)
/// whose PROBE side may be partitioned across workers against a shared
/// build: the node is not CSE-shared, its subscripts write no Ξ output
/// (workers evaluate them), and the build
/// subtree (child(1)) is Ξ-free — it runs once on the consumer, but out of
/// serial write order relative to nothing, so any Ξ inside would still be
/// consumer-serial; the restriction keeps the build's evaluation point
/// unobservable.
bool IsProbePartitionableOp(const AlgebraOp& op);

/// True if `op` is a unary Γ over '=' whose group construction may be
/// hash-partitioned across workers (exchange.h pre-aggregation): every
/// group lives entirely in one partition, so any aggregate works without a
/// partial-state merge. Same subscript restrictions as the probe case.
bool IsGammaPartitionableOp(const AlgebraOp& op);

/// Materializes `op`'s build side through `ctx` (consumer thread): the
/// exact work the serial cursor's Open would do, including the StreamStats
/// buffer charge and the outer join's default-value evaluation.
/// Precondition: IsProbePartitionableOp(op).
SharedJoinBuildPtr BuildSharedJoin(const AlgebraOp& op, ExecContext& ctx);

/// Releases the build's StreamStats buffer charge (idempotent; call from
/// the exchange's Close).
void ReleaseSharedJoin(SharedJoinBuild& build, ExecContext& ctx);

/// Builds the probe-side cursor of `op` for one worker: reads the worker's
/// partition from `input` and probes `build` read-only. Precondition:
/// `build` was built for this same `op` and outlives the cursor.
CursorPtr MakeProbeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr input, const SharedJoinBuild& build);

/// Pull-runs `op` to exhaustion, discarding root tuples (Ξ side effects
/// accumulate on the evaluator's output stream). Binds a fresh run-scoped
/// CseTable charged to the run's budget, mirroring Evaluator::Eval. Returns
/// the number of root tuples.
///
/// `spool` opts the run into memory-bounded execution (nal/spool.h). When
/// null, the NALQ_MEMORY_BUDGET_BYTES environment variable — read once per
/// process — supplies a default budget, so existing differential suites can
/// be re-run with spilling active without code changes.
uint64_t DrainStreaming(Evaluator& ev, const AlgebraOp& op,
                        StreamStats* stream = nullptr,
                        SpoolContext* spool = nullptr);

/// Pull-runs `op` and collects the root output — the streaming counterpart
/// of Evaluator::Eval, used by the differential tests.
Sequence ExecuteStreaming(Evaluator& ev, const AlgebraOp& op,
                          StreamStats* stream = nullptr,
                          SpoolContext* spool = nullptr);

}  // namespace nalq::nal

#endif  // NALQ_NAL_CURSOR_H_
