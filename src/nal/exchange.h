// Parallel partitioned execution for the NAL streaming executor — classical
// exchange-operator parallelism over the Volcano cursors of cursor.h.
//
// The plan is cut at a *partition point*: a maximal run of per-tuple
// streaming operators (σ, χ, Υ, μ, Π-keep/drop — see IsPartitionableOp)
// sitting above an expanding producer. The producer subtree runs serially on
// the consumer thread and its tuple stream is split into chunks ("morsels");
// each chunk becomes a task on the work-stealing scheduler (scheduler.h)
// that runs the chunk through a per-worker clone of the operator run — its
// own cursor chain over the shared plan, driven by its own Evaluator — and
// publishes the resulting packet under the chunk's ticket. The MergeCursor
// re-emits packets in strict ticket order, so the merged stream is
// tuple-for-tuple the serial streaming stream.
//
// Determinism guarantees, at any worker count and chunk size:
//   * output bytes — the worker segment never writes to the Ξ output stream
//     (enforced by IsPartitionableOp), everything above the exchange runs on
//     the consumer thread in merge order, and the producer subtree runs
//     serially on the consumer thread too, so every output write happens in
//     the serial order;
//   * merged EvalStats — every per-worker counter counts per-tuple events
//     exactly once, so the fold of worker stats into the main evaluator at
//     Close (EvalStats::operator+=) reproduces the serial totals. CSE nodes
//     in worker subscripts keep this: every worker binds the run's one
//     CseTable (spool.h), which fills each entry once, counted by
//     whichever evaluator filled it.
// tests/exchange_exec_test.cpp asserts both differentially.
//
// Shared read paths that make this safe: the store's build-once index latch
// (xml/store.h), the CseTable's per-entry once-latch (spool.h), the
// mutex-guarded node string-value memo (xml/node.h) and
// the per-thread scratch buffers in xpath.cpp/physical.cpp.
#ifndef NALQ_NAL_EXCHANGE_H_
#define NALQ_NAL_EXCHANGE_H_

#include <map>
#include <optional>
#include <vector>

#include "nal/cursor.h"

namespace nalq::nal {

/// How source tuples are assigned to chunks.
enum class PartitionStrategy : uint8_t {
  /// Fixed-size chunks dispatched round-robin as the producer streams —
  /// bounded memory, overlap of production and processing.
  kRoundRobin,
  /// The producer is materialized and split into `threads` contiguous
  /// ranges, one chunk per worker — fewer, larger tasks; the classical
  /// range-partitioned exchange.
  kRange,
};

/// A chosen cut of the plan: `segment` (top-down, segment.front() == top)
/// is the run of partitionable operators every worker clones; `source` is
/// the producer subtree below it, evaluated serially. The segment may
/// contain probe-partitionable breakers (IsProbePartitionableOp): their
/// build sides are materialized once on the consumer and probed read-only
/// by every worker. `gamma`, when set, is a partitionable unary Γ sitting
/// directly above `top` (or directly above `source` when the segment is
/// empty) whose groups are hash-partitioned across workers and merged in
/// first-occurrence order.
struct PartitionPoint {
  const AlgebraOp* top = nullptr;
  std::vector<const AlgebraOp*> segment;
  const AlgebraOp* source = nullptr;
  const AlgebraOp* gamma = nullptr;

  /// The node MakeCursor's exchange injection replaces: the Γ when the
  /// point carries one, else the segment top.
  const AlgebraOp* injection() const { return gamma != nullptr ? gamma : top; }
};

struct ParallelOptions {
  /// Degree of parallelism (worker pipelines / concurrent chunk tasks).
  /// 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
  PartitionStrategy strategy = PartitionStrategy::kRoundRobin;
  /// Morsel size for round-robin partitioning.
  uint32_t chunk_tuples = 64;
  /// Memory budget for the whole parallel run (0 = unlimited, falling back
  /// to NALQ_MEMORY_BUDGET_BYTES like the serial entry points). One
  /// MemoryBudget accountant carries the limit for every participant: the
  /// consumer pipeline (which runs every pipeline breaker) and all worker
  /// pipelines reserve against it, so the global bound holds without
  /// throttling the breakers to a fraction of it. Worker spool files live
  /// in worker-private directories, and the effective degree of
  /// parallelism is clamped (see kMinWorkerBudgetBytes) so a high thread
  /// count cannot over-commit the budget through per-worker in-flight
  /// state.
  uint64_t memory_budget_bytes = 0;
  /// Caller-chosen partition point (the cost-driven chooser in
  /// opt/parallel.h). Honored only when `point_resolved` is true; a
  /// resolved-but-empty point forces serial streaming. When unresolved the
  /// run picks its own point: the breaker-extended scan under an unlimited
  /// budget, the per-tuple legacy scan otherwise.
  std::optional<PartitionPoint> point;
  bool point_resolved = false;
  /// Estimated build-side rows per breaker node (opt/parallel.h), consumed
  /// by the spool layer's grace-partition admission policy. Borrowed; must
  /// outlive the run. Null = no hints (static partition-count rule).
  const std::map<const AlgebraOp*, double>* breaker_row_hints = nullptr;
};

/// Per-worker footprint the budget accountant cannot see — the dispatch-
/// window chunk and result packet in flight on each worker. The effective
/// worker count is clamped to budget / this (minimum one), keeping that
/// uncharged memory proportional to the budget.
inline constexpr uint64_t kMinWorkerBudgetBytes = 256 * 1024;

/// What FindPartitionPoint may put in a segment beyond the per-tuple
/// operators. Both extensions keep breaker state in RAM (the shared build /
/// the routed partitions), so callers enable them only on unlimited-budget
/// runs; under a finite budget the legacy per-tuple segment keeps every
/// breaker on the consumer where the spool layer bounds it.
struct PartitionScan {
  bool shared_probe = false;  ///< allow IsProbePartitionableOp breakers
  bool gamma = false;         ///< allow a Γ pre-aggregation extension
};

/// The effective degree of parallelism for a `threads` request: the request
/// itself when non-zero, else the NALQ_THREADS environment knob (malformed
/// values throw kPlanError — env_knobs.h), else one worker per hardware
/// core. `budget_bytes` != 0 additionally applies the kMinWorkerBudgetBytes
/// clamp. Exposed so the cost-driven placement chooser (opt/parallel.h)
/// prices exactly the worker count the exchange would run.
unsigned ResolveParallelThreads(unsigned threads, uint64_t budget_bytes);

/// Finds the deepest maximal run of partitionable operators on the plan's
/// child(0) spine whose producer is an expanding operator (Υ/μ), demoting
/// non-expanding spine tail ops into the source so the chunked stream has
/// real cardinality. nullopt if the plan has no such cut — the caller falls
/// back to serial streaming.
std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root);

/// Scan-controlled form: `scan.shared_probe` admits probe-partitionable
/// breakers into the segment, `scan.gamma` additionally attaches a
/// partitionable Γ directly above it (or alone when no segment exists).
/// FindPartitionPoint(root) == FindPartitionPoint(root, {}) — the legacy
/// per-tuple rule.
std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root,
                                                 const PartitionScan& scan);

/// Every distinct candidate placement the cost-driven chooser
/// (opt/parallel.h) prices: the legacy per-tuple point, the probe-extended
/// point, and their Γ-extended variants, deduplicated. Order is
/// deterministic; may be empty.
std::vector<PartitionPoint> EnumeratePartitionPoints(const AlgebraOp& root);

/// Pull-runs `op` with the partitionable segment executed in parallel,
/// discarding root tuples — the parallel counterpart of DrainStreaming.
/// Byte-identical output and identical (merged) EvalStats at any `threads`
/// and any memory budget. Falls back to serial streaming when no partition
/// point exists.
uint64_t DrainParallel(Evaluator& ev, const AlgebraOp& op,
                       const ParallelOptions& options = {},
                       StreamStats* stream = nullptr);

/// Pull-runs `op` in parallel and collects the root output — the parallel
/// counterpart of ExecuteStreaming, used by the differential tests.
Sequence ExecuteParallel(Evaluator& ev, const AlgebraOp& op,
                         const ParallelOptions& options = {},
                         StreamStats* stream = nullptr);

}  // namespace nalq::nal

#endif  // NALQ_NAL_EXCHANGE_H_
