#include "opt/parallel.h"

#include <algorithm>
#include <vector>

#include "nal/analysis.h"
#include "nal/physical.h"

namespace nalq::opt {

namespace {

using nal::AlgebraOp;
using nal::OpKind;
using nal::PartitionPoint;

bool IsJoinFamily(OpKind k) {
  return k == OpKind::kCross || k == OpKind::kJoin ||
         k == OpKind::kSemiJoin || k == OpKind::kAntiJoin ||
         k == OpKind::kOuterJoin || k == OpKind::kGroupBinary;
}

/// Build-side rows for every breaker that can grace-partition at run time
/// (nal/spool.h): the right operand of the join family, the input of unary
/// Γ. Keyed by the breaker node itself — the key the spill cursors pass to
/// SpoolContext::RowHint.
void CollectBreakerRows(const AlgebraOp& op,
                        const std::map<const AlgebraOp*, OpEstimate>& rec,
                        std::map<const AlgebraOp*, double>* out) {
  const AlgebraOp* side = nullptr;
  if (IsJoinFamily(op.kind) && op.children.size() >= 2) {
    side = op.child(1).get();
  } else if (op.kind == OpKind::kGroupUnary && !op.children.empty()) {
    side = op.child(0).get();
  }
  if (side != nullptr) {
    auto it = rec.find(side);
    if (it != rec.end() && it->second.rows > 0) {
      (*out)[&op] = it->second.rows;
    }
  }
  for (const nal::AlgebraPtr& c : op.children) {
    CollectBreakerRows(*c, rec, out);
  }
}

double RowsOf(const std::map<const AlgebraOp*, OpEstimate>& rec,
              const AlgebraOp* op) {
  auto it = rec.find(op);
  return it == rec.end() ? 0.0 : it->second.rows;
}

double CpuOf(const std::map<const AlgebraOp*, OpEstimate>& rec,
             const AlgebraOp* op) {
  auto it = rec.find(op);
  return it == rec.end() ? 0.0 : it->second.cpu;
}

/// CPU the consumer thread keeps even inside the parallel section: the
/// build sides of the segment's probe breakers (subtree + the build's own
/// hashing/materialization) and the Γ merge-and-emit tail.
double SerialWithinSection(const PartitionPoint& point,
                           const std::map<const AlgebraOp*, OpEstimate>& rec,
                           const CostConstants& k) {
  double serial = 0;
  for (const AlgebraOp* seg : point.segment) {
    if (!IsJoinFamily(seg->kind) || seg->children.size() < 2) continue;
    const AlgebraOp* build = seg->child(1).get();
    serial += CpuOf(rec, build);
    double build_rows = RowsOf(rec, build);
    if (seg->kind == OpKind::kCross) {
      serial += build_rows * k.tuple;
    } else if (seg->kind == OpKind::kGroupBinary) {
      serial += build_rows * k.hash_build;
    } else if (seg->pred != nullptr && nal::JoinEquiPredicate(*seg)) {
      serial += build_rows * k.hash_build;
    }
  }
  if (point.gamma != nullptr) {
    // The merge re-emits one tuple per group on the consumer.
    serial += RowsOf(rec, point.gamma) * k.tuple;
  }
  return serial;
}

}  // namespace

ParallelPlacement ChooseParallelPlacement(const xml::Store& store,
                                          const nal::AlgebraOp& root,
                                          unsigned max_threads,
                                          uint64_t memory_budget_bytes) {
  CostModel model(memory_budget_bytes);
  CardinalityEstimator estimator(store, model);
  std::map<const AlgebraOp*, OpEstimate> rec;
  estimator.set_node_recorder(&rec);
  PlanEstimate total = estimator.EstimatePlan(root);

  ParallelPlacement out;
  out.est_serial_cost = total.total_cost();
  out.est_parallel_cost = out.est_serial_cost;
  CollectBreakerRows(root, rec, &out.breaker_build_rows);

  unsigned max_dop =
      nal::ResolveParallelThreads(max_threads, memory_budget_bytes);
  if (max_dop <= 1) return out;  // serial by construction

  // Candidate cuts mirror the exchange's own budget gating: the extended
  // breakers (shared builds, routed Γ partitions) buffer in RAM, so finite
  // budgets price only the legacy per-tuple cut.
  std::vector<PartitionPoint> candidates;
  if (memory_budget_bytes == 0) {
    candidates = nal::EnumeratePartitionPoints(root);
  } else {
    std::optional<PartitionPoint> legacy = nal::FindPartitionPoint(root);
    if (legacy.has_value()) candidates.push_back(*legacy);
  }

  const CostConstants& k = model.constants();
  for (const PartitionPoint& cand : candidates) {
    const AlgebraOp* inj = cand.injection();
    if (inj == nullptr || cand.source == nullptr) continue;
    double section = CpuOf(rec, inj) - CpuOf(rec, cand.source);
    double parallel_cpu =
        std::max(section - SerialWithinSection(cand, rec, k), 0.0);
    double serial_cpu = total.cpu_cost - parallel_cpu;
    double exchange = RowsOf(rec, cand.source) * k.exchange_tuple;
    for (unsigned dop = 2; dop <= max_dop; ++dop) {
      double cost = serial_cpu + parallel_cpu / dop + exchange +
                    dop * k.worker_setup + total.io_cost;
      if (cost < out.est_parallel_cost) {
        out.est_parallel_cost = cost;
        out.point = cand;
        out.dop = dop;
      }
    }
  }
  return out;
}

}  // namespace nalq::opt
