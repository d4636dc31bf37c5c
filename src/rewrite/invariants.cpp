#include "rewrite/invariants.h"

#include <algorithm>
#include <vector>

#include "nal/analysis.h"

namespace nalq::rewrite {

namespace {

using nal::AlgebraOp;
using nal::AlgebraPtr;
using nal::Expr;
using nal::ExprKind;
using nal::ExprPtr;
using nal::ForEachSubscript;
using nal::OpKind;

/// Calls `fn` on the outermost algebra nested in `e`: kNestedAlg bodies and
/// kQuant ranges.
template <typename Fn>
void ForEachNestedAlg(const Expr& e, Fn&& fn) {
  if (e.alg != nullptr) fn(*e.alg);
  if (e.agg.filter != nullptr) ForEachNestedAlg(*e.agg.filter, fn);
  for (const ExprPtr& c : e.children) ForEachNestedAlg(*c, fn);
}

bool ContainsPath(const AlgebraOp& op);

bool EvaluatesPath(const Expr& e) {
  if (e.kind == ExprKind::kPath) return true;
  if (e.alg != nullptr && ContainsPath(*e.alg)) return true;
  if (e.agg.filter != nullptr && EvaluatesPath(*e.agg.filter)) return true;
  return std::any_of(e.children.begin(), e.children.end(),
                     [](const ExprPtr& c) { return EvaluatesPath(*c); });
}

/// True if evaluating the subtree resolves a path expression — the "scan"
/// that makes caching it worth a table entry.
bool ContainsPath(const AlgebraOp& op) {
  bool found = false;
  ForEachSubscript(op,
                   [&](const Expr& e) { found = found || EvaluatesPath(e); });
  if (found) return true;
  return std::any_of(op.children.begin(), op.children.end(),
                     [](const AlgebraPtr& c) { return ContainsPath(*c); });
}

bool Invariant(const AlgebraOp& op) {
  return ContainsPath(op) && !nal::ContainsXi(op) &&
         nal::FreeVars(op).empty();
}

void Conjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kAnd) {
    Conjuncts(e->children[0], out);
    Conjuncts(e->children[1], out);
  } else {
    out->push_back(e);
  }
}

ExprPtr Conjunction(std::vector<ExprPtr>::const_iterator begin,
                    std::vector<ExprPtr>::const_iterator end) {
  ExprPtr out;
  for (auto it = begin; it != end; ++it) out = nal::MakeAnd(out, *it);
  return out;
}

/// σ_{p∧q}(e) → σ_q(σ_p(e)) for the longest prefix p of conjuncts that only
/// read attributes of an invariant e.
void SplitLeadingInvariants(AlgebraOp& op) {
  if (op.kind != OpKind::kSelect || op.pred->kind != ExprKind::kAnd) return;
  const AlgebraOp& input = *op.child(0);
  if (!Invariant(input)) return;
  std::vector<ExprPtr> conjuncts;
  Conjuncts(op.pred, &conjuncts);
  nal::SymbolSet bound = nal::OutputAttrs(input).attrs;
  size_t k = 0;
  while (k < conjuncts.size() &&
         nal::FreeVarsExpr(*conjuncts[k], bound).empty() &&
         !nal::ContainsXiExpr(*conjuncts[k])) {
    ++k;
  }
  if (k == 0 || k == conjuncts.size()) return;
  auto split = conjuncts.begin() + static_cast<std::ptrdiff_t>(k);
  op.children[0] =
      nal::Select(Conjunction(conjuncts.begin(), split), op.children[0]);
  op.pred = Conjunction(split, conjuncts.end());
}

class Marker {
 public:
  explicit Marker(int next_id) : next_id_(next_id) {}

  int marked() const { return marked_; }

  /// An operator outside subscripts: evaluated once per run already, so
  /// only the algebra in its subscripts is considered.
  void VisitPlan(AlgebraOp& op) {
    VisitSubscripts(op);
    for (const AlgebraPtr& c : op.children) VisitPlan(*c);
  }

 private:
  void VisitSubscripts(AlgebraOp& op) {
    ForEachSubscript(op, [&](const Expr& e) {
      ForEachNestedAlg(e, [&](AlgebraOp& alg) { VisitSubscriptAlg(alg); });
    });
  }

  /// Subscript algebra: marks the maximal invariant subtrees.
  void VisitSubscriptAlg(AlgebraOp& op) {
    if (op.cse_id >= 0) return;  // already shared
    if (Invariant(op)) {
      op.cse_id = next_id_++;
      ++marked_;
      return;
    }
    SplitLeadingInvariants(op);
    VisitSubscripts(op);
    for (const AlgebraPtr& c : op.children) VisitSubscriptAlg(*c);
  }

  int next_id_;
  int marked_ = 0;
};

/// Largest cse_id anywhere in the plan, subscripts included (-1 if none).
int MaxCseId(const AlgebraOp& op) {
  int out = op.cse_id;
  ForEachSubscript(op, [&](const Expr& e) {
    ForEachNestedAlg(e, [&](const AlgebraOp& alg) {
      out = std::max(out, MaxCseId(alg));
    });
  });
  for (const AlgebraPtr& c : op.children) out = std::max(out, MaxCseId(*c));
  return out;
}

bool HasSubscriptAlg(const AlgebraOp& op) {
  bool found = false;
  ForEachSubscript(op, [&](const Expr& e) {
    ForEachNestedAlg(e, [&](const AlgebraOp&) { found = true; });
  });
  if (found) return true;
  return std::any_of(op.children.begin(), op.children.end(),
                     [](const AlgebraPtr& c) { return HasSubscriptAlg(*c); });
}

}  // namespace

AlgebraPtr ShareInvariantSubscripts(const AlgebraPtr& plan) {
  if (!HasSubscriptAlg(*plan)) return plan;
  AlgebraPtr copy = plan->Clone();
  Marker marker(MaxCseId(*copy) + 1);
  marker.VisitPlan(*copy);
  return marker.marked() > 0 ? copy : plan;
}

}  // namespace nalq::rewrite
