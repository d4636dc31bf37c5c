#include "opt/cardinality.h"

#include <algorithm>
#include <cmath>

#include "nal/analysis.h"
#include "nal/physical.h"

namespace nalq::opt {

namespace {

using nal::AlgebraOp;
using nal::Expr;
using nal::ExprKind;
using nal::OpKind;
using nal::Symbol;

/// Outer bindings merged under the child's own attributes (subscript
/// expressions see both; the child wins on collisions).
Scope Merged(const Scope& child, const Scope& outer) {
  if (outer.empty()) return child;
  Scope out = outer;
  for (const auto& [a, p] : child) out[a] = p;
  return out;
}

AttrProfile UnknownNode() {
  AttrProfile p;
  p.is_node = true;
  return p;
}

double Clamp01(double s) { return std::clamp(s, 0.0, 1.0); }

}  // namespace

double CardinalityEstimator::TupleBytes(const Scope& scope) {
  double b = 48;
  for (const auto& [a, p] : scope) {
    (void)a;
    b += 40;
    if (p.seq_rows > 0) b += p.seq_rows * 72;
  }
  return b;
}

double CardinalityEstimator::DistinctRows(const std::vector<Symbol>& attrs,
                                          const Scope& scope,
                                          double rows) const {
  if (rows <= 1 || attrs.empty()) return std::max(rows, 0.0);
  double known = 1;
  bool any_unknown = false;
  for (Symbol a : attrs) {
    const AttrProfile* p = Find(scope, a);
    if (p != nullptr && p->distinct > 0) {
      known *= p->distinct;
    } else {
      any_unknown = true;
    }
  }
  if (any_unknown) known = std::max(known, rows * 0.5);
  return std::min(rows, std::max(known, 1.0));
}

double CardinalityEstimator::StepFanout(const AttrProfile& from,
                                        const xml::Step& step,
                                        AttrProfile* result) const {
  *result = UnknownNode();
  if (!from.is_node || from.doc >= store_.size()) {
    return kDefaultStepFanout;
  }
  const xml::Document& doc = store_.document(from.doc);
  const xml::DocumentStats& stats = store_.stats(from.doc);
  result->doc = from.doc;
  uint32_t name = step.wildcard() || step.axis == xml::Axis::kText
                      ? UINT32_MAX
                      : doc.names().Find(step.name);
  result->name_id = name;
  result->name_is_attribute = step.axis == xml::Axis::kAttribute;
  if (step.axis == xml::Axis::kAttribute) {
    result->distinct = static_cast<double>(stats.DistinctAttrValues(name));
  } else if (!step.wildcard() && step.axis != xml::Axis::kText) {
    result->distinct = static_cast<double>(stats.DistinctElementValues(name));
  }
  // A name that never occurs resolves to the empty result everywhere.
  if (name == UINT32_MAX && !step.wildcard() &&
      step.axis != xml::Axis::kText) {
    return 0;
  }

  if (from.is_doc_root) {
    switch (step.axis) {
      case xml::Axis::kDescendant:
        return step.wildcard()
                   ? static_cast<double>(stats.element_count())
                   : static_cast<double>(stats.ElementCount(name));
      case xml::Axis::kChild: {
        // The document node has exactly one element child: the root.
        xml::NodeId root_elem = doc.first_child(doc.root());
        if (root_elem == xml::kNoNode) return 0;
        if (step.wildcard() || doc.name_id(root_elem) == name) {
          result->name_id = doc.name_id(root_elem);
          result->distinct = 0;
          return 1;
        }
        return 0;
      }
      case xml::Axis::kAttribute:
        return step.wildcard()
                   ? static_cast<double>(stats.attribute_count())
                   : static_cast<double>(stats.AttributeCount(name));
      case xml::Axis::kText:
        return static_cast<double>(stats.text_node_count());
    }
    return kDefaultStepFanout;
  }

  if (from.name_id == UINT32_MAX || from.name_is_attribute) {
    return kDefaultStepFanout;
  }
  double contexts =
      std::max<double>(1, static_cast<double>(stats.ElementCount(from.name_id)));
  switch (step.axis) {
    case xml::Axis::kChild:
      if (step.wildcard()) return kDefaultStepFanout;
      return static_cast<double>(stats.ChildEdges(from.name_id, name)) /
             contexts;
    case xml::Axis::kDescendant:
      if (step.wildcard()) return kDefaultStepFanout;
      return static_cast<double>(stats.DescendantEdges(from.name_id, name)) /
             contexts;
    case xml::Axis::kAttribute:
      if (step.wildcard()) return kDefaultStepFanout;
      return static_cast<double>(stats.AttrEdges(from.name_id, name)) /
             contexts;
    case xml::Axis::kText:
      return 1;
  }
  return kDefaultStepFanout;
}

ExprEstimate CardinalityEstimator::EstimateExpr(const Expr& e,
                                                const Scope& scope) {
  ExprEstimate out;
  switch (e.kind) {
    case ExprKind::kConst:
      out.cost = 0.05;
      return out;
    case ExprKind::kAttrRef: {
      out.cost = 0.05;
      const AttrProfile* p = Find(scope, e.attr);
      if (p != nullptr) {
        out.profile = *p;
        if (p->seq_rows > 0) out.fanout = p->seq_rows;
      }
      return out;
    }
    case ExprKind::kPath: {
      ExprEstimate ctx = EstimateExpr(*e.children[0], scope);
      out.cost = ctx.cost;
      AttrProfile cur = ctx.profile;
      double per_context = 1;
      if (e.path.absolute() && cur.is_node) {
        cur.is_doc_root = true;
        cur.name_id = UINT32_MAX;
      }
      for (const xml::Step& step : e.path.steps()) {
        AttrProfile next;
        per_context *= StepFanout(cur, step, &next);
        cur = next;
        out.cost += model_.path_step();
      }
      out.fanout = ctx.fanout * per_context;
      out.cost += out.fanout * model_.path_result();
      out.profile = cur;
      return out;
    }
    case ExprKind::kFnCall: {
      double children_cost = 0;
      for (const nal::ExprPtr& c : e.children) {
        children_cost += EstimateExpr(*c, scope).cost;
      }
      if ((e.fn == "doc" || e.fn == "document") && e.children.size() == 1 &&
          e.children[0]->kind == ExprKind::kConst) {
        out.cost = 0.2;
        std::optional<xml::DocId> id =
            store_.Find(e.children[0]->literal.AsString());
        if (id.has_value()) {
          out.profile.is_node = true;
          out.profile.is_doc_root = true;
          out.profile.doc = *id;
        } else {
          out.profile = UnknownNode();
        }
        return out;
      }
      if (e.fn == "distinct-values" && e.children.size() == 1) {
        ExprEstimate in = EstimateExpr(*e.children[0], scope);
        out.cost = in.cost + in.fanout * 0.2;
        out.profile = in.profile;
        out.profile.is_node = false;  // atomized strings
        out.fanout = in.profile.distinct > 0
                         ? std::min(in.fanout, in.profile.distinct)
                         : in.fanout;
        return out;
      }
      if (e.fn == "count" || e.fn == "min" || e.fn == "max" ||
          e.fn == "sum" || e.fn == "avg" || e.fn == "exists" ||
          e.fn == "empty") {
        ExprEstimate in = e.children.empty()
                              ? ExprEstimate{}
                              : EstimateExpr(*e.children[0], scope);
        out.cost = in.cost + in.fanout * 0.1;
        return out;
      }
      out.cost = 0.2 + children_cost;
      return out;
    }
    case ExprKind::kNestedAlg: {
      OpEstimate est = EstimateOp(*e.alg, scope);
      out.cost = est.cpu + est.io;  // charged once per evaluation
      out.fanout = est.rows;
      out.profile.seq_rows = est.rows;
      return out;
    }
    case ExprKind::kBindTuples: {
      ExprEstimate items = EstimateExpr(*e.children[0], scope);
      out.cost = items.cost + items.fanout * 0.1;
      out.profile.seq_rows = items.fanout;
      // Remember the inner item profile so μ can restore it (AttrProfile
      // carries only scalars, so park it in the estimator-local map).
      bind_inner_[&e] = items.profile;
      return out;
    }
    case ExprKind::kQuant: {
      OpEstimate range = EstimateOp(*e.alg, scope);
      double pred_cost =
          e.children.empty() ? 0 : EstimateExpr(*e.children[0], scope).cost;
      // Short-circuit: on average half the range is visited.
      out.cost = range.cpu + range.io +
                 0.5 * range.rows * (model_.predicate() + pred_cost);
      return out;
    }
    case ExprKind::kAgg: {
      ExprEstimate in = EstimateExpr(*e.children[0], scope);
      double n = std::max(in.fanout, in.profile.seq_rows);
      out.cost = in.cost + n * 0.1;
      if (e.agg.has_filter()) out.cost += n * model_.predicate();
      switch (e.agg.kind) {
        case nal::AggSpec::Kind::kId:
          out.profile.seq_rows = n;
          break;
        case nal::AggSpec::Kind::kProjectItems:
          out.fanout = n;
          break;
        default:
          break;  // scalar aggregate
      }
      return out;
    }
    case ExprKind::kCmp:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kArith:
    case ExprKind::kCond: {
      out.cost = 0.1;
      for (const nal::ExprPtr& c : e.children) {
        out.cost += EstimateExpr(*c, scope).cost;
      }
      return out;
    }
  }
  out.cost = 0.2;
  return out;
}

double CardinalityEstimator::Selectivity(const Expr& pred,
                                         const Scope& scope) {
  switch (pred.kind) {
    case ExprKind::kConst:
      if (pred.literal.kind() == nal::ValueKind::kBool) {
        return pred.literal.AsBool() ? 1.0 : 0.0;
      }
      return 1.0;
    case ExprKind::kCmp: {
      if (pred.cmp == nal::CmpOp::kLt || pred.cmp == nal::CmpOp::kLe ||
          pred.cmp == nal::CmpOp::kGt || pred.cmp == nal::CmpOp::kGe) {
        return kDefaultCmpSelectivity;
      }
      double d = 0;
      for (const nal::ExprPtr& side : pred.children) {
        const AttrProfile* p = side->kind == ExprKind::kAttrRef
                                   ? Find(scope, side->attr)
                                   : nullptr;
        if (p != nullptr && p->distinct > 0) d = std::max(d, p->distinct);
      }
      double eq = d > 0 ? 1.0 / d : kDefaultEqSelectivity;
      return pred.cmp == nal::CmpOp::kNe ? Clamp01(1.0 - eq) : eq;
    }
    case ExprKind::kAnd:
      return Selectivity(*pred.children[0], scope) *
             Selectivity(*pred.children[1], scope);
    case ExprKind::kOr: {
      double a = Selectivity(*pred.children[0], scope);
      double b = Selectivity(*pred.children[1], scope);
      return Clamp01(a + b - a * b);
    }
    case ExprKind::kNot:
      return Clamp01(1.0 - Selectivity(*pred.children[0], scope));
    case ExprKind::kQuant:
      return kDefaultQuantSelectivity;
    case ExprKind::kFnCall:
      if (pred.fn == "contains" || pred.fn == "starts-with") return 0.25;
      if (pred.fn == "true") return 1.0;
      if (pred.fn == "false") return 0.0;
      return 0.5;
    default:
      return 0.5;
  }
}

OpEstimate CardinalityEstimator::EstimateOp(const AlgebraOp& op,
                                            const Scope& outer) {
  // A shared subexpression is evaluated once per run; later occurrences pay
  // only a re-read of the cached sequence.
  if (op.cse_id >= 0) {
    auto it = cse_cache_.find(op.cse_id);
    if (it != cse_cache_.end()) {
      OpEstimate reread = it->second;
      reread.cpu = reread.rows * 0.2;
      reread.io = 0;
      reread.peak_breaker_bytes = 0;
      if (recorder_ != nullptr) (*recorder_)[&op] = reread;
      return reread;
    }
  }

  OpEstimate out;
  std::vector<OpEstimate> kids;
  kids.reserve(op.children.size());
  for (const nal::AlgebraPtr& c : op.children) {
    kids.push_back(EstimateOp(*c, outer));
    out.cpu += kids.back().cpu;
    out.io += kids.back().io;
    out.peak_breaker_bytes =
        std::max(out.peak_breaker_bytes, kids.back().peak_breaker_bytes);
  }
  /// Charges one pipeline-breaker footprint against the budget.
  auto charge_breaker = [&](double rows, const Scope& scope) {
    double bytes = std::max(rows, 0.0) * TupleBytes(scope);
    out.io += model_.SpillIo(bytes);
    out.peak_breaker_bytes = std::max(out.peak_breaker_bytes, bytes);
  };

  switch (op.kind) {
    case OpKind::kSingleton:
      out.rows = 1;
      break;

    case OpKind::kSelect: {
      const OpEstimate& in = kids[0];
      Scope merged = Merged(in.scope, outer);
      ExprEstimate pe = EstimateExpr(*op.pred, merged);
      out.cpu += in.rows * (model_.predicate() + pe.cost);
      out.rows = in.rows * Selectivity(*op.pred, merged);
      out.scope = in.scope;
      break;
    }

    case OpKind::kProject: {
      const OpEstimate& in = kids[0];
      out.rows = in.rows;
      out.scope = in.scope;
      if (!op.renames.empty()) {
        for (const auto& [to, from] : op.renames) {
          auto it = out.scope.find(from);
          if (it != out.scope.end()) {
            out.scope[to] = it->second;
            out.scope.erase(from);
          }
        }
        out.cpu += in.rows * 0.2;
        break;
      }
      switch (op.pmode) {
        case nal::ProjectMode::kKeep: {
          Scope kept;
          for (Symbol a : op.attrs) {
            auto it = out.scope.find(a);
            if (it != out.scope.end()) kept[a] = it->second;
          }
          out.scope = std::move(kept);
          out.cpu += in.rows * 0.2;
          break;
        }
        case nal::ProjectMode::kDrop:
          for (Symbol a : op.attrs) out.scope.erase(a);
          out.cpu += in.rows * 0.2;
          break;
        case nal::ProjectMode::kDistinct: {
          Scope merged = Merged(in.scope, outer);
          out.rows = DistinctRows(op.attrs, merged, in.rows);
          out.cpu += in.rows * model_.distinct();
          Scope kept;
          for (Symbol a : op.attrs) {
            auto it = out.scope.find(a);
            if (it != out.scope.end()) kept[a] = it->second;
          }
          out.scope = std::move(kept);
          break;
        }
      }
      break;
    }

    case OpKind::kMap: {
      const OpEstimate& in = kids[0];
      Scope merged = Merged(in.scope, outer);
      ExprEstimate ee = EstimateExpr(*op.expr, merged);
      out.rows = in.rows;
      out.cpu += in.rows * ee.cost;
      out.scope = in.scope;
      AttrProfile p = ee.profile;
      // A multi-item value is bound whole (an item sequence), not unnested.
      if (ee.fanout > 1 && p.seq_rows == 0) p.seq_rows = ee.fanout;
      if (op.expr->kind == ExprKind::kBindTuples) {
        auto it = bind_inner_.find(op.expr.get());
        if (it != bind_inner_.end()) {
          bound_inner_[op.attr] = {op.expr->attr, it->second};
        }
      }
      out.scope[op.attr] = p;
      break;
    }

    case OpKind::kUnnestMap: {
      const OpEstimate& in = kids[0];
      Scope merged = Merged(in.scope, outer);
      ExprEstimate ee = EstimateExpr(*op.expr, merged);
      out.rows = in.rows * ee.fanout;
      out.cpu += in.rows * ee.cost + out.rows * model_.tuple();
      out.scope = in.scope;
      AttrProfile p = ee.profile;
      p.seq_rows = 0;  // items bound one per output tuple
      out.scope[op.attr] = p;
      break;
    }

    case OpKind::kUnnest: {
      const OpEstimate& in = kids[0];
      Scope merged = Merged(in.scope, outer);
      const AttrProfile* g = Find(merged, op.attr);
      double fan = g != nullptr && g->seq_rows > 0 ? g->seq_rows : 5;
      out.rows = in.rows * (op.outer ? std::max(fan, 1.0) : fan);
      out.cpu += out.rows * model_.tuple();
      if (op.distinct) out.cpu += out.rows * model_.distinct();
      out.scope = in.scope;
      out.scope.erase(op.attr);
      auto it = bound_inner_.find(op.attr);
      if (it != bound_inner_.end()) {
        out.scope[it->second.first] = it->second.second;
      }
      break;
    }

    case OpKind::kCross:
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kOuterJoin:
    case OpKind::kGroupBinary: {
      const OpEstimate& l = kids[0];
      const OpEstimate& r = kids[1];
      charge_breaker(r.rows, r.scope);
      Scope merged = Merged(Merged(r.scope, l.scope), outer);

      // Key detection mirrors the executors (physical.h / spool.cpp).
      std::optional<nal::EquiPredicate> equi;
      if (op.kind == OpKind::kGroupBinary) {
        if (nal::HashedNestJoin(op)) {
          equi.emplace();
          equi->left_attrs = op.left_attrs;
          equi->right_attrs = op.right_attrs;
        }
      } else if (op.pred != nullptr) {
        equi = nal::JoinEquiPredicate(op);
      }
      double d_l = 0, d_r = 0;
      if (equi.has_value()) {
        d_l = DistinctRows(equi->left_attrs, Merged(l.scope, outer), l.rows);
        d_r = DistinctRows(equi->right_attrs, Merged(r.scope, outer), r.rows);
        out.cpu += r.rows * model_.hash_build() +
                   l.rows * model_.hash_probe();
      } else if (op.kind != OpKind::kCross) {
        out.cpu += l.rows * r.rows * model_.predicate();
      } else {
        out.cpu += r.rows * model_.tuple();
      }
      double residual_sel =
          equi.has_value() && equi->residual != nullptr
              ? Selectivity(*equi->residual, merged)
              : 1.0;
      double d = std::max({d_l, d_r, 1.0});
      // Fraction of left rows with ≥1 equi match (uniform-domain model).
      double match_sel =
          equi.has_value()
              ? (d_l > 0 && d_r > 0 ? std::min(1.0, d_r / std::max(d_l, 1.0))
                                    : 0.5) *
                    residual_sel
              : (op.pred != nullptr ? Selectivity(*op.pred, merged) : 1.0);

      switch (op.kind) {
        case OpKind::kCross:
          out.rows = l.rows * r.rows;
          break;
        case OpKind::kJoin:
          out.rows = equi.has_value()
                         ? l.rows * r.rows / d * residual_sel
                         : l.rows * r.rows * match_sel;
          break;
        case OpKind::kSemiJoin:
          out.rows = l.rows * Clamp01(match_sel);
          break;
        case OpKind::kAntiJoin:
          out.rows = l.rows * Clamp01(1.0 - match_sel);
          break;
        case OpKind::kOuterJoin:
          out.rows = std::max(l.rows,
                              equi.has_value() ? l.rows * r.rows / d
                                               : l.rows * r.rows * match_sel);
          break;
        case OpKind::kGroupBinary:
          out.rows = l.rows;
          break;
        default:
          break;
      }
      out.cpu += out.rows * model_.tuple();

      // Output scope per operator shape.
      if (op.kind == OpKind::kSemiJoin || op.kind == OpKind::kAntiJoin) {
        out.scope = l.scope;
      } else if (op.kind == OpKind::kGroupBinary) {
        out.scope = l.scope;
        AttrProfile g;
        g.seq_rows = equi.has_value()
                         ? r.rows / std::max(d, 1.0)
                         : r.rows * kDefaultCmpSelectivity;
        if (op.agg.kind != nal::AggSpec::Kind::kId) g.seq_rows = 0;
        out.scope[op.attr] = g;
      } else {
        out.scope = l.scope;
        for (const auto& [a, p] : r.scope) out.scope[a] = p;
      }
      break;
    }

    case OpKind::kGroupUnary: {
      const OpEstimate& in = kids[0];
      charge_breaker(in.rows, in.scope);
      Scope merged = Merged(in.scope, outer);
      double groups = DistinctRows(op.left_attrs, merged, in.rows);
      out.rows = groups;
      out.cpu += in.rows * model_.group_build() + groups * model_.tuple();
      if (op.theta != nal::CmpOp::kEq) {
        out.cpu += groups * in.rows * model_.predicate();
      }
      for (Symbol a : op.left_attrs) {
        auto it = in.scope.find(a);
        AttrProfile p = it != in.scope.end() ? it->second : AttrProfile{};
        p.distinct = groups;
        out.scope[a] = p;
      }
      AttrProfile g;
      g.seq_rows = op.theta == nal::CmpOp::kEq
                       ? in.rows / std::max(groups, 1.0)
                       : in.rows * kDefaultCmpSelectivity;
      if (op.agg.kind != nal::AggSpec::Kind::kId &&
          op.agg.kind != nal::AggSpec::Kind::kProjectItems) {
        g.seq_rows = 0;
      }
      out.scope[op.attr] = g;
      break;
    }

    case OpKind::kSort: {
      const OpEstimate& in = kids[0];
      out.rows = in.rows;
      out.cpu += model_.SortCost(in.rows);
      charge_breaker(in.rows, in.scope);
      out.scope = in.scope;
      break;
    }

    case OpKind::kXiSimple:
    case OpKind::kXiGroup: {
      const OpEstimate& in = kids[0];
      out.rows = in.rows;
      out.scope = in.scope;
      Scope merged = Merged(in.scope, outer);
      double per_row = model_.render();
      for (const nal::XiProgram* program : {&op.s1, &op.s2, &op.s3}) {
        for (const nal::XiCommand& c : *program) {
          per_row += c.is_literal ? 0.05 : EstimateExpr(*c.expr, merged).cost;
        }
      }
      if (op.kind == OpKind::kXiGroup) {
        per_row += model_.predicate();  // group-change detection
      }
      out.cpu += in.rows * per_row;
      break;
    }
  }

  if (op.cse_id >= 0) cse_cache_[op.cse_id] = out;
  if (recorder_ != nullptr) (*recorder_)[&op] = out;
  return out;
}

PlanEstimate CardinalityEstimator::EstimatePlan(const AlgebraOp& root) {
  cse_cache_.clear();
  bind_inner_.clear();
  bound_inner_.clear();
  OpEstimate est = EstimateOp(root, Scope());
  PlanEstimate out;
  out.rows = est.rows;
  out.cpu_cost = est.cpu;
  out.io_cost = est.io;
  out.peak_breaker_bytes = est.peak_breaker_bytes;
  return out;
}

}  // namespace nalq::opt
