#include "nal/analysis.h"

#include <algorithm>

namespace nalq::nal {

bool Disjoint(const SymbolSet& a, const SymbolSet& b) {
  for (Symbol s : a) {
    if (b.count(s) != 0) return false;
  }
  return true;
}

bool Subset(const SymbolSet& a, const SymbolSet& b) {
  for (Symbol s : a) {
    if (b.count(s) == 0) return false;
  }
  return true;
}

SymbolSet Union(const SymbolSet& a, const SymbolSet& b) {
  SymbolSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

SymbolSet Minus(const SymbolSet& a, const SymbolSet& b) {
  SymbolSet out;
  for (Symbol s : a) {
    if (b.count(s) == 0) out.insert(s);
  }
  return out;
}

namespace {

/// Nested shape of a χ/Υ-defining expression, if statically known.
void NestedShapeOf(const Expr& e, Symbol target, AttrInfo* info) {
  if (e.kind == ExprKind::kNestedAlg) {
    AttrInfo inner = OutputAttrs(*e.alg);
    info->nested[target] = inner.attrs;
  } else if (e.kind == ExprKind::kBindTuples) {
    info->nested[target] = SymbolSet{e.attr};
  } else if (e.kind == ExprKind::kConst &&
             e.literal.kind() == ValueKind::kTupleSeq) {
    // Literal relations (used heavily in tests and by hand-built plans)
    // expose the union of their tuples' attributes.
    SymbolSet attrs;
    for (const Tuple& t : e.literal.AsTuples()) {
      for (const auto& [a, v] : t.slots()) attrs.insert(a);
    }
    info->nested[target] = std::move(attrs);
  } else if (e.kind == ExprKind::kFnCall && e.children.size() == 1) {
    // Aggregates over nested algebra produce scalars; nothing nested.
  }
}

}  // namespace

AttrInfo OutputAttrs(const AlgebraOp& op) {
  AttrInfo info;
  switch (op.kind) {
    case OpKind::kSingleton:
      return info;
    case OpKind::kSelect:
    case OpKind::kSort:
    case OpKind::kXiSimple:
      return OutputAttrs(*op.child(0));
    case OpKind::kProject: {
      AttrInfo in = OutputAttrs(*op.child(0));
      // Apply renames first.
      for (const auto& [to, from] : op.renames) {
        if (in.attrs.erase(from) != 0) in.attrs.insert(to);
        auto it = in.nested.find(from);
        if (it != in.nested.end()) {
          in.nested[to] = it->second;
          in.nested.erase(from);
        }
      }
      if (op.pmode == ProjectMode::kDrop) {
        for (Symbol a : op.attrs) {
          in.attrs.erase(a);
          in.nested.erase(a);
        }
        return in;
      }
      if (!op.attrs.empty() || op.pmode == ProjectMode::kDistinct) {
        AttrInfo out;
        for (Symbol a : op.attrs) {
          out.attrs.insert(a);
          auto it = in.nested.find(a);
          if (it != in.nested.end()) out.nested[a] = it->second;
        }
        return out;
      }
      return in;  // rename-only projection
    }
    case OpKind::kMap: {
      info = OutputAttrs(*op.child(0));
      info.attrs.insert(op.attr);
      NestedShapeOf(*op.expr, op.attr, &info);
      return info;
    }
    case OpKind::kUnnestMap: {
      info = OutputAttrs(*op.child(0));
      info.attrs.insert(op.attr);
      return info;
    }
    case OpKind::kUnnest: {
      info = OutputAttrs(*op.child(0));
      info.attrs.erase(op.attr);
      auto it = info.nested.find(op.attr);
      if (it != info.nested.end()) {
        info.attrs.insert(it->second.begin(), it->second.end());
        info.nested.erase(op.attr);
      } else {
        // Shape unknown statically (e.g. item-sequence attribute): the
        // unnested attribute keeps its name.
        info.attrs.insert(op.attr);
      }
      return info;
    }
    case OpKind::kCross:
    case OpKind::kJoin:
    case OpKind::kOuterJoin: {
      AttrInfo l = OutputAttrs(*op.child(0));
      AttrInfo r = OutputAttrs(*op.child(1));
      l.attrs.insert(r.attrs.begin(), r.attrs.end());
      l.nested.insert(r.nested.begin(), r.nested.end());
      if (op.kind == OpKind::kOuterJoin) l.attrs.insert(op.attr);
      return l;
    }
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      return OutputAttrs(*op.child(0));
    case OpKind::kGroupUnary: {
      for (Symbol a : op.left_attrs) info.attrs.insert(a);
      info.attrs.insert(op.attr);
      if (op.agg.kind == AggSpec::Kind::kId) {
        info.nested[op.attr] = OutputAttrs(*op.child(0)).attrs;
      }
      return info;
    }
    case OpKind::kGroupBinary: {
      info = OutputAttrs(*op.child(0));
      info.attrs.insert(op.attr);
      if (op.agg.kind == AggSpec::Kind::kId) {
        info.nested[op.attr] = OutputAttrs(*op.child(1)).attrs;
      }
      return info;
    }
    case OpKind::kXiGroup: {
      for (Symbol a : op.attrs) info.attrs.insert(a);
      return info;
    }
  }
  return info;
}

SymbolSet FreeVarsExpr(const Expr& e, const SymbolSet& bound) {
  SymbolSet out;
  switch (e.kind) {
    case ExprKind::kConst:
      return out;
    case ExprKind::kAttrRef:
      if (bound.count(e.attr) == 0) out.insert(e.attr);
      return out;
    case ExprKind::kNestedAlg: {
      SymbolSet inner = FreeVars(*e.alg);
      return Minus(inner, bound);
    }
    case ExprKind::kAgg: {
      SymbolSet out_free = FreeVarsExpr(*e.children[0], bound);
      if (e.agg.filter != nullptr) {
        SymbolSet inner_bound = bound;
        if (e.children[0]->kind == ExprKind::kNestedAlg) {
          AttrInfo info = OutputAttrs(*e.children[0]->alg);
          inner_bound.insert(info.attrs.begin(), info.attrs.end());
        }
        SymbolSet filter_free = FreeVarsExpr(*e.agg.filter, inner_bound);
        out_free.insert(filter_free.begin(), filter_free.end());
      }
      return out_free;
    }
    case ExprKind::kQuant: {
      SymbolSet range_free = Minus(FreeVars(*e.alg), bound);
      SymbolSet range_attrs = OutputAttrs(*e.alg).attrs;
      SymbolSet pred_bound = Union(bound, range_attrs);
      pred_bound.insert(e.quant_var);
      SymbolSet pred_free = FreeVarsExpr(*e.children[0], pred_bound);
      return Union(range_free, pred_free);
    }
    default: {
      for (const ExprPtr& c : e.children) {
        SymbolSet child_free = FreeVarsExpr(*c, bound);
        out.insert(child_free.begin(), child_free.end());
      }
      return out;
    }
  }
}

SymbolSet FreeVars(const AlgebraOp& op) {
  SymbolSet free;
  // Free vars of the children themselves.
  for (const AlgebraPtr& c : op.children) {
    SymbolSet child_free = FreeVars(*c);
    free.insert(child_free.begin(), child_free.end());
  }
  // Attributes available to this operator's subscripts.
  SymbolSet bound;
  for (const AlgebraPtr& c : op.children) {
    AttrInfo info = OutputAttrs(*c);
    bound.insert(info.attrs.begin(), info.attrs.end());
  }
  auto add_expr = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    SymbolSet f = FreeVarsExpr(*e, bound);
    free.insert(f.begin(), f.end());
  };
  add_expr(op.pred);
  add_expr(op.expr);
  add_expr(op.agg.filter);
  for (const XiProgram* program : {&op.s1, &op.s2, &op.s3}) {
    for (const XiCommand& c : *program) {
      if (!c.is_literal) add_expr(c.expr);
    }
  }
  return free;
}

bool ContainsXiExpr(const Expr& e) {
  if (e.alg != nullptr && ContainsXi(*e.alg)) return true;
  if (e.agg.filter != nullptr && ContainsXiExpr(*e.agg.filter)) return true;
  for (const ExprPtr& child : e.children) {
    if (ContainsXiExpr(*child)) return true;
  }
  return false;
}

bool SubscriptsContainXi(const AlgebraOp& op) {
  bool found = false;
  ForEachSubscript(op, [&](const Expr& e) {
    found = found || ContainsXiExpr(e);
  });
  return found;
}

bool ContainsXi(const AlgebraOp& op) {
  if (op.kind == OpKind::kXiSimple || op.kind == OpKind::kXiGroup) return true;
  if (SubscriptsContainXi(op)) return true;
  for (const AlgebraPtr& child : op.children) {
    if (ContainsXi(*child)) return true;
  }
  return false;
}

}  // namespace nalq::nal
