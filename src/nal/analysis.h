// Static analyses over algebra trees:
//   A(e) — the attributes an expression produces (paper notation A(e)),
//          including the inner attributes of nested sequence-valued ones,
//   F(e) — free variables (paper notation F(e)),
// both required to verify the side conditions of the unnesting equivalences
// (e.g. Ai ⊆ A(ei), F(e2) ∩ A(e1) = ∅).
#ifndef NALQ_NAL_ANALYSIS_H_
#define NALQ_NAL_ANALYSIS_H_

#include <map>
#include <set>
#include <vector>

#include "nal/algebra.h"

namespace nalq::nal {

using SymbolSet = std::set<Symbol>;

/// A(e) plus, for tuple-sequence-valued attributes whose shape is statically
/// known (Γ with f = id, χ of a nested algebra or e[a] binding), the inner
/// attribute sets.
struct AttrInfo {
  SymbolSet attrs;
  std::map<Symbol, SymbolSet> nested;

  bool Has(Symbol a) const { return attrs.count(a) != 0; }
};

/// Computes A(op).
AttrInfo OutputAttrs(const AlgebraOp& op);

/// Computes F(op): attributes referenced anywhere in `op`'s subscripts that
/// no child of the referencing operator provides.
SymbolSet FreeVars(const AlgebraOp& op);

/// Free attributes of an expression given the attributes `bound` available
/// from the operator's input.
SymbolSet FreeVarsExpr(const Expr& e, const SymbolSet& bound);

/// True if evaluating the subtree can write to the Ξ output stream: it
/// contains a Ξ operator, or a subscript expression anywhere in it nests
/// algebra that does.
bool ContainsXi(const AlgebraOp& op);
bool ContainsXiExpr(const Expr& e);

/// ContainsXi restricted to `op`'s own subscripts (its children are not
/// walked).
bool SubscriptsContainXi(const AlgebraOp& op);

/// Calls `fn(const Expr&)` on each subscript expression of `op`: the
/// predicate, the χ/Υ/default value, the aggregate filter and the Ξ
/// programs' expressions. The single place that enumerates the subscript
/// slots of an operator, so a future subscript field only needs to be
/// added here.
template <typename Fn>
void ForEachSubscript(const AlgebraOp& op, Fn&& fn) {
  for (const ExprPtr* e : {&op.pred, &op.expr, &op.agg.filter}) {
    if (*e != nullptr) fn(**e);
  }
  for (const XiProgram* program : {&op.s1, &op.s2, &op.s3}) {
    for (const XiCommand& c : *program) {
      if (c.expr != nullptr) fn(*c.expr);
    }
  }
}

/// Convenience set helpers.
bool Disjoint(const SymbolSet& a, const SymbolSet& b);
bool Subset(const SymbolSet& a, const SymbolSet& b);
SymbolSet Union(const SymbolSet& a, const SymbolSet& b);
SymbolSet Minus(const SymbolSet& a, const SymbolSet& b);

}  // namespace nalq::nal

#endif  // NALQ_NAL_ANALYSIS_H_
