// The NAL algebra operator IR (paper Sec. 2).
//
// Every operator is order-preserving and defined recursively on its input
// sequence; the evaluator (eval.h) implements those definitions directly and
// physical.h supplies equivalent hash-based algorithms for the `=` cases.
// Nested algebraic expressions occur in operator subscripts via expr.h.
#ifndef NALQ_NAL_ALGEBRA_H_
#define NALQ_NAL_ALGEBRA_H_

#include <memory>
#include <string>
#include <vector>

#include "nal/expr.h"
#include "nal/sequence.h"

namespace nalq::nal {

enum class OpKind : uint8_t {
  kSingleton,    ///< □ — singleton sequence of the empty tuple
  kSelect,       ///< σ_p
  kProject,      ///< Π variants: keep / drop / distinct / rename
  kMap,          ///< χ_{a:e}
  kUnnestMap,    ///< Υ_{a:e} = μ(χ_{g:e[a]})
  kUnnest,       ///< μ_g / μD_g
  kCross,        ///< ×
  kJoin,         ///< ⋈_p
  kSemiJoin,     ///< ⋉_p
  kAntiJoin,     ///< ▷_p
  kOuterJoin,    ///< left outer join with default for g
  kGroupUnary,   ///< Γ_{g;θA;f}
  kGroupBinary,  ///< e1 Γ_{g;A1θA2;f} e2 (nest-join)
  kSort,         ///< stable sort on attrs (order restoration)
  kXiSimple,     ///< Ξ_{commands} — result construction, identity + side effect
  kXiGroup,      ///< s1 Ξ^{s3}_{A;s2} — group-detecting result construction
};

std::string_view OpKindName(OpKind kind);

enum class ProjectMode : uint8_t {
  kKeep,      ///< Π_A
  kDrop,      ///< Π with overline: eliminate A
  kDistinct,  ///< ΠD_A — deterministic, idempotent, NOT order-preserving
              ///< (first-occurrence order, value-based after atomization)
};

/// One command of a Ξ operator: either a literal string copied to the output
/// or an expression (usually an attribute) whose value is rendered.
struct XiCommand {
  bool is_literal = true;
  std::string text;  // literal
  ExprPtr expr;      // rendered value

  static XiCommand Literal(std::string s) {
    XiCommand c;
    c.is_literal = true;
    c.text = std::move(s);
    return c;
  }
  static XiCommand Var(Symbol a) {
    XiCommand c;
    c.is_literal = false;
    c.expr = MakeAttrRef(a);
    return c;
  }
  static XiCommand Eval(ExprPtr e) {
    XiCommand c;
    c.is_literal = false;
    c.expr = std::move(e);
    return c;
  }
};

using XiProgram = std::vector<XiCommand>;

/// One algebra operator node. Like Expr, a tagged struct: the unnesting
/// rewriter pattern-matches and rebuilds these trees, which a flat
/// representation keeps straightforward.
struct AlgebraOp {
  OpKind kind = OpKind::kSingleton;
  std::vector<AlgebraPtr> children;

  ExprPtr pred;   ///< σ / joins
  Symbol attr;    ///< χ/Υ target, μ source, outer-join & Γ group attribute g
  ExprPtr expr;   ///< χ/Υ value; outer-join default (evaluated on empty env)

  // Π parameters.
  ProjectMode pmode = ProjectMode::kKeep;
  std::vector<Symbol> attrs;                       ///< Π_A / sort keys / Ξ A
  std::vector<std::pair<Symbol, Symbol>> renames;  ///< Π_{A':A}: (to, from)
  std::vector<uint8_t> sort_desc;  ///< Sort: per-key descending flags

  // Γ parameters.
  CmpOp theta = CmpOp::kEq;
  std::vector<Symbol> left_attrs;   ///< A1 (binary Γ) / A (unary Γ)
  std::vector<Symbol> right_attrs;  ///< A2
  AggSpec agg;

  // μ parameters.
  bool distinct = false;  ///< μD: value-dedup of the nested sequence
  bool outer = true;      ///< paper μ: ⊥-tuple on empty nested sequence

  // Ξ parameters.
  XiProgram s1, s2, s3;  ///< simple Ξ uses s1 only

  /// Common-subexpression id: operators sharing a non-negative cse_id are
  /// evaluated once per run into the run's CseTable (nal/spool.h) — the
  /// "save scanning the same document twice" effect of Eqv. 8/9, Sec. 4,
  /// and the invariant reuse of rewrite/invariants.h. Only valid on
  /// env-independent, Ξ-free subtrees.
  int cse_id = -1;

  AlgebraPtr Clone() const;
  const AlgebraPtr& child(size_t i) const { return children[i]; }
};

// ---- constructors -----------------------------------------------------

AlgebraPtr Singleton();
AlgebraPtr Select(ExprPtr pred, AlgebraPtr input);
AlgebraPtr ProjectKeep(std::vector<Symbol> attrs, AlgebraPtr input);
AlgebraPtr ProjectDrop(std::vector<Symbol> attrs, AlgebraPtr input);
AlgebraPtr ProjectDistinct(std::vector<Symbol> attrs, AlgebraPtr input);
/// Π_{A':A} — renames `from` attributes to `to` (pairs are (to, from)).
AlgebraPtr ProjectRename(std::vector<std::pair<Symbol, Symbol>> renames,
                         AlgebraPtr input);
AlgebraPtr Map(Symbol a, ExprPtr e, AlgebraPtr input);
AlgebraPtr UnnestMap(Symbol a, ExprPtr e, AlgebraPtr input);
AlgebraPtr Unnest(Symbol g, AlgebraPtr input, bool distinct = false,
                  bool outer = true);
AlgebraPtr Cross(AlgebraPtr lhs, AlgebraPtr rhs);
AlgebraPtr Join(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs);
AlgebraPtr SemiJoin(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs);
AlgebraPtr AntiJoin(ExprPtr pred, AlgebraPtr lhs, AlgebraPtr rhs);
/// Left outer join: unmatched left tuples get A(rhs)\{g} set to NULL and
/// g = `dflt` (evaluated without bindings).
AlgebraPtr OuterJoin(ExprPtr pred, Symbol g, ExprPtr dflt, AlgebraPtr lhs,
                     AlgebraPtr rhs);
AlgebraPtr GroupUnary(Symbol g, CmpOp theta, std::vector<Symbol> attrs,
                      AggSpec f, AlgebraPtr input);
AlgebraPtr GroupBinary(Symbol g, std::vector<Symbol> a1, CmpOp theta,
                       std::vector<Symbol> a2, AggSpec f, AlgebraPtr lhs,
                       AlgebraPtr rhs);
AlgebraPtr SortBy(std::vector<Symbol> attrs, AlgebraPtr input);
/// Sort with per-key direction (true = descending). `desc` may be shorter
/// than `attrs`; missing entries default to ascending.
AlgebraPtr SortByDir(std::vector<Symbol> attrs, std::vector<uint8_t> desc,
                     AlgebraPtr input);
AlgebraPtr XiSimple(XiProgram commands, AlgebraPtr input);
AlgebraPtr XiGroup(XiProgram s1, std::vector<Symbol> group_attrs, XiProgram s2,
                   XiProgram s3, AlgebraPtr input);

}  // namespace nalq::nal

#endif  // NALQ_NAL_ALGEBRA_H_
