// Invariant reuse for nested plans (Rao & Ross, "Reusing Invariants: A New
// Strategy for Correlated Queries", SIGMOD 1998).
//
// A nested plan that no equivalence could unnest evaluates its subscript
// algebra once per outer tuple, yet in the paper's Q3–Q6 everything below
// the correlated σ — the document scan and its Υ steps — has no free
// variables and yields the same sequence every time. This pass marks those
// parts so the evaluators compute them once per run: each maximal subscript
// subtree that has no free variables, evaluates a path expression and
// contains no Ξ gets a fresh `cse_id`, and the run's CseTable
// (nal/spool.h) holds its result for every later evaluation.
//
// To widen the invariant part, a σ inside subscript algebra first moves its
// *leading* environment-independent conjuncts below the correlated rest:
// σ_{p∧q}(e) → σ_q(σ_p(e)) when e and p have no free variables. Only a
// prefix moves, so every conjunct is still evaluated on exactly the tuples
// it was before (`and` evaluates left to right and stops at the first
// false); a conjunct behind a correlated one stays where it is.
//
// The correlated σ left on top of a marked subtree usually has the shape
// σ_{entry_attr = outer_attr ∧ …}(cse#N): it filters the cached entry by a
// value of the outer tuple. The pass records that conjunct on the σ
// (AlgebraOp::probe), and the evaluator then looks the outer value up in a
// hash index over the entry instead of scanning all of it, verifying the
// full predicate on the candidates only. The conjunct is chosen with
// nal::ExtractEquiPredicate (entry attributes against the predicate's free
// variables) and never over an attribute nal::TypedNumberAttrs lists.
//
// Correlated subtrees are left alone and keep their per-tuple evaluation;
// operators outside subscripts (evaluated once anyway) are never marked.
#ifndef NALQ_REWRITE_INVARIANTS_H_
#define NALQ_REWRITE_INVARIANTS_H_

#include "nal/algebra.h"

namespace nalq::rewrite {

/// Returns `plan` itself when its subscript algebra has nothing to mark or
/// key, otherwise a marked clone (the input is never modified, so plans that
/// share subtrees with it are unaffected). New ids start above every
/// `cse_id` already in the plan.
nal::AlgebraPtr ShareInvariantSubscripts(const nal::AlgebraPtr& plan);

}  // namespace nalq::rewrite

#endif  // NALQ_REWRITE_INVARIANTS_H_
