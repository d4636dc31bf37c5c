// Shared join/Γ probe loops for the spill-aware breaker cursors' fits-in-
// memory and spooled-nested-loop modes (spool.cpp) and the exchange
// workers' shared-build probes (SharedProbeCursor, cursor.cpp).
//
// There is exactly one implementation of each loop, parameterized over an
// Access policy, so a breaker probes the same way whether its build side is
// in RAM, spooled, or shared across exchange workers; tests/spool_test.cpp
// and tests/parallel_breakers_test.cpp assert the identity differentially.
//
// Access policy — the cursor itself, exposing:
//
//   ExecContext& ctx();
//   const AlgebraOp& op() const;
//   bool LeftNext(Tuple* out);             // next probe-side tuple
//   bool use_index() const;                // hash path active
//   const HashIndex& hash_index() const;   // valid when use_index()
//   const Expr* residual() const;          // equi residual or null; "
//   std::span<const Symbol> probe_attrs() const;  // probe key attrs;  "
//   const Tuple& right_at(uint32_t pos) const;    // build-side tuple; "
//   void ScanRestart();                    // nested-loop scan of the build
//   bool ScanNext(const Tuple** r);        // side (in RAM or spooled)
//   // outer join only:
//   const std::vector<Symbol>& outer_null_attrs() const;
//   const Value& outer_default() const;
//
// The loops own the per-probe iteration state (current left tuple, lookup
// positions, key scratch), so a cursor embeds one JoinProbeLoops and
// forwards Next() to the member matching its operator kind.
#ifndef NALQ_NAL_PROBE_LOOPS_H_
#define NALQ_NAL_PROBE_LOOPS_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "engine/error.h"
#include "nal/algebra.h"
#include "nal/cursor.h"
#include "nal/physical.h"

namespace nalq::nal::probe {

inline void CountProducedTuple(ExecContext& ctx) {
  // Every operator of every executor funnels its emissions through this
  // counter (Evaluator::CountProduced also attributes the tuple to the
  // profiled operator in scope), which makes it the universal per-tuple
  // cancellation point.
  ctx.ev->CountProduced(1);
  ctx.ev->CheckInterrupt();
}

template <class Access>
class JoinProbeLoops {
 public:
  /// Forgets any in-flight probe state (call from Open).
  void Reset() {
    have_left_ = false;
    matched_ = false;
    lookup_.clear();
    lookup_pos_ = 0;
  }

  /// × and ⋈: emit every (residual-satisfying) combination.
  bool NextCrossJoin(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    while (true) {
      if (have_left_) {
        if (a.use_index()) {
          while (lookup_pos_ < lookup_.size()) {
            uint32_t rpos = lookup_[lookup_pos_++];
            Tuple combined = cur_left_.Concat(a.right_at(rpos));
            if (a.residual() == nullptr ||
                ctx.ev->EvalPred(*a.residual(), combined, *ctx.env)) {
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        } else {
          const Tuple* r = nullptr;
          while (a.ScanNext(&r)) {
            Tuple combined = cur_left_.Concat(*r);
            if (op.kind == OpKind::kCross ||
                ctx.ev->EvalPred(*op.pred, combined, *ctx.env)) {
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        }
        have_left_ = false;
      }
      if (!a.LeftNext(&cur_left_)) return false;
      have_left_ = true;
      lookup_pos_ = 0;
      a.ScanRestart();
      if (a.use_index()) {
        a.hash_index().LookupInto(cur_left_, a.probe_attrs(), ctx.ev->store(),
                                  &key_scratch_, &lookup_);
      }
    }
  }

  /// ⋉ and ▷: emit the left tuple on (mis)match, short-circuiting the
  /// residual after the first match.
  bool NextSemiAnti(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    const bool anti = op.kind == OpKind::kAntiJoin;
    Tuple l;
    while (a.LeftNext(&l)) {
      bool matched = false;
      if (a.use_index()) {
        a.hash_index().LookupInto(l, a.probe_attrs(), ctx.ev->store(),
                                  &key_scratch_, &lookup_);
        for (uint32_t pos : lookup_) {
          if (a.residual() == nullptr ||
              ctx.ev->EvalPred(*a.residual(), l.Concat(a.right_at(pos)),
                               *ctx.env)) {
            matched = true;
            break;
          }
        }
      } else {
        a.ScanRestart();
        const Tuple* r = nullptr;
        while (a.ScanNext(&r)) {
          if (ctx.ev->EvalPred(*op.pred, l.Concat(*r), *ctx.env)) {
            matched = true;
            break;
          }
        }
      }
      if (matched != anti) {
        *out = std::move(l);
        CountProducedTuple(ctx);
        return true;
      }
    }
    return false;
  }

  /// Left outer join: matches first, then the ⊥-padded tuple for an
  /// unmatched left.
  bool NextOuter(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    while (true) {
      if (have_left_) {
        if (a.use_index()) {
          while (lookup_pos_ < lookup_.size()) {
            uint32_t rpos = lookup_[lookup_pos_++];
            Tuple combined = cur_left_.Concat(a.right_at(rpos));
            if (a.residual() == nullptr ||
                ctx.ev->EvalPred(*a.residual(), combined, *ctx.env)) {
              matched_ = true;
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        } else {
          const Tuple* r = nullptr;
          while (a.ScanNext(&r)) {
            Tuple combined = cur_left_.Concat(*r);
            if (ctx.ev->EvalPred(*op.pred, combined, *ctx.env)) {
              matched_ = true;
              *out = std::move(combined);
              CountProducedTuple(ctx);
              return true;
            }
          }
        }
        have_left_ = false;
        if (!matched_) {
          Tuple t = cur_left_.Concat(Tuple::Nulls(a.outer_null_attrs()));
          t.Set(op.attr, a.outer_default());
          *out = std::move(t);
          CountProducedTuple(ctx);
          return true;
        }
      }
      if (!a.LeftNext(&cur_left_)) return false;
      have_left_ = true;
      matched_ = false;
      lookup_pos_ = 0;
      a.ScanRestart();
      if (a.use_index()) {
        a.hash_index().LookupInto(cur_left_, a.probe_attrs(), ctx.ev->store(),
                                  &key_scratch_, &lookup_);
      }
    }
  }

  /// Binary Γ (nest-join): one output tuple per left tuple, carrying the
  /// aggregated group of matching right tuples.
  bool NextGroupBinary(Access& a, Tuple* out) {
    ExecContext& ctx = a.ctx();
    const AlgebraOp& op = a.op();
    Tuple l;
    if (!a.LeftNext(&l)) return false;
    Sequence group;
    if (a.use_index()) {
      a.hash_index().LookupInto(l, a.probe_attrs(), ctx.ev->store(),
                                &key_scratch_, &lookup_);
      for (uint32_t pos : lookup_) group.Append(a.right_at(pos));
    } else {
      a.ScanRestart();
      const Tuple* r = nullptr;
      while (a.ScanNext(&r)) {
        if (ctx.ev->GeneralCompare(op.theta, l.Get(op.left_attrs[0]),
                                   r->Get(op.right_attrs[0]))) {
          group.Append(*r);
        }
      }
    }
    Value agg = ctx.ev->ApplyAgg(op.agg, std::move(group), *ctx.env);
    l.Set(op.attr, std::move(agg));
    *out = std::move(l);
    CountProducedTuple(ctx);
    return true;
  }

 private:
  Tuple cur_left_;
  bool have_left_ = false;
  bool matched_ = false;
  std::vector<Key> key_scratch_;
  std::vector<uint32_t> lookup_;
  size_t lookup_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Unary Γ over '=' — first-occurrence bucketing and group emission of the
// fits-in-memory mode of SpillGroupUnaryCursor (spool.cpp).
// ---------------------------------------------------------------------------

struct GammaBuckets {
  std::vector<Key> order;  ///< distinct keys, first-occurrence order (ΠD)
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets;
  /// A sequence-valued key put some tuple into several buckets, so group
  /// members must be copied, not moved.
  bool multi_key = false;
  size_t next_key = 0;

  void Build(const Sequence& input, std::span<const Symbol> attrs,
             const xml::Store& store) {
    std::vector<Key> keys;
    for (uint32_t i = 0; i < input.size(); ++i) {
      MakeKeysInto(input[i], attrs, store, &keys);
      if (keys.size() > 1) multi_key = true;
      for (Key& k : keys) {
        auto [it, inserted] = buckets.try_emplace(k);
        if (inserted) order.push_back(k);
        it->second.push_back(i);
      }
    }
    next_key = 0;
  }
};

/// Emits the next '='-group: unless a sequence-valued key fanned a tuple
/// into several buckets, each input tuple belongs to exactly one group and
/// is handed over by move.
inline bool NextEqGammaGroup(GammaBuckets& b, Sequence& input,
                             const AlgebraOp& op, ExecContext& ctx,
                             Tuple* out) {
  if (b.next_key >= b.order.size()) return false;
  const Key& key = b.order[b.next_key++];
  Sequence group;
  for (uint32_t pos : b.buckets[key]) {
    if (b.multi_key) {
      group.Append(input[pos]);
    } else {
      group.Append(std::move(input[pos]));
    }
  }
  Tuple result;
  for (size_t j = 0; j < op.left_attrs.size(); ++j) {
    result.Set(op.left_attrs[j], key.values[j]);
  }
  result.Set(op.attr, ctx.ev->ApplyAgg(op.agg, std::move(group), *ctx.env));
  *out = std::move(result);
  CountProducedTuple(ctx);
  return true;
}

/// Emits the next θ-group (group for key v = σ_{v θ A}(e)): `for_each_input`
/// re-presents every input tuple — an in-RAM walk (pass lvalues: the input
/// is rescanned per key, so matches are copied) or a spool replay (pass
/// rvalues: each deserialized tuple is fresh, so matches are moved).
template <class ForEachInput>
bool NextThetaGammaGroup(const std::vector<Key>& order, size_t* next_key,
                         const AlgebraOp& op, ExecContext& ctx,
                         ForEachInput&& for_each_input, Tuple* out) {
  if (*next_key >= order.size()) return false;
  const Key& key = order[(*next_key)++];
  if (op.left_attrs.size() != 1) {
    throw engine::Error(engine::ErrorCode::kPlanError,
                        "theta-grouping requires a single attribute", 0, {},
                        "GroupUnary");
  }
  Sequence group;
  for_each_input([&](auto&& u) {
    if (ctx.ev->GeneralCompare(op.theta, key.values[0],
                               u.Get(op.left_attrs[0]))) {
      group.Append(std::forward<decltype(u)>(u));
    }
  });
  Tuple result;
  for (size_t j = 0; j < op.left_attrs.size(); ++j) {
    result.Set(op.left_attrs[j], key.values[j]);
  }
  result.Set(op.attr, ctx.ev->ApplyAgg(op.agg, std::move(group), *ctx.env));
  *out = std::move(result);
  CountProducedTuple(ctx);
  return true;
}

}  // namespace nalq::nal::probe

#endif  // NALQ_NAL_PROBE_LOOPS_H_
