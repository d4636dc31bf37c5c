#include "nal/cursor.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/error.h"
#include "nal/analysis.h"
#include "nal/physical.h"
#include "nal/probe_loops.h"
#include "nal/spool.h"

namespace nalq::nal {

namespace {

/// Builds the operator cursor for `op`, ignoring its cse_id (the CSE wrapper
/// is applied by MakeCursor).
CursorPtr MakeOpCursor(const AlgebraOp& op, ExecContext& ctx);

/// Counts one emitted tuple for the operator that owns `ctx` — the streaming
/// equivalent of the materializing evaluator's per-node
/// `stats_.tuples_produced += out.size()`. One definition, shared with the
/// spill cursors (nal/probe_loops.h).
using probe::CountProducedTuple;

/// Fully drains `c` into a Sequence (used by pipeline breakers; charged to
/// StreamStats by the caller).
Sequence Materialize(Cursor& c) {
  Sequence out;
  Tuple t;
  c.Open();
  while (c.Next(&t)) out.Append(std::move(t));
  c.Close();
  return out;
}

/// Pass-through cursor that fully materializes its input on Open and then
/// streams from the buffer. Not an operator: it re-emits already-counted
/// tuples, so Next does not touch tuples_produced. Used to pin evaluation
/// order where lazy pulls would reorder Ξ writes on the shared output
/// stream.
class BufferCursor final : public Cursor {
 public:
  BufferCursor(ExecContext& ctx, CursorPtr input)
      : ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    seq_ = Materialize(*input_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(seq_.size());
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    if (pos_ >= seq_.size()) return false;
    *out = std::move(seq_[pos_++]);
    return true;
  }
  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(seq_.size());
  }

 private:
  ExecContext& ctx_;
  CursorPtr input_;
  Sequence seq_;
  size_t pos_ = 0;
};

/// Left input of a binary operator. The materializing evaluator runs the
/// left child to completion before the right one; the streaming cursors
/// build the right (hash) side in Open and pull the left lazily afterwards.
/// That flip is observable only when BOTH subtrees write to the Ξ output
/// stream, in which case the left is buffered up front (its Open precedes
/// the right-side build) to restore the evaluator's write order. Under a
/// finite memory budget the buffer is spool-backed (nal/spool.h) so the
/// pinned stream can exceed RAM.
CursorPtr MakeLeftCursor(const AlgebraOp& op, ExecContext& ctx) {
  CursorPtr left = MakeCursor(*op.child(0), ctx);
  if (ContainsXi(*op.child(0)) && ContainsXi(*op.child(1))) {
    if (SpillEnabled(ctx)) {
      return MakeSpoolBufferCursor(ctx, std::move(left));
    }
    return std::make_unique<BufferCursor>(ctx, std::move(left));
  }
  return left;
}

/// True when `op`'s cursor should be the spill-aware variant from
/// nal/spool.h: the run carries a finite budget and the operator's own
/// subscripts are Ξ-free. A Ξ hidden in a subscript (never produced by the
/// translator, but expressible) pins the exact interleaving of subscript
/// evaluation with input pulls, which the spill cursors' deferred
/// evaluation would reorder — such nodes keep the plain in-memory breaker.
bool UseSpillCursor(const AlgebraOp& op, ExecContext& ctx) {
  return SpillEnabled(ctx) && !SubscriptsContainXi(op);
}

// ---------------------------------------------------------------------------
// Pipelining cursors
// ---------------------------------------------------------------------------

class SingletonCursor final : public Cursor {
 public:
  explicit SingletonCursor(ExecContext& ctx) : ctx_(ctx) {}
  void Open() override { done_ = false; }
  bool Next(Tuple* out) override {
    if (done_) return false;
    done_ = true;
    *out = Tuple();
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {}

 private:
  ExecContext& ctx_;
  bool done_ = false;
};

class SelectCursor final : public Cursor {
 public:
  SelectCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  bool Next(Tuple* out) override {
    Tuple t;
    while (input_->Next(&t)) {
      if (ctx_.ev->EvalPred(*op_.pred, t, *ctx_.env)) {
        *out = std::move(t);
        CountProducedTuple(ctx_);
        return true;
      }
    }
    return false;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
};

class ProjectCursor final : public Cursor {
 public:
  ProjectCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_->Open();
    seen_.clear();
  }
  bool Next(Tuple* out) override {
    Tuple t;
    while (input_->Next(&t)) {
      for (const auto& [to, from] : op_.renames) {
        t = std::move(t).Rename(from, to);
      }
      switch (op_.pmode) {
        case ProjectMode::kKeep:
          if (!op_.attrs.empty()) t = t.Project(op_.attrs);
          break;
        case ProjectMode::kDrop:
          t = std::move(t).Drop(op_.attrs);
          break;
        case ProjectMode::kDistinct: {
          if (!op_.attrs.empty()) t = t.Project(op_.attrs);
          Tuple atomized;
          for (const auto& [a, v] : t.slots()) {
            atomized.Set(a, v.Atomize(ctx_.ev->store()));
          }
          Key key;
          for (const auto& [a, v] : atomized.slots()) key.values.push_back(v);
          if (!seen_.insert(std::move(key)).second) continue;
          t = std::move(atomized);
          break;
        }
      }
      *out = std::move(t);
      CountProducedTuple(ctx_);
      return true;
    }
    return false;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  std::unordered_set<Key, KeyHash> seen_;
};

class MapCursor final : public Cursor {
 public:
  MapCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override { input_->Open(); }
  bool Next(Tuple* out) override {
    Tuple t;
    if (!input_->Next(&t)) return false;
    Value v = ctx_.ev->EvalExpr(*op_.expr, t, *ctx_.env);
    t.Set(op_.attr, std::move(v));
    *out = std::move(t);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
};

class UnnestMapCursor final : public Cursor {
 public:
  UnnestMapCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_->Open();
    items_.clear();
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    while (true) {
      if (pos_ < items_.size()) {
        if (pos_ + 1 == items_.size()) {
          // Last expansion of this input tuple: hand over our copy.
          current_.Set(op_.attr, std::move(items_[pos_]));
          *out = std::move(current_);
        } else {
          Tuple extended = current_;
          extended.Set(op_.attr, items_[pos_]);
          *out = std::move(extended);
        }
        ++pos_;
        CountProducedTuple(ctx_);
        return true;
      }
      if (!input_->Next(&current_)) return false;
      Value v = ctx_.ev->EvalExpr(*op_.expr, current_, *ctx_.env);
      items_.clear();
      pos_ = 0;
      FlattenToItems(v, &items_);
      if (items_.empty()) {
        if (!op_.outer) continue;
        current_.Set(op_.attr, Value::Null());
        *out = std::move(current_);
        CountProducedTuple(ctx_);
        return true;
      }
    }
  }
  void Close() override { input_->Close(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Tuple current_;
  ItemSeq items_;
  size_t pos_ = 0;
};

class UnnestCursor final : public Cursor {
 public:
  UnnestCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)), drop_{op.attr} {
    AttrInfo info = OutputAttrs(*op_.child(0));
    auto it = info.nested.find(op_.attr);
    if (it != info.nested.end()) {
      bot_attrs_.assign(it->second.begin(), it->second.end());
    }
  }
  void Open() override {
    input_->Open();
    nested_ = nullptr;
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    while (true) {
      if (nested_ != nullptr && pos_ < nested_->size()) {
        *out = base_.Concat((*nested_)[pos_]);
        ++pos_;
        CountProducedTuple(ctx_);
        return true;
      }
      nested_ = nullptr;
      Tuple t;
      if (!input_->Next(&t)) return false;
      Value v = t.Get(op_.attr);
      base_ = std::move(t).Drop(drop_);
      if (v.kind() == ValueKind::kTupleSeq) {
        // Keep the nested sequence alive without copying it.
        held_ = v.SharedTuples();
        nested_ = held_.get();
      } else {
        ItemSeq items;
        FlattenToItems(v, &items);
        owned_ = TuplesFromItems(op_.attr, items);
        nested_ = &owned_;
      }
      if (op_.distinct) {
        // μD: value-based dedup of the nested sequence (paper: ΠD(g)).
        Sequence deduped;
        std::unordered_set<Key, KeyHash> seen;
        for (const Tuple& u : *nested_) {
          Key key;
          for (const auto& [a, value] : u.slots()) {
            key.values.push_back(value.Atomize(ctx_.ev->store()));
          }
          if (seen.insert(std::move(key)).second) deduped.Append(u);
        }
        owned_ = std::move(deduped);
        nested_ = &owned_;
        held_.reset();
      }
      pos_ = 0;
      if (nested_->empty()) {
        nested_ = nullptr;
        if (op_.outer) {
          // Paper μ: emit ⊥_{A(e.g)}.
          *out = base_.Concat(Tuple::Nulls(bot_attrs_));
          CountProducedTuple(ctx_);
          return true;
        }
      }
    }
  }
  void Close() override {
    input_->Close();
    nested_ = nullptr;
    held_.reset();
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  const std::vector<Symbol> drop_;
  std::vector<Symbol> bot_attrs_;
  Tuple base_;
  std::shared_ptr<const Sequence> held_;
  Sequence owned_;
  const Sequence* nested_ = nullptr;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Join cursors (right side materialized = hash build side; left side streams)
//
// The probe loops themselves live in nal/probe_loops.h, shared with the
// spill-aware cursors' fits-in-memory mode (spool.cpp) — one implementation
// instead of the former verbatim mirror, so budgeted-but-fitting runs match
// the unlimited executor by construction (tests/spool_test.cpp still
// asserts the identity differentially).
// ---------------------------------------------------------------------------

/// Shared helper: materializes the right operand and, when the predicate has
/// equality conjuncts, builds the hash index over it.
class JoinRightSide {
 public:
  void Build(const AlgebraOp& op, ExecContext& ctx, Cursor& right_cursor,
             bool try_equi) {
    right_ = Materialize(right_cursor);
    if (ctx.stream != nullptr) ctx.stream->OnBuffer(right_.size());
    if (try_equi) {
      SymbolSet lattrs = OutputAttrs(*op.child(0)).attrs;
      SymbolSet rattrs = OutputAttrs(*op.child(1)).attrs;
      equi_ = ExtractEquiPredicate(op.pred, lattrs, rattrs);
      if (equi_.has_value()) {
        index_.Build(right_, equi_->right_attrs, ctx.ev->store());
      }
    }
  }
  void Release(ExecContext& ctx) {
    if (released_) return;
    released_ = true;
    if (ctx.stream != nullptr) ctx.stream->OnRelease(right_.size());
  }

  const Sequence& right() const { return right_; }
  bool has_equi() const { return equi_.has_value(); }
  const EquiPredicate& equi() const { return *equi_; }
  const HashIndex& index() const { return index_; }

 private:
  Sequence right_;
  std::optional<EquiPredicate> equi_;
  HashIndex index_;
  bool released_ = false;
};

/// Common shape of the ⋈/×/⋉/▷/outer cursors: materialized right side
/// (JoinRightSide) plus the shared probe loops. The derived classes only
/// differ in Open extras and which loop Next forwards to.
class HashJoinCursorBase : public Cursor {
 public:
  HashJoinCursorBase(const AlgebraOp& op, ExecContext& ctx, CursorPtr left,
                     CursorPtr right)
      : op_(op), ctx_(ctx), left_(std::move(left)), right_(std::move(right)) {}
  void Close() override {
    left_->Close();
    rhs_.Release(ctx_);
  }

  // probe::JoinProbeLoops access policy (nal/probe_loops.h).
  ExecContext& ctx() { return ctx_; }
  const AlgebraOp& op() const { return op_; }
  bool LeftNext(Tuple* out) { return left_->Next(out); }
  bool use_index() const { return rhs_.has_equi(); }
  const HashIndex& hash_index() const { return rhs_.index(); }
  const Expr* residual() const { return rhs_.equi().residual.get(); }
  std::span<const Symbol> probe_attrs() const {
    return rhs_.equi().left_attrs;
  }
  const Tuple& right_at(uint32_t pos) const { return rhs_.right()[pos]; }
  void ScanRestart() { scan_pos_ = 0; }
  bool ScanNext(const Tuple** r) {
    if (scan_pos_ >= rhs_.right().size()) return false;
    *r = &rhs_.right()[scan_pos_++];
    return true;
  }
  const std::vector<Symbol>& outer_null_attrs() const { return null_attrs_; }
  const Value& outer_default() const { return dflt_; }

 protected:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr left_;
  CursorPtr right_;
  JoinRightSide rhs_;
  std::vector<Symbol> null_attrs_;  // outer join
  Value dflt_;                      // outer join
  probe::JoinProbeLoops<HashJoinCursorBase> loops_;
  size_t scan_pos_ = 0;
};

class CrossJoinCursor final : public HashJoinCursorBase {
 public:
  using HashJoinCursorBase::HashJoinCursorBase;
  void Open() override {
    left_->Open();
    rhs_.Build(op_, ctx_, *right_, /*try_equi=*/op_.kind == OpKind::kJoin);
    loops_.Reset();
  }
  bool Next(Tuple* out) override { return loops_.NextCrossJoin(*this, out); }
};

class SemiAntiJoinCursor final : public HashJoinCursorBase {
 public:
  using HashJoinCursorBase::HashJoinCursorBase;
  void Open() override {
    left_->Open();
    rhs_.Build(op_, ctx_, *right_, /*try_equi=*/true);
    loops_.Reset();
  }
  bool Next(Tuple* out) override { return loops_.NextSemiAnti(*this, out); }
};

class OuterJoinCursor final : public HashJoinCursorBase {
 public:
  OuterJoinCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr left,
                  CursorPtr right)
      : HashJoinCursorBase(op, ctx, std::move(left), std::move(right)) {
    AttrInfo info = OutputAttrs(*op_.child(1));
    for (Symbol a : info.attrs) {
      if (a != op_.attr) null_attrs_.push_back(a);
    }
  }
  void Open() override {
    left_->Open();
    rhs_.Build(op_, ctx_, *right_, /*try_equi=*/true);
    dflt_ = op_.expr != nullptr
                ? ctx_.ev->EvalExpr(*op_.expr, Tuple(), *ctx_.env)
                : Value::Null();
    loops_.Reset();
  }
  bool Next(Tuple* out) override { return loops_.NextOuter(*this, out); }
};

class GroupBinaryCursor final : public Cursor {
 public:
  GroupBinaryCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr left,
                    CursorPtr right)
      : op_(op), ctx_(ctx), left_(std::move(left)), right_(std::move(right)) {}
  void Open() override {
    left_->Open();
    right_seq_ = Materialize(*right_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(right_seq_.size());
    if (op_.theta == CmpOp::kEq) {
      index_.Build(right_seq_, op_.right_attrs, ctx_.ev->store());
    } else if (op_.left_attrs.size() != 1) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "theta nest-join requires a single attribute", 0, {},
                          "GroupBinary");
    }
    loops_.Reset();
  }
  bool Next(Tuple* out) override {
    return loops_.NextGroupBinary(*this, out);
  }
  void Close() override {
    left_->Close();
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(right_seq_.size());
  }

  // probe::JoinProbeLoops access policy (nal/probe_loops.h).
  ExecContext& ctx() { return ctx_; }
  const AlgebraOp& op() const { return op_; }
  bool LeftNext(Tuple* out) { return left_->Next(out); }
  bool use_index() const { return op_.theta == CmpOp::kEq; }
  const HashIndex& hash_index() const { return index_; }
  const Expr* residual() const { return nullptr; }
  std::span<const Symbol> probe_attrs() const { return op_.left_attrs; }
  const Tuple& right_at(uint32_t pos) const { return right_seq_[pos]; }
  void ScanRestart() { scan_pos_ = 0; }
  bool ScanNext(const Tuple** r) {
    if (scan_pos_ >= right_seq_.size()) return false;
    *r = &right_seq_[scan_pos_++];
    return true;
  }
  const std::vector<Symbol>& outer_null_attrs() const { return op_.attrs; }
  const Value& outer_default() const { return dflt_; }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr left_;
  CursorPtr right_;
  Sequence right_seq_;
  HashIndex index_;
  Value dflt_;  // unused (outer-join hook of the access policy)
  probe::JoinProbeLoops<GroupBinaryCursor> loops_;
  size_t scan_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Full pipeline breakers
// ---------------------------------------------------------------------------

class GroupUnaryCursor final : public Cursor {
 public:
  GroupUnaryCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_seq_ = Materialize(*input_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(input_seq_.size());
    // Distinct keys in first-occurrence order (ΠD semantics: deterministic);
    // bucketing and group emission shared with the spill cursor
    // (nal/probe_loops.h).
    gamma_.Build(input_seq_, op_.left_attrs, ctx_.ev->store());
  }
  bool Next(Tuple* out) override {
    if (op_.theta == CmpOp::kEq) {
      return probe::NextEqGammaGroup(gamma_, input_seq_, op_, ctx_, out);
    }
    // θ-grouping: group for key v = σ_{v θ A}(e), rescanning the input.
    return probe::NextThetaGammaGroup(
        gamma_.order, &gamma_.next_key, op_, ctx_,
        [&](auto&& fn) {
          for (const Tuple& u : input_seq_) fn(u);
        },
        out);
  }
  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(input_seq_.size());
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Sequence input_seq_;
  probe::GammaBuckets gamma_;
};

class SortCursor final : public Cursor {
 public:
  SortCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_seq_ = Materialize(*input_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(input_seq_.size());
    idx_.resize(input_seq_.size());
    for (uint32_t i = 0; i < idx_.size(); ++i) idx_[i] = i;
    std::vector<std::vector<Value>> keys(input_seq_.size());
    for (uint32_t i = 0; i < input_seq_.size(); ++i) {
      for (Symbol a : op_.attrs) {
        keys[i].push_back(input_seq_[i].Get(a).Atomize(ctx_.ev->store()));
      }
    }
    std::stable_sort(idx_.begin(), idx_.end(), [&](uint32_t a, uint32_t b) {
      for (size_t j = 0; j < op_.attrs.size(); ++j) {
        auto c = Value::Compare(keys[a][j], keys[b][j]);
        if (c != std::strong_ordering::equal) {
          bool descending = j < op_.sort_desc.size() && op_.sort_desc[j] != 0;
          return descending ? c == std::strong_ordering::greater
                            : c == std::strong_ordering::less;
        }
      }
      return false;
    });
    pos_ = 0;
  }
  bool Next(Tuple* out) override {
    if (pos_ >= idx_.size()) return false;
    *out = std::move(input_seq_[idx_[pos_++]]);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(input_seq_.size());
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Sequence input_seq_;
  std::vector<uint32_t> idx_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Result construction
// ---------------------------------------------------------------------------

class XiSimpleCursor final : public Cursor {
 public:
  /// `buffer_input` — a Ξ below us would interleave its output writes with
  /// ours under tuple-at-a-time pulls; buffering our input restores the
  /// materializing evaluator's "child first, then us" write order. Under a
  /// memory budget, MakeOpCursor passes false and pre-wraps the input in a
  /// spool-backed buffer instead.
  XiSimpleCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input,
                 bool buffer_input)
      : op_(op),
        ctx_(ctx),
        input_(std::move(input)),
        buffer_input_(buffer_input) {}
  void Open() override {
    if (buffer_input_) {
      input_seq_ = Materialize(*input_);
      if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(input_seq_.size());
      pos_ = 0;
    } else {
      input_->Open();
    }
  }
  bool Next(Tuple* out) override {
    Tuple t;
    if (buffer_input_) {
      if (pos_ >= input_seq_.size()) return false;
      t = std::move(input_seq_[pos_++]);
    } else if (!input_->Next(&t)) {
      return false;
    }
    ctx_.ev->RunXiProgram(op_.s1, t, *ctx_.env);
    *out = std::move(t);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {
    if (buffer_input_) {
      if (ctx_.stream != nullptr) ctx_.stream->OnRelease(input_seq_.size());
    } else {
      input_->Close();
    }
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  bool buffer_input_;
  Sequence input_seq_;
  size_t pos_ = 0;
};

class XiGroupCursor final : public Cursor {
 public:
  XiGroupCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}
  void Open() override {
    input_seq_ = Materialize(*input_);
    if (ctx_.stream != nullptr) ctx_.stream->OnBuffer(input_seq_.size());
    std::vector<Key> keys;
    for (uint32_t i = 0; i < input_seq_.size(); ++i) {
      MakeKeysInto(input_seq_[i], op_.attrs, ctx_.ev->store(), &keys);
      for (Key& k : keys) {
        auto [it, inserted] = buckets_.try_emplace(k);
        if (inserted) order_.push_back(k);
        it->second.push_back(i);
      }
    }
    next_key_ = 0;
  }
  bool Next(Tuple* out) override {
    if (next_key_ >= order_.size()) return false;
    const Key& key = order_[next_key_++];
    const std::vector<uint32_t>& members = buckets_[key];
    Tuple rep;
    for (size_t j = 0; j < op_.attrs.size(); ++j) {
      rep.Set(op_.attrs[j], key.values[j]);
    }
    // The group attributes carry the atomized key (ΠD semantics); they win
    // over the inner tuple's original values in s1/s3.
    ctx_.ev->RunXiProgram(op_.s1, input_seq_[members.front()].Concat(rep),
                          *ctx_.env);
    for (uint32_t pos : members) {
      ctx_.ev->RunXiProgram(op_.s2, input_seq_[pos], *ctx_.env);
    }
    ctx_.ev->RunXiProgram(op_.s3, input_seq_[members.back()].Concat(rep),
                          *ctx_.env);
    *out = std::move(rep);
    CountProducedTuple(ctx_);
    return true;
  }
  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(input_seq_.size());
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  Sequence input_seq_;
  std::vector<Key> order_;
  std::unordered_map<Key, std::vector<uint32_t>, KeyHash> buckets_;
  size_t next_key_ = 0;
};

// ---------------------------------------------------------------------------
// Common-subexpression sharing
// ---------------------------------------------------------------------------

/// Wraps the operator cursor of a node with cse_id >= 0: the first Open in
/// the run computes the node once (through its own counting cursor tree)
/// into the run's CseTable; every consumer — including nested subscript
/// evaluations going through Evaluator::EvalOp, on any worker — then
/// replays the entry without re-computing or re-counting, exactly like the
/// materializing evaluator's hit path. The table charges the entry to the
/// run's budget and spills it when it does not fit.
class CseCursor final : public Cursor {
 public:
  CseCursor(const AlgebraOp& op, ExecContext& ctx) : op_(op), ctx_(ctx) {}
  void Open() override {
    bool filled = false;
    const CseTable::Entry& entry = ctx_.ev->cse_table()->Get(
        op_.cse_id, &ctx_.ev->stats().spill,
        [&](const CseTable::Sink& sink) {
          CursorPtr inner = MakeOpCursor(op_, ctx_);
          Tuple t;
          inner->Open();
          while (inner->Next(&t)) sink(std::move(t));
          inner->Close();
        },
        &filled);
    // The table retains the entry for the rest of the run; StreamStats
    // sees it as buffered without release.
    if (filled && ctx_.stream != nullptr) {
      ctx_.stream->OnBuffer(CseTable::Size(entry));
    }
    reader_.emplace(entry);
  }
  bool Next(Tuple* out) override {
    return reader_->Next(out);  // replays are not re-counted (as in EvalOp)
  }
  void Close() override { reader_.reset(); }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  std::optional<CseTable::Reader> reader_;
};

CursorPtr MakeOpCursor(const AlgebraOp& op, ExecContext& ctx) {
  switch (op.kind) {
    case OpKind::kSingleton:
      return std::make_unique<SingletonCursor>(ctx);
    case OpKind::kSelect:
      return std::make_unique<SelectCursor>(op, ctx,
                                            MakeCursor(*op.child(0), ctx));
    case OpKind::kProject:
      return std::make_unique<ProjectCursor>(op, ctx,
                                             MakeCursor(*op.child(0), ctx));
    case OpKind::kMap:
      return std::make_unique<MapCursor>(op, ctx,
                                         MakeCursor(*op.child(0), ctx));
    case OpKind::kUnnestMap:
      return std::make_unique<UnnestMapCursor>(op, ctx,
                                               MakeCursor(*op.child(0), ctx));
    case OpKind::kUnnest:
      return std::make_unique<UnnestCursor>(op, ctx,
                                            MakeCursor(*op.child(0), ctx));
    case OpKind::kCross:
    case OpKind::kJoin:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillJoinCursor(op, ctx, MakeLeftCursor(op, ctx),
                                   MakeCursor(*op.child(1), ctx));
      }
      return std::make_unique<CrossJoinCursor>(
          op, ctx, MakeLeftCursor(op, ctx), MakeCursor(*op.child(1), ctx));
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillJoinCursor(op, ctx, MakeLeftCursor(op, ctx),
                                   MakeCursor(*op.child(1), ctx));
      }
      return std::make_unique<SemiAntiJoinCursor>(
          op, ctx, MakeLeftCursor(op, ctx), MakeCursor(*op.child(1), ctx));
    case OpKind::kOuterJoin:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillJoinCursor(op, ctx, MakeLeftCursor(op, ctx),
                                   MakeCursor(*op.child(1), ctx));
      }
      return std::make_unique<OuterJoinCursor>(
          op, ctx, MakeLeftCursor(op, ctx), MakeCursor(*op.child(1), ctx));
    case OpKind::kGroupUnary:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillGroupUnaryCursor(op, ctx,
                                         MakeCursor(*op.child(0), ctx));
      }
      return std::make_unique<GroupUnaryCursor>(op, ctx,
                                                MakeCursor(*op.child(0), ctx));
    case OpKind::kGroupBinary:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillJoinCursor(op, ctx, MakeLeftCursor(op, ctx),
                                   MakeCursor(*op.child(1), ctx));
      }
      return std::make_unique<GroupBinaryCursor>(
          op, ctx, MakeLeftCursor(op, ctx), MakeCursor(*op.child(1), ctx));
    case OpKind::kSort:
      if (UseSpillCursor(op, ctx)) {
        return MakeSpillSortCursor(op, ctx, MakeCursor(*op.child(0), ctx));
      }
      return std::make_unique<SortCursor>(op, ctx,
                                          MakeCursor(*op.child(0), ctx));
    case OpKind::kXiSimple: {
      CursorPtr input = MakeCursor(*op.child(0), ctx);
      bool buffer_input = ContainsXi(*op.child(0));
      if (buffer_input && SpillEnabled(ctx)) {
        // Spool-backed order pinning: same write order, bounded memory.
        input = MakeSpoolBufferCursor(ctx, std::move(input));
        buffer_input = false;
      }
      return std::make_unique<XiSimpleCursor>(op, ctx, std::move(input),
                                              buffer_input);
    }
    case OpKind::kXiGroup:
      return std::make_unique<XiGroupCursor>(op, ctx,
                                             MakeCursor(*op.child(0), ctx));
  }
  throw std::logic_error("unknown operator kind");
}

/// Per-operator profiling decorator (obs/profile.h) — the OpContextCursor
/// pattern from the spool layer: created only when the run's evaluator
/// carries a ProfileCollector, so profiling off costs nothing here. Counts
/// Open/Next/Close calls, accrues wall time and spill-byte deltas inclusive
/// of the subtree, and holds the collector's attribution scope around every
/// inner call so the universal count site (Evaluator::CountProduced) books
/// this operator's emissions — including those of algebra nested in its
/// subscripts — against it.
class ProfileCursor final : public Cursor {
 public:
  ProfileCursor(ExecContext& ctx, obs::ProfileCollector* collector,
                obs::OpMetrics* metrics, CursorPtr inner)
      : ctx_(ctx),
        collector_(collector),
        metrics_(metrics),
        inner_(std::move(inner)) {}

  void Open() override {
    ++metrics_->open_calls;
    Measured scope(this);
    inner_->Open();
  }
  bool Next(Tuple* out) override {
    ++metrics_->next_calls;
    Measured scope(this);
    return inner_->Next(out);
  }
  void Close() override {
    ++metrics_->close_calls;
    Measured scope(this);
    inner_->Close();
  }

 private:
  /// Scope guard: swaps the attribution scope to this operator and accrues
  /// wall/spill on exit — exception-safe, so an unwinding cancellation
  /// still restores the enclosing operator's scope.
  struct Measured {
    explicit Measured(ProfileCursor* c)
        : cursor(c),
          saved(c->collector_->current()),
          spill_before(c->ctx_.ev->stats().spill.spilled_bytes),
          begin(std::chrono::steady_clock::now()) {
      c->collector_->set_current(c->metrics_);
    }
    ~Measured() {
      cursor->metrics_->wall_ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin)
              .count());
      cursor->metrics_->spill_bytes +=
          cursor->ctx_.ev->stats().spill.spilled_bytes - spill_before;
      cursor->collector_->set_current(saved);
    }
    ProfileCursor* cursor;
    obs::OpMetrics* saved;
    uint64_t spill_before;
    std::chrono::steady_clock::time_point begin;
  };

  ExecContext& ctx_;
  obs::ProfileCollector* collector_;
  obs::OpMetrics* metrics_;
  CursorPtr inner_;
};

/// Wraps `inner` in a ProfileCursor when profiling is on AND `op` is a
/// tracked plan node (untracked shapes — e.g. cursors over subscript
/// algebra — keep their enclosing operator's scope).
CursorPtr MaybeProfileCursor(const AlgebraOp& op, ExecContext& ctx,
                             CursorPtr inner) {
  obs::ProfileCollector* collector = ctx.ev->profile();
  if (collector == nullptr) return inner;
  obs::OpMetrics* metrics = collector->Find(&op);
  if (metrics == nullptr) return inner;
  return std::make_unique<ProfileCursor>(ctx, collector, metrics,
                                         std::move(inner));
}

}  // namespace

CursorPtr MakeCursor(const AlgebraOp& op, ExecContext& ctx) {
  if (ctx.exchange_op == &op && ctx.make_exchange != nullptr) {
    // Fire the injection once; the exchange builds its own source cursor
    // through this same context, and must not recurse into itself. The
    // decorator wraps the exchange cursor itself, so the injection node's
    // profile covers source drain + worker wait + merge (its workers' own
    // processing is folded in from the worker collectors at Close).
    std::function<CursorPtr(ExecContext&)> factory =
        std::move(ctx.make_exchange);
    ctx.make_exchange = nullptr;
    return MaybeProfileCursor(op, ctx, factory(ctx));
  }
  if (op.cse_id >= 0 && ctx.ev->cse_table() != nullptr) {
    return MaybeProfileCursor(op, ctx,
                              std::make_unique<CseCursor>(op, ctx));
  }
  return MaybeProfileCursor(op, ctx, MakeOpCursor(op, ctx));
}

// ---------------------------------------------------------------------------
// Shared-build parallel probe (cursor.h): consumer-built read-only right
// sides + the per-worker probe cursor over them.
// ---------------------------------------------------------------------------

struct SharedJoinBuild {
  const AlgebraOp* op = nullptr;
  Sequence right;
  std::optional<EquiPredicate> equi;  ///< join family; binary-Γ uses op attrs
  HashIndex index;
  bool indexed = false;             ///< index built (equi join or '='-nest)
  std::vector<Symbol> null_attrs;   ///< outer join ⊥ padding
  Value dflt;                       ///< outer join default
  bool released = false;
};

namespace {

bool IsProbeKind(OpKind kind) {
  switch (kind) {
    case OpKind::kCross:
    case OpKind::kJoin:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kOuterJoin:
    case OpKind::kGroupBinary:
      return true;
    default:
      return false;
  }
}

/// One worker's probe cursor: the JoinProbeLoops access policy backed by a
/// shared, immutable build instead of a privately materialized one. The
/// loops' per-left-tuple state lives in the cursor (worker-private); the
/// build is only ever read.
class SharedProbeCursor final : public Cursor {
 public:
  SharedProbeCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input,
                    const SharedJoinBuild& build)
      : op_(op), ctx_(ctx), input_(std::move(input)), build_(build) {}
  void Open() override {
    input_->Open();
    loops_.Reset();
    scan_pos_ = 0;
  }
  bool Next(Tuple* out) override {
    switch (op_.kind) {
      case OpKind::kCross:
      case OpKind::kJoin:
        return loops_.NextCrossJoin(*this, out);
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        return loops_.NextSemiAnti(*this, out);
      case OpKind::kOuterJoin:
        return loops_.NextOuter(*this, out);
      case OpKind::kGroupBinary:
        return loops_.NextGroupBinary(*this, out);
      default:
        throw std::logic_error("SharedProbeCursor: not a probe operator");
    }
  }
  void Close() override { input_->Close(); }

  // probe::JoinProbeLoops access policy (nal/probe_loops.h).
  ExecContext& ctx() { return ctx_; }
  const AlgebraOp& op() const { return op_; }
  bool LeftNext(Tuple* out) { return input_->Next(out); }
  bool use_index() const { return build_.indexed; }
  const HashIndex& hash_index() const { return build_.index; }
  const Expr* residual() const {
    return build_.equi.has_value() ? build_.equi->residual.get() : nullptr;
  }
  std::span<const Symbol> probe_attrs() const {
    return op_.kind == OpKind::kGroupBinary
               ? std::span<const Symbol>(op_.left_attrs)
               : std::span<const Symbol>(build_.equi->left_attrs);
  }
  const Tuple& right_at(uint32_t pos) const { return build_.right[pos]; }
  void ScanRestart() { scan_pos_ = 0; }
  bool ScanNext(const Tuple** r) {
    if (scan_pos_ >= build_.right.size()) return false;
    *r = &build_.right[scan_pos_++];
    return true;
  }
  const std::vector<Symbol>& outer_null_attrs() const {
    return op_.kind == OpKind::kGroupBinary ? op_.attrs : build_.null_attrs;
  }
  const Value& outer_default() const { return build_.dflt; }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  const SharedJoinBuild& build_;
  probe::JoinProbeLoops<SharedProbeCursor> loops_;
  size_t scan_pos_ = 0;
};

}  // namespace

bool IsProbePartitionableOp(const AlgebraOp& op) {
  if (!IsProbeKind(op.kind)) return false;
  // Same worker-safety conditions as IsPartitionableOp — workers evaluate
  // the residual/θ predicates — plus a Ξ-free build subtree: the build runs
  // once on the consumer during exchange Open, which matches the serial
  // cursor's Open cascade only when that evaluation writes no output.
  return op.cse_id < 0 && !SubscriptsContainXi(op) &&
         !ContainsXi(*op.child(1));
}

bool IsGammaPartitionableOp(const AlgebraOp& op) {
  if (op.kind != OpKind::kGroupUnary) return false;
  // θ-grouping rescans the whole input per key — no partitioning. Under
  // '=', hash-partitioning by the full group key puts every group entirely
  // in one partition, so any aggregate (min/max/sum/count/id...) works
  // without partial-state merging.
  if (op.theta != CmpOp::kEq) return false;
  return op.cse_id < 0 && !SubscriptsContainXi(op);
}

SharedJoinBuildPtr BuildSharedJoin(const AlgebraOp& op, ExecContext& ctx) {
  auto b = std::make_shared<SharedJoinBuild>();
  b->op = &op;
  CursorPtr right = MakeCursor(*op.child(1), ctx);
  b->right = Materialize(*right);
  if (ctx.stream != nullptr) ctx.stream->OnBuffer(b->right.size());
  if (op.kind == OpKind::kGroupBinary) {
    if (op.theta == CmpOp::kEq) {
      b->index.Build(b->right, op.right_attrs, ctx.ev->store());
      b->indexed = true;
    } else if (op.left_attrs.size() != 1) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "theta nest-join requires a single attribute", 0, {},
                          "GroupBinary");
    }
  } else if (op.kind != OpKind::kCross) {
    SymbolSet lattrs = OutputAttrs(*op.child(0)).attrs;
    SymbolSet rattrs = OutputAttrs(*op.child(1)).attrs;
    b->equi = ExtractEquiPredicate(op.pred, lattrs, rattrs);
    if (b->equi.has_value()) {
      b->index.Build(b->right, b->equi->right_attrs, ctx.ev->store());
      b->indexed = true;
    }
  }
  if (op.kind == OpKind::kOuterJoin) {
    AttrInfo info = OutputAttrs(*op.child(1));
    for (Symbol a : info.attrs) {
      if (a != op.attr) b->null_attrs.push_back(a);
    }
    b->dflt = op.expr != nullptr
                  ? ctx.ev->EvalExpr(*op.expr, Tuple(), *ctx.env)
                  : Value::Null();
  }
  return b;
}

void ReleaseSharedJoin(SharedJoinBuild& build, ExecContext& ctx) {
  if (build.released) return;
  build.released = true;
  if (ctx.stream != nullptr) ctx.stream->OnRelease(build.right.size());
}

CursorPtr MakeProbeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr input, const SharedJoinBuild& build) {
  return MaybeProfileCursor(
      op, ctx,
      std::make_unique<SharedProbeCursor>(op, ctx, std::move(input), build));
}

bool IsPartitionableOp(const AlgebraOp& op) {
  switch (op.kind) {
    case OpKind::kSelect:
    case OpKind::kMap:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
      break;
    case OpKind::kProject:
      // ΠD deduplicates across the whole input — state spans tuples.
      if (op.pmode == ProjectMode::kDistinct) return false;
      break;
    default:
      return false;
  }
  // The node itself must not be shared (CSE computes once per run), and its
  // subscripts must not write to the Ξ output stream (workers have no
  // output ordering). CSE-carrying subscripts are fine: every worker reads
  // the run's one CseTable (nal/spool.h), which fills each entry once.
  return op.cse_id < 0 && !SubscriptsContainXi(op);
}

CursorPtr MakeCursorOver(const AlgebraOp& op, ExecContext& ctx,
                         CursorPtr input) {
  CursorPtr c;
  switch (op.kind) {
    case OpKind::kSelect:
      c = std::make_unique<SelectCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kProject:
      c = std::make_unique<ProjectCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kMap:
      c = std::make_unique<MapCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kUnnestMap:
      c = std::make_unique<UnnestMapCursor>(op, ctx, std::move(input));
      break;
    case OpKind::kUnnest:
      c = std::make_unique<UnnestCursor>(op, ctx, std::move(input));
      break;
    default:
      throw std::logic_error("MakeCursorOver: operator is not partitionable");
  }
  return MaybeProfileCursor(op, ctx, std::move(c));
}

namespace {

/// Env-default spool for runs that did not pass one explicitly: a local
/// SpoolContext carrying NALQ_MEMORY_BUDGET_BYTES. Construction is cheap
/// (no filesystem work until the first spill), so paying it per run keeps
/// temp-file lifetime tied to the run.
std::optional<SpoolContext> MakeEnvSpool(SpoolContext* explicit_spool) {
  if (explicit_spool != nullptr) return std::nullopt;
  uint64_t budget = SpoolContext::EnvBudgetBytes();
  if (budget == 0) return std::nullopt;
  return std::optional<SpoolContext>(std::in_place, budget);
}

}  // namespace

uint64_t DrainStreaming(Evaluator& ev, const AlgebraOp& op,
                        StreamStats* stream, SpoolContext* spool) {
  xml::StoreReadLease lease(ev.store());
  std::optional<SpoolContext> env_spool = MakeEnvSpool(spool);
  if (env_spool.has_value()) spool = &*env_spool;
  // The spool layer polls the run's cancellation token per temp-file record
  // (spool.h); wire the evaluator's token in unless the caller set its own.
  if (spool != nullptr && spool->control() == nullptr) {
    spool->set_control(ev.control());
  }
  Tuple env;
  ExecContext ctx{&ev, &env, stream,
                  spool != nullptr && spool->enabled() ? spool : nullptr};
  CseTable cse(ctx.spool);
  ScopedCseTable bind(ev, &cse);
  CursorPtr root = MakeCursor(op, ctx);
  uint64_t count = 0;
  Tuple t;
  root->Open();
  while (root->Next(&t)) ++count;
  root->Close();
  return count;
}

Sequence ExecuteStreaming(Evaluator& ev, const AlgebraOp& op,
                          StreamStats* stream, SpoolContext* spool) {
  xml::StoreReadLease lease(ev.store());
  std::optional<SpoolContext> env_spool = MakeEnvSpool(spool);
  if (env_spool.has_value()) spool = &*env_spool;
  if (spool != nullptr && spool->control() == nullptr) {
    spool->set_control(ev.control());
  }
  Tuple env;
  ExecContext ctx{&ev, &env, stream,
                  spool != nullptr && spool->enabled() ? spool : nullptr};
  CseTable cse(ctx.spool);
  ScopedCseTable bind(ev, &cse);
  CursorPtr root = MakeCursor(op, ctx);
  Sequence out;
  Tuple t;
  root->Open();
  while (root->Next(&t)) out.Append(std::move(t));
  root->Close();
  return out;
}

}  // namespace nalq::nal
