#include "nal/exchange.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nal/env_knobs.h"
#include "nal/physical.h"
#include "nal/probe_loops.h"
#include "nal/scheduler.h"
#include "nal/spool.h"

namespace nalq::nal {

namespace {

unsigned ResolveThreads(unsigned requested) {
  if (requested != 0) return requested;
  // NALQ_THREADS supplies the degree-of-parallelism default the same way
  // NALQ_MEMORY_BUDGET_BYTES supplies the budget: unset/empty falls through
  // to one worker per hardware core, a malformed value fails loudly with
  // kPlanError (env_knobs.h) instead of silently becoming "serial". Read
  // per call (not cached) so tests can vary it within one process.
  uint64_t env = EnvKnobU64("NALQ_THREADS", 0);
  if (env != 0) {
    return static_cast<unsigned>(
        std::min<uint64_t>(env, std::numeric_limits<unsigned>::max()));
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Budget-aware degree of parallelism. Workers share the run's accountant
/// for anything they would buffer, but each worker also carries in-flight
/// state the accountant never sees — its dispatch-window chunk and result
/// packet. Clamping the worker count to budget / kMinWorkerBudgetBytes
/// keeps that uncharged per-worker footprint proportional to the budget,
/// so a high `threads` request cannot over-commit it.
unsigned ResolveBudgetedThreads(unsigned requested, uint64_t budget_bytes) {
  unsigned dop = ResolveThreads(requested);
  if (budget_bytes != 0) {
    uint64_t cap = budget_bytes / kMinWorkerBudgetBytes;
    if (cap == 0) cap = 1;
    if (dop > cap) dop = static_cast<unsigned>(cap);
  }
  return dop;
}

bool IsExpanding(const AlgebraOp& op) {
  return op.kind == OpKind::kUnnestMap || op.kind == OpKind::kUnnest;
}

/// The leaf of a worker's cursor chain: replays the tuples of the chunk
/// currently assigned to the pipeline. Like BufferCursor it re-emits
/// already-counted tuples (the producer's operator counted them), so Next
/// never touches tuples_produced.
class PartitionCursor final : public Cursor {
 public:
  void Reset(std::vector<Tuple> tuples) {
    tuples_ = std::move(tuples);
    pos_ = 0;
  }
  void Open() override { pos_ = 0; }
  bool Next(Tuple* out) override {
    if (pos_ >= tuples_.size()) return false;
    *out = std::move(tuples_[pos_++]);
    return true;
  }
  void Close() override {
    tuples_.clear();
    pos_ = 0;
  }

 private:
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

/// One worker's clone of the partitionable segment: a private Evaluator
/// (own EvalStats, own scratch caches, same store and path mode) driving a
/// private cursor chain over the shared plan nodes. Heap-allocated and
/// never moved, because ctx points into the object. Under a memory budget
/// the worker also carries a private SpoolContext — its own temp-file
/// directory (spool files stay worker-private) sharing the run's global
/// MemoryBudget accountant.
struct WorkerPipeline {
  std::unique_ptr<Evaluator> ev;
  Tuple env;  ///< the top-level empty outer binding
  ExecContext ctx;
  PartitionCursor* leaf = nullptr;  ///< borrowed from `pipeline`
  CursorPtr pipeline;
  std::unique_ptr<SpoolContext> spool;
  /// Worker-private profile clone (merged by MergeCursor::Close alongside
  /// the stats fold); null when the run is not profiling.
  std::unique_ptr<obs::ProfileCollector> profile;
};

/// State shared between the consumer thread and the chunk tasks. Owned by a
/// shared_ptr so in-flight tasks stay valid even if the cursor is destroyed
/// early (the destructor additionally waits for them, protecting the
/// store/plan references inside the pipelines).
struct ExchangeState {
  std::mutex mu;
  std::condition_variable cv;

  /// Result packets by ticket; consumed strictly in ticket order.
  std::map<uint64_t, std::vector<Tuple>> completed;
  uint64_t dispatched = 0;
  uint64_t finished = 0;
  /// Per-ticket worker exceptions. The consumer rethrows the error of the
  /// LOWEST ticket it reaches — ticket order, not wall-clock arrival order —
  /// so which of several concurrent worker failures surfaces is
  /// deterministic (stable under TSan/any interleaving).
  std::map<uint64_t, std::exception_ptr> errors;
  /// Latched on the first worker failure: stops chunk dispatch, and tasks
  /// that have not started yet skip their work (they still publish an empty
  /// packet so the ticket/finished accounting closes and nothing hangs).
  std::atomic<bool> abort{false};

  /// Pipeline pool. The dispatch window (dispatched - finished < dop)
  /// guarantees a starting task always finds an idle pipeline.
  std::vector<std::unique_ptr<WorkerPipeline>> pipelines;
  std::vector<WorkerPipeline*> idle;
};

void RunChunkTask(const std::shared_ptr<ExchangeState>& state, uint64_t ticket,
                  std::vector<Tuple> tuples) {
  WorkerPipeline* wp = nullptr;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    wp = state->idle.back();
    state->idle.pop_back();
  }
  std::vector<Tuple> packet;
  std::exception_ptr error;
  if (!state->abort.load(std::memory_order_acquire)) {
    obs::TraceLog::Span span(wp->ev->trace(), "exchange.chunk");
    try {
      wp->leaf->Reset(std::move(tuples));
      // Re-opening per chunk is sound precisely because segment operators
      // are per-tuple: their Open only resets within-tuple iteration state,
      // so the concatenation of per-chunk runs equals one run over the
      // whole stream.
      wp->pipeline->Open();
      Tuple t;
      while (wp->pipeline->Next(&t)) packet.push_back(std::move(t));
      wp->pipeline->Close();
    } catch (...) {
      // A failed chunk still runs the full cleanup path: the exception
      // unwound through the cursor chain's RAII (spool files, budget
      // charges), and the packet/idle bookkeeping below closes normally.
      error = std::current_exception();
      packet.clear();
      state->abort.store(true, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->idle.push_back(wp);
    if (error != nullptr) state->errors.emplace(ticket, error);
    state->completed.emplace(ticket, std::move(packet));
    ++state->finished;
  }
  state->cv.notify_all();
}

/// The order-preserving merge side of the exchange, and the cursor the rest
/// of the (serial) plan sees in place of the segment. Next() interleaves
/// three roles on the consumer thread: pull the producer and dispatch
/// chunks, wait for workers, and re-emit completed packets in ticket order.
/// All main-Evaluator use (producer subtree, operators above the exchange)
/// therefore stays on one thread; workers only ever touch their own
/// evaluators.
class MergeCursor final : public Cursor {
 public:
  MergeCursor(const PartitionPoint& point, ExecContext& ctx,
              const ParallelOptions& options)
      : point_(point), ctx_(ctx), options_(options) {}

  ~MergeCursor() override { WaitForTasks(); }

  void Open() override {
    dop_ = ResolveBudgetedThreads(options_.threads,
                                  options_.memory_budget_bytes);
    Scheduler::Global().EnsureThreads(dop_);
    state_ = std::make_shared<ExchangeState>();
    // The source subtree opens BEFORE any shared build, and the builds run
    // deepest-first — exactly the serial Open cascade (recursion reaches
    // the deepest child, then unwinds building each breaker on the way
    // up), so Ξ writes and CSE materializations inside the source subtree
    // keep their serial positions relative to the builds.
    source_ = MakeCursor(*point_.source, ctx_);
    source_->Open();
    source_open_ = true;
    source_done_ = false;
    shared_builds_.assign(point_.segment.size(), nullptr);
    for (size_t i = point_.segment.size(); i-- > 0;) {
      const AlgebraOp& seg_op = *point_.segment[i];
      if (!IsPartitionableOp(seg_op)) {
        shared_builds_[i] = BuildSharedJoin(seg_op, ctx_);
      }
    }
    if (ctx_.stream != nullptr) {
      if (dop_ > ctx_.stream->exchange_dop) ctx_.stream->exchange_dop = dop_;
      for (const SharedJoinBuildPtr& b : shared_builds_) {
        if (b != nullptr) ++ctx_.stream->shared_probe_breakers;
      }
    }
    for (unsigned w = 0; w < dop_; ++w) {
      auto wp = std::make_unique<WorkerPipeline>();
      wp->ev = std::make_unique<Evaluator>(ctx_.ev->store());
      wp->ev->set_path_mode(ctx_.ev->path_mode());
      // Workers share the run's cancellation token: one RequestCancel (or
      // the deadline tripping on any thread) stops every chunk task at its
      // next poll.
      wp->ev->set_control(ctx_.ev->control());
      wp->ev->set_cse_table(ctx_.ev->cse_table());
      // Each worker profiles into a private clone of the run's collector
      // (folded at Close, like the stats), so workers never contend on the
      // profile. The trace log is one shared thread-safe sink.
      if (ctx_.ev->profile() != nullptr) {
        wp->profile = std::make_unique<obs::ProfileCollector>(
            ctx_.ev->profile()->CloneEmpty());
        wp->ev->set_profile(wp->profile.get());
      }
      wp->ev->set_trace(ctx_.ev->trace());
      // Workers reserve against the SAME accountant as the consumer (the
      // MemoryBudget is thread-safe), so one limit bounds the whole run —
      // the consumer pipeline, which runs every breaker, is not throttled
      // to a fraction of it. Worker spool files stay worker-private via a
      // per-worker directory. (Today a worker segment holds only
      // per-tuple operators — IsPartitionableOp — so worker charges are
      // theoretical until segments ever gain stateful operators.)
      if (ctx_.spool != nullptr) {
        wp->spool = std::make_unique<SpoolContext>(ctx_.spool->budget());
        wp->spool->set_control(ctx_.ev->control());
        // Workers inherit the parent run's fault injector, not the ambient
        // one: Open() runs on the consumer thread, but the worker contexts
        // must fault (or not) with the run they belong to.
        wp->spool->set_injector(ctx_.spool->injector());
        // And its grace-admission row hints, keyed by shared plan nodes.
        if (ctx_.spool->row_hints() != nullptr) {
          wp->spool->set_row_hints(ctx_.spool->row_hints());
        }
      }
      wp->ctx = ExecContext{wp->ev.get(), &wp->env, nullptr,
                            wp->spool != nullptr && wp->spool->enabled()
                                ? wp->spool.get()
                                : nullptr};
      auto leaf = std::make_unique<PartitionCursor>();
      wp->leaf = leaf.get();
      CursorPtr chain = std::move(leaf);
      for (size_t i = point_.segment.size(); i-- > 0;) {
        const AlgebraOp& seg_op = *point_.segment[i];
        if (shared_builds_[i] != nullptr) {
          chain = MakeProbeCursorOver(seg_op, wp->ctx, std::move(chain),
                                      *shared_builds_[i]);
        } else {
          chain = MakeCursorOver(seg_op, wp->ctx, std::move(chain));
        }
      }
      wp->pipeline = std::move(chain);
      state_->idle.push_back(wp.get());
      state_->pipelines.push_back(std::move(wp));
    }
    next_ticket_ = 0;
    total_dispatched_ = 0;
    current_.clear();
    cpos_ = 0;
    if (options_.strategy == PartitionStrategy::kRange) MaterializeRanges();
  }

  bool Next(Tuple* out) override {
    while (true) {
      if (cpos_ < current_.size()) {
        *out = std::move(current_[cpos_++]);
        return true;
      }
      if (!FetchNextPacket()) return false;
    }
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    WaitForTasks();
    CloseSource();
    if (ctx_.stream != nullptr) {
      for (const auto& [ticket, n] : chunk_input_sizes_) {
        ctx_.stream->OnRelease(n);
      }
      // Range chunks never dispatched were charged by the materialization
      // but have no per-ticket entry yet.
      for (const std::vector<Tuple>& chunk : pending_) {
        ctx_.stream->OnRelease(chunk.size());
      }
    }
    chunk_input_sizes_.clear();
    pending_.clear();
    if (state_ != nullptr) {
      // Fold every worker's counters into the main evaluator — the merged
      // stats are what makes a parallel run report exactly like a serial
      // one.
      for (const auto& wp : state_->pipelines) {
        ctx_.ev->stats() += wp->ev->stats();
        if (wp->profile != nullptr && ctx_.ev->profile() != nullptr) {
          ctx_.ev->profile()->MergeFrom(*wp->profile);
        }
      }
    }
    for (const SharedJoinBuildPtr& b : shared_builds_) {
      if (b != nullptr) ReleaseSharedJoin(*b, ctx_);
    }
  }

 private:
  void WaitForTasks() {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->finished == state_->dispatched; });
  }

  void CloseSource() {
    if (source_open_) {
      source_->Close();
      source_open_ = false;
    }
  }

  /// Range strategy: materialize the producer and pre-split it into one
  /// contiguous chunk per worker.
  void MaterializeRanges() {
    std::vector<Tuple> all;
    Tuple t;
    while (source_->Next(&t)) all.push_back(std::move(t));
    CloseSource();
    source_done_ = true;
    if (ctx_.stream != nullptr && !all.empty()) {
      ctx_.stream->OnBuffer(all.size());
    }
    if (all.empty()) return;
    size_t per = (all.size() + dop_ - 1) / dop_;
    for (size_t begin = 0; begin < all.size(); begin += per) {
      size_t end = std::min(begin + per, all.size());
      pending_.emplace_back(
          std::make_move_iterator(all.begin() + static_cast<ptrdiff_t>(begin)),
          std::make_move_iterator(all.begin() + static_cast<ptrdiff_t>(end)));
    }
  }

  bool SourceExhausted() const {
    return source_done_ && pending_.empty();
  }

  /// Pulls the next chunk (from the producer or the pre-split ranges) and
  /// submits it to the scheduler. False if the source just ran dry.
  bool DispatchOne() {
    std::vector<Tuple> tuples;
    if (options_.strategy == PartitionStrategy::kRange) {
      if (pending_.empty()) return false;
      tuples = std::move(pending_.front());
      pending_.pop_front();
      // Buffering was charged by the materialization; count the morsel.
      if (ctx_.stream != nullptr) ++ctx_.stream->exchange_chunks;
    } else {
      Tuple t;
      uint32_t chunk = options_.chunk_tuples == 0 ? 1 : options_.chunk_tuples;
      bool more = true;
      while (tuples.size() < chunk && (more = source_->Next(&t))) {
        tuples.push_back(std::move(t));
      }
      if (!more) {
        // Record exhaustion the moment Next returns false — cursors are
        // single-use (cursor.h) and must not be pulled past their end on a
        // later DispatchOne.
        source_done_ = true;
        CloseSource();
      }
      if (tuples.empty()) return false;
      if (ctx_.stream != nullptr) ctx_.stream->OnChunkDispatch(tuples.size());
    }
    uint64_t ticket = total_dispatched_++;
    chunk_input_sizes_[ticket] = tuples.size();
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      ++state_->dispatched;
    }
    std::shared_ptr<ExchangeState> state = state_;
    Scheduler::Global().Submit(
        [state, ticket, chunk = std::move(tuples)]() mutable {
          RunChunkTask(state, ticket, std::move(chunk));
        });
    return true;
  }

  /// Advances to the packet of next_ticket_, producing/dispatching or
  /// waiting as needed. False when every ticket has been consumed.
  bool FetchNextPacket() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(state_->mu);
        // The error check precedes the packet check, and both go strictly
        // by next_ticket_: packets before the first failing ticket are
        // emitted normally, then that ticket's error is rethrown —
        // regardless of which worker failed first on the wall clock.
        auto eit = state_->errors.find(next_ticket_);
        if (eit != state_->errors.end()) {
          std::exception_ptr error = eit->second;
          lock.unlock();
          std::rethrow_exception(error);
        }
        auto it = state_->completed.find(next_ticket_);
        if (it != state_->completed.end()) {
          current_ = std::move(it->second);
          state_->completed.erase(it);
          lock.unlock();
          cpos_ = 0;
          auto size_it = chunk_input_sizes_.find(next_ticket_);
          if (size_it != chunk_input_sizes_.end()) {
            if (ctx_.stream != nullptr) ctx_.stream->OnRelease(size_it->second);
            chunk_input_sizes_.erase(size_it);
          }
          ++next_ticket_;
          return true;
        }
      }
      // A latched abort stops dispatch: the failing ticket is already in
      // flight and the consumer only needs to drain up to it.
      bool aborted = state_->abort.load(std::memory_order_acquire);
      if (!aborted && !SourceExhausted()) {
        bool room;
        {
          std::lock_guard<std::mutex> lock(state_->mu);
          room = state_->dispatched - state_->finished < dop_;
        }
        if (room) {
          DispatchOne();
          continue;
        }
      } else if (next_ticket_ >= total_dispatched_) {
        return false;
      }
      // Workers are busy on every pipeline (or hold the ticket we need):
      // wait for a completion, which frees a pipeline and may be ours.
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] {
        return state_->completed.count(next_ticket_) != 0 ||
               (!state_->abort.load(std::memory_order_relaxed) &&
                !SourceExhausted() &&
                state_->dispatched - state_->finished < dop_);
      });
    }
  }

  const PartitionPoint point_;
  ExecContext& ctx_;
  const ParallelOptions options_;
  unsigned dop_ = 1;

  /// Consumer-built read-only build sides, aligned with point_.segment
  /// (null for per-tuple segment operators). Declared before state_ so the
  /// worker pipelines (in state_) are destroyed first.
  std::vector<SharedJoinBuildPtr> shared_builds_;

  std::shared_ptr<ExchangeState> state_;
  CursorPtr source_;
  bool source_open_ = false;
  bool source_done_ = false;
  bool closed_ = false;

  std::deque<std::vector<Tuple>> pending_;  ///< range mode: pre-split chunks

  // Consumer-thread bookkeeping (never touched by tasks).
  uint64_t total_dispatched_ = 0;
  uint64_t next_ticket_ = 0;
  std::map<uint64_t, uint64_t> chunk_input_sizes_;
  std::vector<Tuple> current_;
  size_t cpos_ = 0;
};

/// One routed Γ input record: the tuple, its group key, and its global
/// position — `seq` over input tuples, `ordinal` over that tuple's keys
/// (a sequence-valued key fans one tuple into several groups; GammaBuckets
/// visits them in key order, so (seq, ordinal) is the serial
/// first-occurrence order of groups).
struct GammaRec {
  uint64_t seq;
  uint32_t ordinal;
  Key key;
  Tuple tuple;
};

/// One partition's aggregation worker: a private Evaluator (stats folded at
/// Close) producing (first_seq, first_ordinal, result) triples.
struct GammaWorker {
  std::unique_ptr<Evaluator> ev;
  Tuple env;
  std::vector<GammaRec> part;  ///< input records, global order
  struct Result {
    uint64_t first_seq;
    uint32_t first_ordinal;
    Tuple tuple;
  };
  std::vector<Result> results;
  std::exception_ptr error;
  /// Worker-private profile clone (folded at Close); null when off.
  std::unique_ptr<obs::ProfileCollector> profile;
};

struct GammaState {
  std::mutex mu;
  std::condition_variable cv;
  size_t dispatched = 0;
  size_t finished = 0;
  std::atomic<bool> abort{false};
};

void RunGammaTask(const std::shared_ptr<GammaState>& state, GammaWorker* w,
                  const AlgebraOp* g) {
  if (!state->abort.load(std::memory_order_acquire)) {
    obs::TraceLog::Span span(w->ev->trace(), "exchange.gamma");
    try {
      // Bucket in local first-occurrence order. Records are partition-
      // private copies, so members always move (value-equal to the serial
      // cursor's move-unless-multi-key policy).
      struct LocalGroup {
        uint64_t first_seq;
        uint32_t first_ordinal;
        Sequence members;
      };
      std::unordered_map<Key, size_t, KeyHash> idx;
      std::vector<Key> order;
      std::vector<LocalGroup> groups;
      for (GammaRec& r : w->part) {
        auto [it, inserted] = idx.try_emplace(r.key, groups.size());
        if (inserted) {
          groups.push_back(LocalGroup{r.seq, r.ordinal, {}});
          order.push_back(std::move(r.key));
        }
        groups[it->second].members.Append(std::move(r.tuple));
      }
      w->part.clear();
      ExecContext wctx{w->ev.get(), &w->env, nullptr, nullptr};
      // Group emissions belong to the Γ node; the worker has no cursor
      // chain (so no ProfileCursor scope), set the scope by hand.
      if (w->profile != nullptr) w->profile->set_current(w->profile->Find(g));
      for (size_t i = 0; i < groups.size(); ++i) {
        Tuple result;
        for (size_t j = 0; j < g->left_attrs.size(); ++j) {
          result.Set(g->left_attrs[j], order[i].values[j]);
        }
        result.Set(g->attr, w->ev->ApplyAgg(g->agg, std::move(groups[i].members),
                                            w->env));
        probe::CountProducedTuple(wctx);
        w->results.push_back(GammaWorker::Result{
            groups[i].first_seq, groups[i].first_ordinal, std::move(result)});
      }
    } catch (...) {
      w->error = std::current_exception();
      w->results.clear();
      state->abort.store(true, std::memory_order_release);
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->finished;
  }
  state->cv.notify_all();
}

/// Partitioned pre-aggregation for the `gamma` of a PartitionPoint (a unary
/// Γ over '='). The consumer drains the Γ input — through a MergeCursor
/// when the point also carries a partitionable segment — and routes each
/// tuple to one of `dop` partitions by group-key hash, so every group lives
/// entirely in one partition and ANY aggregate works without partial-state
/// merging. One scheduler task per non-empty partition buckets and
/// aggregates with a private Evaluator; the consumer merges results by
/// global first-occurrence position, which reproduces the serial ΠD
/// emission order byte for byte. Workers count ApplyAgg work and produced
/// groups on their own stats, folded at Close — merged EvalStats equal the
/// serial run's.
class GammaExchangeCursor final : public Cursor {
 public:
  GammaExchangeCursor(const PartitionPoint& point, ExecContext& ctx,
                      const ParallelOptions& options)
      : point_(point), ctx_(ctx), options_(options) {}

  ~GammaExchangeCursor() override { WaitForTasks(); }

  void Open() override {
    const AlgebraOp& g = *point_.gamma;
    dop_ = ResolveBudgetedThreads(options_.threads,
                                  options_.memory_budget_bytes);
    Scheduler::Global().EnsureThreads(dop_);
    CursorPtr input;
    if (point_.top != nullptr) {
      PartitionPoint inner = point_;
      inner.gamma = nullptr;
      input = std::make_unique<MergeCursor>(inner, ctx_, options_);
    } else {
      input = MakeCursor(*point_.source, ctx_);
    }
    workers_.clear();
    for (unsigned p = 0; p < dop_; ++p) {
      workers_.push_back(std::make_unique<GammaWorker>());
    }
    {
      Tuple t;
      std::vector<Key> keys;
      uint64_t seq = 0;
      input->Open();
      while (input->Next(&t)) {
        MakeKeysInto(t, g.left_attrs, ctx_.ev->store(), &keys);
        for (size_t k = 0; k < keys.size(); ++k) {
          size_t p = KeyHash{}(keys[k]) % dop_;
          ++routed_;
          // The last key takes the tuple by move; earlier keys (a
          // sequence-valued key fanning into several groups) copy it, like
          // GammaBuckets' multi-key path.
          workers_[p]->part.push_back(
              GammaRec{seq, static_cast<uint32_t>(k), std::move(keys[k]),
                       k + 1 == keys.size() ? std::move(t) : t});
        }
        ++seq;
      }
      input->Close();
    }
    if (ctx_.stream != nullptr) {
      if (routed_ > 0) {
        ctx_.stream->OnBuffer(routed_);
        routed_charged_ = true;
      }
      if (dop_ > ctx_.stream->exchange_dop) ctx_.stream->exchange_dop = dop_;
    }
    state_ = std::make_shared<GammaState>();
    for (unsigned p = 0; p < dop_; ++p) {
      GammaWorker* w = workers_[p].get();
      if (w->part.empty()) continue;
      w->ev = std::make_unique<Evaluator>(ctx_.ev->store());
      w->ev->set_path_mode(ctx_.ev->path_mode());
      w->ev->set_control(ctx_.ev->control());
      w->ev->set_cse_table(ctx_.ev->cse_table());
      if (ctx_.ev->profile() != nullptr) {
        w->profile = std::make_unique<obs::ProfileCollector>(
            ctx_.ev->profile()->CloneEmpty());
        w->ev->set_profile(w->profile.get());
      }
      w->ev->set_trace(ctx_.ev->trace());
      ++state_->dispatched;
      std::shared_ptr<GammaState> state = state_;
      const AlgebraOp* gp = &g;
      Scheduler::Global().Submit([state, w, gp] { RunGammaTask(state, w, gp); });
    }
    if (ctx_.stream != nullptr) {
      ctx_.stream->gamma_partitions += state_->dispatched;
    }
    WaitForTasks();
    // Deterministic error propagation: the lowest partition index wins,
    // independent of wall-clock completion order.
    for (const auto& w : workers_) {
      if (w->error != nullptr) std::rethrow_exception(w->error);
    }
    merged_.clear();
    for (auto& w : workers_) {
      for (GammaWorker::Result& r : w->results) merged_.push_back(std::move(r));
      w->results.clear();
    }
    std::sort(merged_.begin(), merged_.end(),
              [](const GammaWorker::Result& a, const GammaWorker::Result& b) {
                return a.first_seq != b.first_seq
                           ? a.first_seq < b.first_seq
                           : a.first_ordinal < b.first_ordinal;
              });
    pos_ = 0;
  }

  bool Next(Tuple* out) override {
    if (pos_ >= merged_.size()) return false;
    // Workers already counted each group (CountProducedTuple); re-emitting
    // must not recount.
    *out = std::move(merged_[pos_++].tuple);
    return true;
  }

  void Close() override {
    if (closed_) return;
    closed_ = true;
    WaitForTasks();
    if (routed_charged_ && ctx_.stream != nullptr) {
      ctx_.stream->OnRelease(routed_);
      routed_charged_ = false;
    }
    for (const auto& w : workers_) {
      if (w->ev != nullptr) ctx_.ev->stats() += w->ev->stats();
      if (w->profile != nullptr && ctx_.ev->profile() != nullptr) {
        ctx_.ev->profile()->MergeFrom(*w->profile);
      }
    }
  }

 private:
  void WaitForTasks() {
    if (state_ == nullptr) return;
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock,
                    [&] { return state_->finished == state_->dispatched; });
  }

  const PartitionPoint point_;
  ExecContext& ctx_;
  const ParallelOptions options_;
  unsigned dop_ = 1;
  uint64_t routed_ = 0;
  bool routed_charged_ = false;
  bool closed_ = false;
  std::vector<std::unique_ptr<GammaWorker>> workers_;
  std::shared_ptr<GammaState> state_;
  std::vector<GammaWorker::Result> merged_;
  size_t pos_ = 0;
};

}  // namespace

unsigned ResolveParallelThreads(unsigned threads, uint64_t budget_bytes) {
  return budget_bytes != 0 ? ResolveBudgetedThreads(threads, budget_bytes)
                           : ResolveThreads(threads);
}

std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root) {
  return FindPartitionPoint(root, PartitionScan{});
}

std::optional<PartitionPoint> FindPartitionPoint(const AlgebraOp& root,
                                                 const PartitionScan& scan) {
  std::vector<const AlgebraOp*> spine;
  for (const AlgebraOp* op = &root; op != nullptr;
       op = op->children.empty() ? nullptr : op->child(0).get()) {
    spine.push_back(op);
  }
  auto segmentable = [&scan](const AlgebraOp& op) {
    return IsPartitionableOp(op) ||
           (scan.shared_probe && IsProbePartitionableOp(op));
  };
  // Deepest partitionable operator, extended upward to a maximal run —
  // deepest because that is where the tuple stream is widest (right above
  // the unnest that expands the document scan).
  int bottom = -1;
  for (int i = static_cast<int>(spine.size()) - 1; i >= 0; --i) {
    if (segmentable(*spine[i])) {
      bottom = i;
      break;
    }
  }
  std::optional<PartitionPoint> point;
  int top = 0;
  if (bottom >= 0) {
    top = bottom;
    while (top > 0 && segmentable(*spine[top - 1])) --top;
    // Every segment op keeps the spine on child(0) (probe side for the
    // breakers), so the spine continues below `bottom`.
    int src = bottom + 1;
    // Demote non-expanding tail operators (□, the doc() binding χ, σ...)
    // into the source until it is Υ/μ-rooted: chunking only pays on a
    // producer that actually fans out into many tuples.
    bool viable = true;
    while (!IsExpanding(*spine[src])) {
      if (bottom < top) {
        viable = false;
        break;
      }
      src = bottom;
      --bottom;
    }
    if (viable && bottom >= top) {
      point.emplace();
      point->top = spine[top];
      point->segment.assign(spine.begin() + top, spine.begin() + bottom + 1);
      point->source = spine[src];
    }
  }
  if (scan.gamma) {
    if (point.has_value()) {
      // A partitionable Γ directly above the segment extends the same
      // exchange: workers stream the segment AND pre-aggregate.
      if (top > 0 && IsGammaPartitionableOp(*spine[top - 1])) {
        point->gamma = spine[top - 1];
      }
    } else {
      // No partitionable segment — a Γ alone still parallelizes: its input
      // runs serially on the consumer, the aggregation is partitioned.
      // Deepest first (widest input).
      for (int i = static_cast<int>(spine.size()) - 1; i >= 0; --i) {
        if (IsGammaPartitionableOp(*spine[i])) {
          point.emplace();
          point->gamma = spine[i];
          point->source = spine[i + 1];
          break;
        }
      }
    }
  }
  return point;
}

std::vector<PartitionPoint> EnumeratePartitionPoints(const AlgebraOp& root) {
  std::vector<PartitionPoint> out;
  auto add = [&out](std::optional<PartitionPoint> p) {
    if (!p.has_value()) return;
    for (const PartitionPoint& q : out) {
      if (q.top == p->top && q.source == p->source && q.gamma == p->gamma &&
          q.segment == p->segment) {
        return;
      }
    }
    out.push_back(std::move(*p));
  };
  add(FindPartitionPoint(root, PartitionScan{false, false}));
  add(FindPartitionPoint(root, PartitionScan{true, false}));
  add(FindPartitionPoint(root, PartitionScan{false, true}));
  add(FindPartitionPoint(root, PartitionScan{true, true}));
  return out;
}

namespace {

template <typename Emit>
uint64_t RunParallel(Evaluator& ev, const AlgebraOp& op,
                     const ParallelOptions& options, StreamStats* stream,
                     Emit&& emit) {
  xml::StoreReadLease lease(ev.store());
  // Budget resolution mirrors DrainStreaming: an explicit option wins, the
  // NALQ_MEMORY_BUDGET_BYTES environment default applies otherwise. One
  // accountant carries the whole limit; the exchange's worker contexts
  // share it (MergeCursor::Open), so the consumer pipeline — which runs
  // every pipeline breaker — sees the full budget while the global bound
  // still holds across every participant.
  ParallelOptions eff = options;
  if (eff.memory_budget_bytes == 0) {
    eff.memory_budget_bytes = SpoolContext::EnvBudgetBytes();
  }
  std::optional<SpoolContext> consumer_spool;
  if (eff.memory_budget_bytes != 0) {
    eff.threads = ResolveBudgetedThreads(eff.threads, eff.memory_budget_bytes);
    consumer_spool.emplace(eff.memory_budget_bytes);
    consumer_spool->set_control(ev.control());
    if (eff.breaker_row_hints != nullptr) {
      consumer_spool->set_row_hints(eff.breaker_row_hints);
    }
  }
  // Placement: a resolved caller choice (the cost-driven chooser,
  // opt/parallel.h) is honored as-is; an unresolved run scans for itself —
  // breaker-extended only when the whole run is unlimited, because the
  // extended breakers (shared builds, routed Γ partitions) buffer in RAM.
  // Under a finite budget the legacy per-tuple segment keeps every breaker
  // on the consumer, where the spool layer bounds it.
  std::optional<PartitionPoint> point;
  if (eff.point_resolved) {
    point = eff.point;
  } else {
    const bool unlimited = eff.memory_budget_bytes == 0;
    point = FindPartitionPoint(op, PartitionScan{unlimited, unlimited});
  }
  Tuple env;
  ExecContext ctx{&ev, &env, stream,
                  consumer_spool.has_value() && consumer_spool->enabled()
                      ? &*consumer_spool
                      : nullptr};
  // One CSE table for the consumer and every worker (MergeCursor and
  // GammaExchangeCursor bind it on their worker evaluators).
  CseTable cse(ctx.spool);
  ScopedCseTable bind(ev, &cse);
  if (point.has_value() && point->injection() != nullptr) {
    ctx.exchange_op = point->injection();
    const PartitionPoint* pp = &*point;
    ctx.make_exchange = [pp, &eff](ExecContext& c) -> CursorPtr {
      if (pp->gamma != nullptr) {
        return std::make_unique<GammaExchangeCursor>(*pp, c, eff);
      }
      return std::make_unique<MergeCursor>(*pp, c, eff);
    };
  }
  CursorPtr root = MakeCursor(op, ctx);
  uint64_t count = 0;
  Tuple t;
  try {
    root->Open();
    while (root->Next(&t)) {
      emit(std::move(t));
      ++count;
    }
  } catch (...) {
    root->Close();
    throw;
  }
  root->Close();
  return count;
}

}  // namespace

uint64_t DrainParallel(Evaluator& ev, const AlgebraOp& op,
                       const ParallelOptions& options, StreamStats* stream) {
  return RunParallel(ev, op, options, stream, [](Tuple&&) {});
}

Sequence ExecuteParallel(Evaluator& ev, const AlgebraOp& op,
                         const ParallelOptions& options, StreamStats* stream) {
  Sequence out;
  RunParallel(ev, op, options, stream,
              [&out](Tuple&& t) { out.Append(std::move(t)); });
  return out;
}

}  // namespace nalq::nal
