// Memory-bounded execution: the spool/buffer layer under the streaming
// executor's pipeline breakers.
//
// The paper evaluates the unnested NAL plans inside Natix under real memory
// constraints and notes that its hash joins are Grace hash joins with order
// restoration (Sec. 2, "One word on implementation"). This layer supplies
// the machinery our cursors need to honor a memory budget the same way:
//
//   * MemoryBudget — a process-wide, thread-safe accountant every pipeline
//     breaker charges for what it keeps resident and releases when it
//     spills or closes (per-breaker reservations against one global limit);
//   * SpoolContext — per-run spool configuration: the budget plus lazy
//     creation and RAII cleanup of a private temp-file directory. Parallel
//     workers get private child contexts (own directory, sharing the run's
//     accountant), so spool files are worker-private by construction;
//   * a Tuple/Value codec — length-prefixed binary encoding of every Value
//     kind (nested sequences included) over the process-stable Symbol ids
//     and NodeRefs, so runs of tuples round-trip through temp files;
//   * ExternalSorter — run formation under the budget plus multi-pass
//     k-way merge with a bounded fan-in; backs the Sort breaker, and doubles
//     as the order-restoration sort of the grace joins and the grouped-Γ
//     output (records carry a (key, seq) pair the merge orders by);
//   * CseTable — the run-scoped store of common-subexpression results,
//     shared by the consumer and every exchange worker, filled once per
//     entry, charged to the budget and spilled like any other buffer, plus
//     the hash index a keyed σ probes per (entry, key attribute), charged
//     too and dropped (candidates recomputed per probe) when it does not
//     fit;
//   * spill-aware breaker cursors — the only Sort, hash-join/semi/anti/
//     outer/nest-join, unary-Γ and order-pinning buffer cursors cursor.cpp
//     builds. They buffer in RAM while the budget allows and
//     grace-partition / external-sort once it runs out. An unlimited budget
//     (an inert context) never runs out, and a budgeted run whose inputs
//     fit takes the same code path, so both match bit for bit (same output
//     bytes, same EvalStats, same StreamStats charges) — asserted
//     differentially by tests/spool_test.cpp.
//
// Order preservation under spilling: grace hash builds partition both sides
// by join-key hash, join each partition pair (recursively re-partitioning a
// build partition that still exceeds its load limit), and tag every match
// with (left position, right position); an external sort on that pair
// restores exactly the order the in-memory probe produces (probe in
// left-input order, bucket positions ascending), with duplicate pairs from
// multi-valued keys dropped at the merge — mirroring LookupInto's
// sort+unique. Residual predicates are evaluated after the restoration
// merge, in final output order, so predicate counts and Ξ-visible effects
// match the in-memory run. Γ tags each group with the sequence number of
// its first member (its first-occurrence rank) and restores the group
// output order the same way.
#ifndef NALQ_NAL_SPOOL_H_
#define NALQ_NAL_SPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "nal/cursor.h"
#include "nal/eval.h"

namespace nalq::nal {

class FaultInjector;  // deterministic fault injection (nal/fault_injection.h)

/// Thread-safe memory accountant. One instance bounds everything the
/// breakers of one execution keep resident; breakers TryCharge before
/// buffering and Release what they charged when they spill or close.
/// A limit of 0 means unlimited (every TryCharge succeeds).
class MemoryBudget {
 public:
  explicit MemoryBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  bool limited() const { return limit_ != 0; }
  uint64_t limit_bytes() const { return limit_; }
  uint64_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

  /// Reserves `bytes` if it fits under the limit; false (and no charge)
  /// otherwise.
  bool TryCharge(uint64_t bytes) {
    if (!limited()) return true;
    uint64_t used = used_.load(std::memory_order_relaxed);
    while (true) {
      if (used + bytes > limit_) return false;
      if (used_.compare_exchange_weak(used, used + bytes,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
  }

  /// Progress guarantee: charges unconditionally, over-committing the limit.
  /// Used for the single record a breaker must hold to keep moving when the
  /// budget is exhausted (the degenerate 1–2 tuple sort runs of a tiny
  /// budget come from exactly this).
  void ChargeUnchecked(uint64_t bytes) {
    if (limited()) used_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void Release(uint64_t bytes) {
    if (limited()) used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> used_{0};
};

/// Per-run spool configuration: the budget plus the temp-file directory.
/// The directory is created lazily on the first spill and removed (with
/// anything left in it) by the destructor; every spool file additionally
/// removes itself when its owner dies, so both the success and the
/// thrown-error path leave no files behind (asserted by
/// tests/spool_test.cpp). A SpoolContext is used by one executor thread;
/// parallel workers each get their own.
class SpoolContext {
 public:
  /// `budget_bytes` of 0 disables spilling: the context is inert — it never
  /// charges, never spills and never creates its directory.
  /// `dir` overrides the automatic temp directory (tests).
  explicit SpoolContext(uint64_t budget_bytes, std::string dir = {});
  /// Worker form: shares `shared` — the run's global accountant — instead
  /// of owning a budget, while keeping its own (worker-private) temp
  /// directory. `shared` must outlive this context. Used by the exchange
  /// so one limit truly bounds the whole parallel run.
  explicit SpoolContext(MemoryBudget& shared, std::string dir = {});
  ~SpoolContext();
  SpoolContext(const SpoolContext&) = delete;
  SpoolContext& operator=(const SpoolContext&) = delete;

  MemoryBudget& budget() { return *budget_; }
  bool enabled() const { return budget_->limited(); }

  /// Fresh file path inside the spool directory (created on first call).
  std::string NewFilePath();

  const std::string& dir() const { return dir_; }
  bool dir_created() const { return created_; }

  /// Cancellation token for the run (nal/query_control.h), or null. The
  /// spool layer polls it per temp-file record (SpoolFile append/read), so
  /// external-sort merge passes and grace partition processing — loops that
  /// can run long without producing a root tuple — stay interruptible. The
  /// streaming/parallel entry points wire the evaluator's token in here;
  /// the token must outlive the context's use.
  void set_control(QueryControl* control) { control_ = control; }
  QueryControl* control() const { return control_; }
  /// Cancellation point (see QueryControl::Poll).
  void Poll() {
    if (control_ != nullptr) control_->Poll();
  }

  /// Estimated build-side rows per breaker node (opt/parallel.h fills this
  /// from the cardinality model). The grace cursors consult it when the
  /// budget overflows to size their level-0 partition count from the
  /// *expected* build volume instead of the static budget/32KB rule — see
  /// GracePartitionCount. Borrowed; must outlive the context's use. Null =
  /// no hints.
  void set_row_hints(const std::map<const AlgebraOp*, double>* hints) {
    row_hints_ = hints;
  }
  const std::map<const AlgebraOp*, double>* row_hints() const {
    return row_hints_;
  }
  /// Estimated input rows for `op`, or 0 when unknown.
  double RowHint(const AlgebraOp* op) const {
    if (row_hints_ == nullptr) return 0.0;
    auto it = row_hints_->find(op);
    return it == row_hints_->end() ? 0.0 : it->second;
  }

  /// Fault injector for this run's spool sites (nal/fault_injection.h).
  /// Captured as FaultInjector::Current() at construction — so a
  /// ScopedFaultInjector alive on the constructing thread scopes faults to
  /// exactly this run — and copied onto worker contexts by the exchange.
  /// Never null.
  void set_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* injector() const { return injector_; }

  /// Budget from the NALQ_MEMORY_BUDGET_BYTES environment variable (0 when
  /// unset; malformed values throw — see nal/env_knobs.h), read once per
  /// process. The streaming/parallel entry points fall back to it when no
  /// explicit budget is supplied, so every existing differential suite can
  /// run with spilling active under one environment setting (see
  /// .github/workflows/ci.yml).
  static uint64_t EnvBudgetBytes();

 private:
  std::unique_ptr<MemoryBudget> own_budget_;  ///< null in the worker form
  MemoryBudget* budget_;
  const std::map<const AlgebraOp*, double>* row_hints_ = nullptr;
  QueryControl* control_ = nullptr;
  FaultInjector* injector_;  ///< set by both constructors, never null
  std::string dir_;
  bool created_ = false;
  bool owns_dir_ = true;
  uint64_t next_file_ = 0;
};

// ---------------------------------------------------------------------------
// Run-scoped common-subexpression table
// ---------------------------------------------------------------------------

/// The results of a run's CSE nodes (AlgebraOp::cse_id >= 0), one entry per
/// id. One table serves the whole run: the consumer evaluator and every
/// exchange worker bind the same instance (Evaluator::set_cse_table), so an
/// entry is computed exactly once whichever thread reaches it first, and
/// the merged EvalStats equal a serial run's.
///
/// Each entry is filled on first use under a per-entry once-latch: one
/// caller runs the fill, concurrent callers for the same id wait for it. A
/// fill that throws (cancellation, deadline, I/O) leaves the entry empty and
/// wakes the waiters, so the next caller retries. Filled tuples go through a
/// spool buffer charged to the run's MemoryBudget; when the entry does not
/// fit it moves to a spool file in an entry-private directory (SpillStats of
/// the filling evaluator record it) and every read replays the file. The
/// charges are held until the table dies at the end of the run.
///
/// A keyed σ over an entry (AlgebraOp::probe) asks for the entry's
/// KeyIndex on its key attribute, built once per (entry, attribute) under
/// the same once-latch and shared read-only by every thread.
class CseTable {
 public:
  class Entry;
  class KeyIndex;
  using Sink = std::function<void(Tuple)>;
  using Fill = std::function<void(const Sink&)>;

  /// `spool` carries the run's budget, cancellation token and fault
  /// injector; null (or an inert context) keeps every entry in RAM. The
  /// context must outlive the table.
  explicit CseTable(SpoolContext* spool);
  ~CseTable();
  CseTable(const CseTable&) = delete;
  CseTable& operator=(const CseTable&) = delete;

  /// The entry for `id`, filled first by `fill(sink)` if no call has filled
  /// it yet; `*filled` reports whether this call did. `stats` receives the
  /// spill counters of a fill. A thread that re-enters the fill of the
  /// entry it is filling gets std::logic_error instead of a deadlock.
  const Entry& Get(int id, SpillStats* stats, const Fill& fill,
                   bool* filled = nullptr);

  /// Number of tuples in a filled entry.
  static size_t Size(const Entry& entry);
  /// The entry's tuples when it is held in RAM; null when it spilled.
  static const Sequence* Resident(const Entry& entry);
  /// The entry's tuples (read back from its spool file when spilled).
  static Sequence Copy(const Entry& entry);

  /// The hash index of filled `entry` over `attr`: the hash of every
  /// atomized item of a tuple's `attr` value (general `=` flattens
  /// sequences, so a multi-valued attribute files the tuple under each
  /// item) mapped to the tuple's entry position. The first caller builds
  /// it; concurrent callers wait, and a build that throws leaves it unbuilt
  /// for the next caller. It is charged to the run's budget like the entry
  /// and, when it does not fit, dropped: candidates then come from hashing
  /// a replay of the entry on every probe, so they are the same under every
  /// budget.
  const KeyIndex& Index(const Entry& entry, Symbol attr,
                        const xml::Store& store);

  /// The positions of `index`'s entry whose key attribute may be
  /// general-`=` to `probe`, ascending: those sharing an item hash with
  /// `probe` (none when `probe` is Null or empty). A typed number on either
  /// side compares numerically, which no hash follows: then every position
  /// is a candidate, `*every` is set and `*out` stays empty.
  static void Candidates(const KeyIndex& index, const Value& probe,
                         const xml::Store& store, std::vector<uint32_t>* out,
                         bool* every);

  /// Sequential replay of one filled entry; any number of readers, on any
  /// threads, may coexist.
  class Reader {
   public:
    explicit Reader(const Entry& entry);
    ~Reader();
    bool Next(Tuple* out);

   private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

 private:
  /// Once-latch of an entry or an index; guarded by mu_.
  struct Latch {
    bool busy = false;      ///< a fill is running
    bool ready = false;     ///< filled; the result never changes again
    std::thread::id owner;  ///< the filling thread
  };

  /// Runs `fill()` for `latch` unless it is ready: the first caller fills,
  /// concurrent callers wait for it, and a fill that throws leaves the
  /// latch open for the next caller. Called with `lock` held on mu_;
  /// `fill` runs without it. Returns whether this call filled.
  template <typename Fn>
  bool FillOnce(std::unique_lock<std::mutex>& lock, Latch& latch, Fn&& fill);

  SpoolContext* spool_;
  MemoryBudget unlimited_{0};
  std::mutex mu_;  ///< guards entries_, every latch and every index map
  std::condition_variable filled_cv_;  ///< a fill finished or failed
  std::unordered_map<int, std::unique_ptr<Entry>> entries_;
};

// ---------------------------------------------------------------------------
// Tuple/Value codec (spool temp files are process-private: Symbol ids and
// NodeRefs are stable for exactly that lifetime)
// ---------------------------------------------------------------------------

void EncodeValue(const Value& v, std::string* out);
void EncodeTuple(const Tuple& t, std::string* out);

/// Bounds-checked decoding; false on a truncated/corrupt buffer (the spool
/// readers turn that into a std::runtime_error).
bool DecodeValue(const uint8_t** p, const uint8_t* end, Value* out);
bool DecodeTuple(const uint8_t** p, const uint8_t* end, Tuple* out);

/// Approximate resident size of a tuple (codec size plus container
/// overhead) — the unit the breakers charge against the budget.
uint64_t ApproximateTupleBytes(const Tuple& t);

// ---------------------------------------------------------------------------
// External merge sort
// ---------------------------------------------------------------------------

/// Sorts records of (key values, sequence number, tuple) by the key —
/// per-component Value::Compare with optional per-component descending
/// flags — with ties broken by the sequence number, which callers make
/// unique to keep the order deterministic (and equal to a stable in-memory
/// sort). Records accumulate in RAM while the budget allows; overflow sorts
/// and spills the buffer as a run. Finish() merges the spilled runs (and
/// the resident remainder) with a budget-derived fan-in, running extra
/// merge passes — counted in SpillStats::merge_passes — when there are more
/// runs than the fan-in allows.
class ExternalSorter {
 public:
  struct Record {
    std::vector<Value> key;
    uint64_t seq = 0;
    Tuple tuple;
  };

  ExternalSorter(SpoolContext* spool, SpillStats* stats,
                 std::vector<uint8_t> desc = {});
  ~ExternalSorter();
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void Add(std::vector<Value> key, uint64_t seq, Tuple tuple);
  /// No more Add()s; prepares the merge.
  void Finish();
  /// Records in (key, seq) order. Finish() must have been called.
  bool Next(Record* out);

  bool spilled() const { return spilled_runs_ != 0; }
  uint64_t size() const { return added_; }
  /// Records still resident (the in-memory run) after Finish().
  uint64_t memory_records() const;

 private:
  class Impl;
  friend class Impl;
  void Flush();

  SpoolContext* spool_;
  SpillStats* stats_;
  std::vector<uint8_t> desc_;
  uint64_t added_ = 0;
  uint64_t spilled_runs_ = 0;
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Spill-aware breaker cursors: the serial pipeline breakers cursor.cpp
// builds, under any budget. A breaker whose own subscripts contain Ξ runs
// over a private inert context and never spills: spilling would reorder its
// subscript evaluation relative to its input pulls.
// ---------------------------------------------------------------------------

/// Grace admission policy: the level-0 partition count a spilling breaker
/// opens. With no estimate (`est_build_bytes` <= 0, or larger than what a
/// double can usefully say) the static rule applies — budget/32KB clamped to
/// [4, 64]. With an estimate (optimizer row hint × observed average tuple
/// bytes at switch time) the count is sized so each partition is expected to
/// fit its load limit in one pass: ceil(est / (budget/2)) clamped to
/// [4, min(budget/16KB, 256)] — fewer open files for small overflows, no
/// recursive re-partitioning cascade for builds far beyond the budget.
size_t GracePartitionCount(uint64_t budget_limit_bytes,
                           double est_build_bytes);

/// External-merge-sort Sort breaker.
CursorPtr MakeSpillSortCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr input);

/// Grace-partitioned unary Γ with first-occurrence order restoration
/// (θ-grouping spools its input and rescans it per key instead).
CursorPtr MakeSpillGroupUnaryCursor(const AlgebraOp& op, ExecContext& ctx,
                                    CursorPtr input);

/// Grace hash build for ⋈/⋉/▷/outer-join/binary-Γ (and ×): hybrid build
/// side, recursive re-partitioning, (left, right) position order
/// restoration; predicates without an equality conjunct fall back to a
/// block nested loop over the spooled build side.
CursorPtr MakeSpillJoinCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr left, CursorPtr right);

/// Order-pinning buffer (Ξ write order, cursor.cpp): drains its input on
/// Open, buffering in RAM under the budget and overflowing to a spool file,
/// then replays it in order. Not an operator: it re-emits already-counted
/// tuples.
CursorPtr MakeSpoolBufferCursor(ExecContext& ctx, CursorPtr input);

}  // namespace nalq::nal

#endif  // NALQ_NAL_SPOOL_H_
