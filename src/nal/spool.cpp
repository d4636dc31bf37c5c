#include "nal/spool.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "engine/error.h"
#include "nal/analysis.h"
#include "nal/codec.h"
#include "nal/env_knobs.h"
#include "nal/fault_injection.h"
#include "nal/physical.h"
#include "nal/probe_loops.h"
#include "xml/store.h"

namespace nalq::nal {

namespace {

// ---------------------------------------------------------------------------
// Tuning constants
// ---------------------------------------------------------------------------

/// Rough per-partition working-set granularity: partition fan-out and merge
/// fan-in both derive from budget / granularity, so a shrinking budget means
/// fewer simultaneously open spool files, not bigger resident chunks.
constexpr uint64_t kGranularityBytes = 32 * 1024;

/// A build/Γ partition at most this large is loaded and processed in RAM;
/// larger ones re-partition recursively (up to kMaxRepartitionDepth). The
/// floor is deliberately small so "budget below one partition" scenarios
/// really recurse instead of silently over-committing.
uint64_t PartitionLoadLimit(uint64_t budget_limit) {
  return std::max<uint64_t>(budget_limit / 2, 4 * 1024);
}

size_t Level0Partitions(uint64_t budget_limit) {
  uint64_t p = budget_limit / kGranularityBytes;
  return static_cast<size_t>(std::clamp<uint64_t>(p, 4, 64));
}

/// Recursive re-partition fan-out (small: the recursion already has a whole
/// level-0 partition's worth of locality, and every level multiplies).
constexpr size_t kSubPartitions = 4;

/// Bound on grace recursion. A partition that still exceeds its load limit
/// at this depth (an extreme key skew — every tuple sharing one key can
/// never be split by key hash) is processed in RAM regardless, over-
/// committing the budget; the repartitions counter records every split.
constexpr int kMaxRepartitionDepth = 6;

size_t MergeFanIn(uint64_t budget_limit) {
  uint64_t f = budget_limit / (16 * 1024);
  return static_cast<size_t>(std::clamp<uint64_t>(f, 2, 16));
}

/// Container overhead charged per buffered tuple on top of its payload.
constexpr uint64_t kTupleOverhead = 48;

/// Resident cost of one open spool write handle (the stdio buffer). A grace
/// partition set holds up to Level0Partitions() of these at once, which at
/// small budgets is a real fraction of the limit — so every SpoolFile
/// charges its buffer to the MemoryBudget while its write handle is open.
/// Charged via ChargeUnchecked: spilling is how breakers *release* memory,
/// so opening a spill file must never fail for lack of budget.
constexpr uint64_t kWriteBufferBytes = 8 * 1024;

}  // namespace

size_t GracePartitionCount(uint64_t budget_limit_bytes,
                           double est_build_bytes) {
  if (!(est_build_bytes > 0.0) ||
      est_build_bytes >= 9.0e18 /* past uint64 range: estimate is garbage */) {
    return Level0Partitions(budget_limit_bytes);
  }
  // Size the fan-out so each partition is expected to land under its load
  // limit in one pass. The ceiling grows with the budget (each open
  // partition holds a kWriteBufferBytes write handle resident) but is capped
  // harder than the merge fan-in since partitions are all open at once.
  const double limit = static_cast<double>(PartitionLoadLimit(
      budget_limit_bytes));
  uint64_t want = static_cast<uint64_t>(est_build_bytes / limit) + 1;
  uint64_t cap = std::clamp<uint64_t>(budget_limit_bytes / (16 * 1024), 4,
                                      256);
  return static_cast<size_t>(std::clamp<uint64_t>(want, 4, cap));
}

namespace {

// Framing primitives shared with the storage layer's page codec
// (nal/codec.h; extracted from here when src/storage/ landed).
using codec::ByteReader;
using codec::PutU32;
using codec::PutU64;

/// All codec counts/lengths are u32-framed; anything larger must fail
/// loudly instead of wrapping the length prefix and corrupting the spool.
uint32_t CheckedU32(size_t n) {
  if (n > UINT32_MAX) {
    throw engine::Error(engine::ErrorCode::kBudgetExhausted,
                        "spool: record component exceeds the 4 GiB frame "
                        "limit",
                        0, {}, "spool.encode");
  }
  return static_cast<uint32_t>(n);
}

[[noreturn]] void CorruptSpool() {
  throw engine::Error(engine::ErrorCode::kSpoolIo,
                      "spool: corrupt temp-file record", 0, {},
                      "spool.decode");
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kNull:
      return;
    case ValueKind::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case ValueKind::kInt: {
      int64_t i = v.AsInt();
      uint64_t u;
      std::memcpy(&u, &i, 8);
      PutU64(out, u);
      return;
    }
    case ValueKind::kDouble: {
      double d = v.AsDouble();
      uint64_t u;
      std::memcpy(&u, &d, 8);
      PutU64(out, u);
      return;
    }
    case ValueKind::kString: {
      const std::string& s = v.AsString();
      PutU32(out, CheckedU32(s.size()));
      out->append(s);
      return;
    }
    case ValueKind::kNode: {
      xml::NodeRef ref = v.AsNode();
      PutU32(out, ref.doc);
      PutU32(out, ref.id);
      return;
    }
    case ValueKind::kItemSeq: {
      const ItemSeq& items = v.AsItems();
      PutU32(out, CheckedU32(items.size()));
      for (const Value& item : items) EncodeValue(item, out);
      return;
    }
    case ValueKind::kTupleSeq: {
      const Sequence& tuples = v.AsTuples();
      PutU32(out, CheckedU32(tuples.size()));
      for (const Tuple& t : tuples) EncodeTuple(t, out);
      return;
    }
  }
}

void EncodeTuple(const Tuple& t, std::string* out) {
  PutU32(out, CheckedU32(t.size()));
  for (const auto& [a, v] : t.slots()) {
    PutU32(out, a.id());
    EncodeValue(v, out);
  }
}

namespace {

bool DecodeValueImpl(ByteReader* r, Value* out);

bool DecodeTupleImpl(ByteReader* r, Tuple* out) {
  uint32_t n;
  if (!r->U32(&n)) return false;
  Tuple t;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t sym;
    Value v;
    if (!r->U32(&sym) || !DecodeValueImpl(r, &v)) return false;
    t.Set(Symbol::FromId(sym), std::move(v));
  }
  *out = std::move(t);
  return true;
}

bool DecodeValueImpl(ByteReader* r, Value* out) {
  uint8_t kind;
  if (!r->U8(&kind)) return false;
  switch (static_cast<ValueKind>(kind)) {
    case ValueKind::kNull:
      *out = Value::Null();
      return true;
    case ValueKind::kBool: {
      uint8_t b;
      if (!r->U8(&b)) return false;
      *out = Value(b != 0);
      return true;
    }
    case ValueKind::kInt: {
      uint64_t u;
      if (!r->U64(&u)) return false;
      int64_t i;
      std::memcpy(&i, &u, 8);
      *out = Value(i);
      return true;
    }
    case ValueKind::kDouble: {
      uint64_t u;
      if (!r->U64(&u)) return false;
      double d;
      std::memcpy(&d, &u, 8);
      *out = Value(d);
      return true;
    }
    case ValueKind::kString: {
      uint32_t len;
      const uint8_t* bytes;
      if (!r->U32(&len) || !r->Bytes(len, &bytes)) return false;
      *out = Value(std::string_view(reinterpret_cast<const char*>(bytes), len));
      return true;
    }
    case ValueKind::kNode: {
      uint32_t doc, id;
      if (!r->U32(&doc) || !r->U32(&id)) return false;
      *out = Value(xml::NodeRef{doc, id});
      return true;
    }
    case ValueKind::kItemSeq: {
      uint32_t n;
      if (!r->U32(&n)) return false;
      ItemSeq items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Value v;
        if (!DecodeValueImpl(r, &v)) return false;
        items.push_back(std::move(v));
      }
      *out = Value::FromItems(std::move(items));
      return true;
    }
    case ValueKind::kTupleSeq: {
      uint32_t n;
      if (!r->U32(&n)) return false;
      Sequence tuples;
      tuples.Reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Tuple t;
        if (!DecodeTupleImpl(r, &t)) return false;
        tuples.Append(std::move(t));
      }
      *out = Value::FromTuples(std::move(tuples));
      return true;
    }
  }
  return false;
}

uint64_t ApproximateValueBytes(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kString:
      return 16 + v.AsString().size();
    case ValueKind::kItemSeq: {
      uint64_t b = 24;
      for (const Value& item : v.AsItems()) b += ApproximateValueBytes(item);
      return b;
    }
    case ValueKind::kTupleSeq: {
      uint64_t b = 24;
      for (const Tuple& t : v.AsTuples()) b += ApproximateTupleBytes(t);
      return b;
    }
    default:
      return 16;
  }
}

}  // namespace

bool DecodeValue(const uint8_t** p, const uint8_t* end, Value* out) {
  ByteReader r{*p, end};
  if (!DecodeValueImpl(&r, out)) return false;
  *p = r.p;
  return true;
}

bool DecodeTuple(const uint8_t** p, const uint8_t* end, Tuple* out) {
  ByteReader r{*p, end};
  if (!DecodeTupleImpl(&r, out)) return false;
  *p = r.p;
  return true;
}

uint64_t ApproximateTupleBytes(const Tuple& t) {
  uint64_t b = 24;
  for (const auto& [a, v] : t.slots()) {
    (void)a;
    b += 8 + ApproximateValueBytes(v);
  }
  return b;
}

// ---------------------------------------------------------------------------
// SpoolContext
// ---------------------------------------------------------------------------

namespace {

std::string AutoSpoolDir() {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  std::filesystem::path base = std::filesystem::temp_directory_path(ec);
  if (ec) base = ".";
  unsigned long long pid =
#ifdef _WIN32
      0;
#else
      static_cast<unsigned long long>(getpid());
#endif
  return (base / ("nalq-spool-" + std::to_string(pid) + "-" +
                  std::to_string(
                      counter.fetch_add(1, std::memory_order_relaxed))))
      .string();
}

}  // namespace

SpoolContext::SpoolContext(MemoryBudget& shared, std::string dir)
    : budget_(&shared),
      injector_(&FaultInjector::Current()),
      dir_(std::move(dir)),
      owns_dir_(dir_.empty()) {
  if (dir_.empty()) dir_ = AutoSpoolDir();
}

SpoolContext::SpoolContext(uint64_t budget_bytes, std::string dir)
    : own_budget_(std::make_unique<MemoryBudget>(budget_bytes)),
      budget_(own_budget_.get()),
      injector_(&FaultInjector::Current()),
      dir_(std::move(dir)),
      owns_dir_(dir_.empty()) {
  if (dir_.empty()) dir_ = AutoSpoolDir();
}

SpoolContext::~SpoolContext() {
  if (created_ && owns_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);  // best effort
  }
}

std::string SpoolContext::NewFilePath() {
  if (!created_) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw engine::Error(engine::ErrorCode::kSpoolIo,
                          "spool: cannot create spool directory", ec.value(),
                          dir_, "spool.create_dir");
    }
    created_ = true;
  }
  return dir_ + "/s" + std::to_string(next_file_++);
}

uint64_t SpoolContext::EnvBudgetBytes() {
  static const uint64_t cached = EnvKnobU64("NALQ_MEMORY_BUDGET_BYTES", 0);
  return cached;
}

namespace {

// ---------------------------------------------------------------------------
// Spool files
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff for spool-file open/reopen: a
/// transient create/reopen failure (EMFILE under descriptor pressure, an
/// injected one-shot fault) is retried a few times before the run is
/// failed. Only opens are retried — a short write or read means the file
/// is in an unknown state and retrying could silently corrupt records.
constexpr int kOpenAttempts = 4;  ///< 1 try + 3 retries
constexpr int kRetryBackoffBaseMs = 1;

FILE* OpenSpoolFileWithRetry(const std::string& path, const char* mode,
                             FaultSite site, FaultInjector& injector) {
  int last_err = 0;
  for (int attempt = 0; attempt < kOpenAttempts; ++attempt) {
    if (attempt != 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kRetryBackoffBaseMs << (attempt - 1)));
    }
    if (int injected = injector.MaybeFail(site)) {
      last_err = injected;
      continue;
    }
    errno = 0;
    FILE* f = std::fopen(path.c_str(), mode);
    if (f != nullptr) return f;
    last_err = errno;
  }
  throw engine::Error(engine::ErrorCode::kSpoolIo,
                      std::string("spool: cannot open temp file (mode ") +
                          mode + ") after " + std::to_string(kOpenAttempts) +
                          " attempts",
                      last_err, path, FaultSiteName(site));
}

/// One temp file of length-prefixed records. Write-then-read: Append while
/// writing, FinishWrites() once, then any number of sequential Readers.
/// The file is created lazily on the first Append and removed by the
/// destructor — RAII is what guarantees cleanup on the thrown-error path.
class SpoolFile {
 public:
  SpoolFile(SpoolContext* ctx, SpillStats* stats) : ctx_(ctx), stats_(stats) {}
  ~SpoolFile() {
    if (wf_ != nullptr) std::fclose(wf_);
    ReleaseBuffer();
    if (!path_.empty()) std::remove(path_.c_str());
  }
  SpoolFile(const SpoolFile&) = delete;
  SpoolFile& operator=(const SpoolFile&) = delete;

  void Append(std::string_view payload) {
    // Cancellation point: partition routing and run formation funnel every
    // record through here, so spill-heavy phases poll per record.
    ctx_->Poll();
    if (wf_ == nullptr) {
      path_ = ctx_->NewFilePath();
      try {
        wf_ = OpenSpoolFileWithRetry(path_, "wb", FaultSite::kSpoolOpenWrite,
                                     *ctx_->injector());
      } catch (...) {
        path_.clear();  // nothing on disk; the dtor must not remove it
        throw;
      }
      ctx_->budget().ChargeUnchecked(kWriteBufferBytes);
      buffer_charged_ = kWriteBufferBytes;
    }
    uint32_t len = CheckedU32(payload.size());
    int injected = ctx_->injector()->MaybeFail(FaultSite::kSpoolWrite);
    errno = 0;
    if (injected != 0 || std::fwrite(&len, 4, 1, wf_) != 1 ||
        (len != 0 && std::fwrite(payload.data(), len, 1, wf_) != 1)) {
      throw engine::Error(engine::ErrorCode::kSpoolIo, "spool: short write",
                          injected != 0 ? injected : errno, path_,
                          "spool.write");
    }
    bytes_ += 4 + len;
    ++records_;
  }

  /// Flushes and closes the write handle (releasing its buffer charge);
  /// accounts the file in SpillStats.
  void FinishWrites() {
    if (wf_ != nullptr) {
      int injected = ctx_->injector()->MaybeFail(FaultSite::kSpoolClose);
      errno = 0;
      int rc = std::fclose(wf_);  // real close even under injection: no leak
      wf_ = nullptr;
      ReleaseBuffer();
      if (injected != 0 || rc != 0) {
        throw engine::Error(engine::ErrorCode::kSpoolIo, "spool: close failed",
                            injected != 0 ? injected : errno, path_,
                            "spool.close");
      }
    }
    ReleaseBuffer();
    if (!accounted_ && records_ > 0 && stats_ != nullptr) {
      stats_->spilled_bytes = xml::SaturatingAdd(stats_->spilled_bytes, bytes_);
      stats_->spill_runs = xml::SaturatingAdd(stats_->spill_runs, 1);
    }
    accounted_ = true;
  }

  uint64_t bytes() const { return bytes_; }
  uint64_t records() const { return records_; }

  class Reader {
   public:
    explicit Reader(const SpoolFile& f) : ctx_(f.ctx_), path_(f.path_) {
      if (!path_.empty()) {
        rf_ = OpenSpoolFileWithRetry(path_, "rb", FaultSite::kSpoolOpenRead,
                                     *ctx_->injector());
      }
    }
    ~Reader() {
      if (rf_ != nullptr) std::fclose(rf_);
    }
    Reader(Reader&& o) noexcept
        : rf_(o.rf_), ctx_(o.ctx_), path_(std::move(o.path_)) {
      o.rf_ = nullptr;
    }
    Reader& operator=(Reader&& o) noexcept {
      if (this != &o) {
        if (rf_ != nullptr) std::fclose(rf_);
        rf_ = o.rf_;
        ctx_ = o.ctx_;
        path_ = std::move(o.path_);
        o.rf_ = nullptr;
      }
      return *this;
    }

    /// Back to the first record — for repeated sequential scans without
    /// reopening the file.
    void Rewind() {
      if (rf_ != nullptr) std::rewind(rf_);
    }

    bool Next(std::string* payload) {
      if (rf_ == nullptr) return false;
      // Cancellation point: merge passes and partition re-reads funnel
      // every record through here.
      if (ctx_ != nullptr) ctx_->Poll();
      FaultInjector& injector =
          ctx_ != nullptr ? *ctx_->injector() : FaultInjector::Current();
      if (int injected = injector.MaybeFail(FaultSite::kSpoolRead)) {
        throw engine::Error(engine::ErrorCode::kSpoolIo, "spool: read failed",
                            injected, path_, "spool.read");
      }
      uint32_t len;
      errno = 0;
      size_t got = std::fread(&len, 1, 4, rf_);
      // Clean end-of-stream is exactly "no bytes AND eof". Anything else —
      // a read error, or 1–3 bytes of a truncated length prefix — is an
      // I/O failure, not EOF.
      if (got == 0 && std::feof(rf_) != 0) return false;
      if (got != 4) {
        throw engine::Error(engine::ErrorCode::kSpoolIo,
                            got == 0
                                ? "spool: read failed at record header"
                                : "spool: truncated record header (partial "
                                  "length prefix)",
                            errno, path_, "spool.read");
      }
      payload->resize(len);
      errno = 0;
      if (len != 0 && std::fread(payload->data(), 1, len, rf_) != len) {
        throw engine::Error(engine::ErrorCode::kSpoolIo,
                            std::feof(rf_) != 0
                                ? "spool: truncated record payload"
                                : "spool: read failed mid-record",
                            errno, path_, "spool.read");
      }
      return true;
    }

   private:
    FILE* rf_ = nullptr;
    SpoolContext* ctx_ = nullptr;
    std::string path_;
  };

 private:
  void ReleaseBuffer() {
    if (buffer_charged_ != 0) {
      ctx_->budget().Release(buffer_charged_);
      buffer_charged_ = 0;
    }
  }

  SpoolContext* ctx_;
  SpillStats* stats_;
  std::string path_;
  FILE* wf_ = nullptr;
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;
  uint64_t buffer_charged_ = 0;
  bool accounted_ = false;
};

/// RAII budget reservation: whatever is still charged when the guard dies is
/// released, so exceptions unwind the accountant correctly.
class ChargeGuard {
 public:
  explicit ChargeGuard(MemoryBudget* budget) : budget_(budget) {}
  ~ChargeGuard() { ReleaseAll(); }
  ChargeGuard(const ChargeGuard&) = delete;
  ChargeGuard& operator=(const ChargeGuard&) = delete;

  bool TryCharge(uint64_t bytes) {
    if (!budget_->TryCharge(bytes)) return false;
    charged_ += bytes;
    return true;
  }
  void ChargeUnchecked(uint64_t bytes) {
    budget_->ChargeUnchecked(bytes);
    charged_ += bytes;
  }
  void ReleaseAll() {
    budget_->Release(charged_);
    charged_ = 0;
  }
  uint64_t charged() const { return charged_; }

 private:
  MemoryBudget* budget_;
  uint64_t charged_ = 0;
};

// ---------------------------------------------------------------------------
// TupleSpool: hybrid in-memory / on-disk FIFO of tuples
// ---------------------------------------------------------------------------

class TupleSpool {
 public:
  TupleSpool(SpoolContext* ctx, SpillStats* stats)
      : ctx_(ctx), stats_(stats), charge_(&ctx->budget()) {}

  void Append(Tuple t) {
    if (file_ == nullptr) {
      uint64_t b = ApproximateTupleBytes(t) + kTupleOverhead;
      if (charge_.TryCharge(b)) {
        mem_.Append(std::move(t));
        ++n_;
        return;
      }
      SpillAll();
    }
    scratch_.clear();
    EncodeTuple(t, &scratch_);
    file_->Append(scratch_);
    ++n_;
  }

  void FinishWrites() {
    if (file_ != nullptr) file_->FinishWrites();
  }

  size_t size() const { return n_; }
  bool spilled() const { return file_ != nullptr; }
  size_t memory_size() const { return mem_.size(); }
  /// Every tuple, when none has spilled; null otherwise.
  const Sequence* resident() const { return spilled() ? nullptr : &mem_; }

  /// Sequential reader from the start; several may coexist. `consume` moves
  /// the in-memory tuples out (single-pass readers only).
  class Reader {
   public:
    Reader(TupleSpool* s, bool consume) : s_(s), consume_(consume) {
      if (s_->file_ != nullptr) file_.emplace(*s_->file_);
    }
    /// Back to the first tuple (multi-pass scans; not for consume mode).
    void Rewind() {
      if (file_.has_value()) file_->Rewind();
      pos_ = 0;
    }

    bool Next(Tuple* out) {
      if (file_.has_value()) {
        if (!file_->Next(&payload_)) return false;
        const uint8_t* p = reinterpret_cast<const uint8_t*>(payload_.data());
        if (!DecodeTuple(&p, p + payload_.size(), out)) CorruptSpool();
        return true;
      }
      if (pos_ >= s_->mem_.size()) return false;
      if (consume_) {
        *out = std::move(s_->mem_[pos_++]);
      } else {
        *out = s_->mem_[pos_++];
      }
      return true;
    }

   private:
    TupleSpool* s_;
    bool consume_;
    std::optional<SpoolFile::Reader> file_;
    std::string payload_;
    size_t pos_ = 0;
  };

  Reader NewReader(bool consume = false) { return Reader(this, consume); }

 private:
  void SpillAll() {
    file_ = std::make_unique<SpoolFile>(ctx_, stats_);
    for (Tuple& t : mem_) {
      scratch_.clear();
      EncodeTuple(t, &scratch_);
      file_->Append(scratch_);
    }
    mem_.Clear();
    charge_.ReleaseAll();
  }

  SpoolContext* ctx_;
  SpillStats* stats_;
  ChargeGuard charge_;
  Sequence mem_;
  std::unique_ptr<SpoolFile> file_;
  std::string scratch_;
  size_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Key comparison / partition routing helpers
// ---------------------------------------------------------------------------

/// (key, seq) order: per-component Value::Compare with optional descending
/// flags, sequence number as the unique tiebreak.
bool RecordLess(const std::vector<Value>& ka, uint64_t sa,
                const std::vector<Value>& kb, uint64_t sb,
                const std::vector<uint8_t>& desc) {
  size_t n = std::min(ka.size(), kb.size());
  for (size_t j = 0; j < n; ++j) {
    auto c = Value::Compare(ka[j], kb[j]);
    if (c != std::strong_ordering::equal) {
      bool descending = j < desc.size() && desc[j] != 0;
      return descending ? c == std::strong_ordering::greater
                        : c == std::strong_ordering::less;
    }
  }
  if (ka.size() != kb.size()) return ka.size() < kb.size();
  return sa < sb;
}

/// Salted partition id: the per-level salt redistributes keys that
/// collided at the previous level (same-key skew is irreducible and handled
/// by the recursion depth cap instead).
size_t SaltedPartition(const Key& k, int level, size_t nparts) {
  uint64_t h = static_cast<uint64_t>(KeyHash{}(k));
  h ^= 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(level + 1);
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return static_cast<size_t>(h % nparts);
}

/// Distinct partition ids of a tuple's keys at `level` (insertion order).
void DistinctPartitionsOf(const std::vector<Key>& keys, int level,
                          size_t nparts, std::vector<size_t>* out) {
  out->clear();
  for (const Key& k : keys) {
    size_t p = SaltedPartition(k, level, nparts);
    if (std::find(out->begin(), out->end(), p) == out->end()) {
      out->push_back(p);
    }
  }
}

using PartitionSet = std::vector<std::unique_ptr<SpoolFile>>;

PartitionSet MakePartitionSet(SpoolContext* ctx, SpillStats* stats,
                              size_t n) {
  PartitionSet parts;
  parts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    parts.push_back(std::make_unique<SpoolFile>(ctx, stats));
  }
  return parts;
}

}  // namespace

// ---------------------------------------------------------------------------
// CseTable
// ---------------------------------------------------------------------------

class CseTable::Entry {
 public:
  // Guarded by CseTable::mu_.
  bool filling = false;    ///< a fill is running
  bool ready = false;      ///< filled; the members below never change again
  std::thread::id filler;  ///< the filling thread
  // Declared in this order so the buffer dies before the context whose
  // directory and budget it uses.
  std::unique_ptr<SpoolContext> ctx;
  std::unique_ptr<TupleSpool> tuples;
};

struct CseTable::Reader::Impl {
  explicit Impl(const Entry& e) : reader(e.tuples.get(), /*consume=*/false) {}
  TupleSpool::Reader reader;
};

CseTable::CseTable(SpoolContext* spool) : spool_(spool) {}

CseTable::~CseTable() = default;

const CseTable::Entry& CseTable::Get(int id, SpillStats* stats,
                                     const Fill& fill, bool* filled) {
  if (filled != nullptr) *filled = false;
  Entry* e = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    std::unique_ptr<Entry>& slot = entries_[id];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    e = slot.get();
    if (e->filling && e->filler == std::this_thread::get_id()) {
      throw std::logic_error("CSE entry " + std::to_string(id) +
                             " depends on itself");
    }
    filled_cv_.wait(lock, [e] { return !e->filling; });
    if (e->ready) return *e;
    e->filling = true;
    e->filler = std::this_thread::get_id();
  }
  // The fill runs outside the lock: it evaluates a whole subtree, which may
  // fill other entries on this thread.
  try {
    MemoryBudget& budget = spool_ != nullptr ? spool_->budget() : unlimited_;
    auto ctx = std::make_unique<SpoolContext>(budget);
    if (spool_ != nullptr) {
      ctx->set_control(spool_->control());
      ctx->set_injector(spool_->injector());
    }
    auto tuples = std::make_unique<TupleSpool>(ctx.get(), stats);
    fill([&tuples](Tuple t) { tuples->Append(std::move(t)); });
    tuples->FinishWrites();
    std::lock_guard<std::mutex> lock(mu_);
    e->ctx = std::move(ctx);
    e->tuples = std::move(tuples);
    e->ready = true;
    e->filling = false;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      e->filling = false;
    }
    filled_cv_.notify_all();
    throw;
  }
  filled_cv_.notify_all();
  if (filled != nullptr) *filled = true;
  return *e;
}

size_t CseTable::Size(const Entry& entry) { return entry.tuples->size(); }

const Sequence* CseTable::Resident(const Entry& entry) {
  return entry.tuples->resident();
}

Sequence CseTable::Copy(const Entry& entry) {
  if (const Sequence* resident = Resident(entry)) return *resident;
  Sequence out;
  out.Reserve(entry.tuples->size());
  Reader reader(entry);
  Tuple t;
  while (reader.Next(&t)) out.Append(std::move(t));
  return out;
}

CseTable::Reader::Reader(const Entry& entry)
    : impl_(std::make_unique<Impl>(entry)) {}

CseTable::Reader::~Reader() = default;

bool CseTable::Reader::Next(Tuple* out) { return impl_->reader.Next(out); }

// ---------------------------------------------------------------------------
// ExternalSorter
// ---------------------------------------------------------------------------

class ExternalSorter::Impl {
 public:
  Impl(SpoolContext* ctx, SpillStats* stats)
      : ctx_(ctx), stats_(stats), charge_(&ctx->budget()) {}

  SpoolContext* ctx_;
  SpillStats* stats_;
  ChargeGuard charge_;
  std::vector<Record> buffer_;
  std::vector<std::unique_ptr<SpoolFile>> runs_;
  std::string scratch_;

  // Merge state (after Finish).
  struct Source {
    std::optional<SpoolFile::Reader> reader;  // file-backed
    std::vector<Record>* mem = nullptr;       // memory-backed
    size_t mem_pos = 0;
    bool has = false;
    std::vector<Value> key;
    uint64_t seq = 0;
    std::string payload;      // file-backed: full raw record
    size_t tuple_offset = 0;  // where the tuple starts inside `payload`
  };
  std::vector<Source> sources_;
  bool finished_ = false;
  size_t mem_next_ = 0;  // emission when nothing spilled

  void EncodeRecord(const Record& r, std::string* out) {
    PutU32(out, static_cast<uint32_t>(r.key.size()));
    for (const Value& v : r.key) EncodeValue(v, out);
    PutU64(out, r.seq);
    EncodeTuple(r.tuple, out);
  }

  /// Decodes the (key, seq) prefix of a run record; `tail` is left at the
  /// tuple so the final merge can decode it lazily (intermediate merge
  /// passes copy the raw payload instead).
  void DecodePrefix(const std::string& payload, std::vector<Value>* key,
                    uint64_t* seq, const uint8_t** tail,
                    const uint8_t** end) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
    const uint8_t* e = p + payload.size();
    ByteReader r{p, e};
    uint32_t nkey;
    if (!r.U32(&nkey)) CorruptSpool();
    key->clear();
    key->reserve(nkey);
    for (uint32_t i = 0; i < nkey; ++i) {
      Value v;
      if (!DecodeValueImpl(&r, &v)) CorruptSpool();
      key->push_back(std::move(v));
    }
    if (!r.U64(seq)) CorruptSpool();
    *tail = r.p;
    *end = e;
  }

  bool AdvanceSource(Source* s) {
    if (s->mem != nullptr) {
      s->has = s->mem_pos < s->mem->size();
      return s->has;
    }
    if (!s->reader->Next(&s->payload)) {
      s->has = false;
      return false;
    }
    const uint8_t* tail;
    const uint8_t* end;
    DecodePrefix(s->payload, &s->key, &s->seq, &tail, &end);
    s->tuple_offset = static_cast<size_t>(
        tail - reinterpret_cast<const uint8_t*>(s->payload.data()));
    s->has = true;
    return true;
  }

  const std::vector<Value>& SourceKey(const Source& s) const {
    return s.mem != nullptr ? (*s.mem)[s.mem_pos].key : s.key;
  }
  uint64_t SourceSeq(const Source& s) const {
    return s.mem != nullptr ? (*s.mem)[s.mem_pos].seq : s.seq;
  }
};

ExternalSorter::ExternalSorter(SpoolContext* spool, SpillStats* stats,
                               std::vector<uint8_t> desc)
    : spool_(spool),
      stats_(stats),
      desc_(std::move(desc)),
      impl_(std::make_unique<Impl>(spool, stats)) {}

ExternalSorter::~ExternalSorter() = default;

void ExternalSorter::Add(std::vector<Value> key, uint64_t seq, Tuple tuple) {
  uint64_t bytes = kTupleOverhead + ApproximateTupleBytes(tuple);
  for (const Value& v : key) bytes += 16 + ApproximateValueBytes(v);
  if (!impl_->charge_.TryCharge(bytes)) {
    if (!impl_->buffer_.empty()) Flush();
    if (!impl_->charge_.TryCharge(bytes)) {
      // Progress guarantee: a single record may exceed what is left of the
      // budget (shared with other breakers); hold it anyway. With a budget
      // below one tuple this is what degenerates runs to 1–2 records.
      impl_->charge_.ChargeUnchecked(bytes);
    }
  }
  impl_->buffer_.push_back(
      Record{std::move(key), seq, std::move(tuple)});
  ++added_;
}

void ExternalSorter::Flush() {
  std::vector<Record>& buf = impl_->buffer_;
  std::stable_sort(buf.begin(), buf.end(),
                   [this](const Record& a, const Record& b) {
                     return RecordLess(a.key, a.seq, b.key, b.seq, desc_);
                   });
  auto run = std::make_unique<SpoolFile>(impl_->ctx_, impl_->stats_);
  for (const Record& r : buf) {
    impl_->scratch_.clear();
    impl_->EncodeRecord(r, &impl_->scratch_);
    run->Append(impl_->scratch_);
  }
  run->FinishWrites();
  impl_->runs_.push_back(std::move(run));
  ++spilled_runs_;
  buf.clear();
  impl_->charge_.ReleaseAll();
}

void ExternalSorter::Finish() {
  Impl& im = *impl_;
  std::stable_sort(im.buffer_.begin(), im.buffer_.end(),
                   [this](const Record& a, const Record& b) {
                     return RecordLess(a.key, a.seq, b.key, b.seq, desc_);
                   });
  im.finished_ = true;
  if (im.runs_.empty()) return;  // pure in-memory emission

  // Multi-pass merge: while more file runs than the fan-in, merge the
  // oldest fan-in runs into one longer run (raw payload copy — no tuple
  // decode). The resident buffer joins only the final merge.
  size_t fan_in = MergeFanIn(spool_->budget().limit_bytes());
  while (im.runs_.size() > fan_in) {
    if (stats_ != nullptr) {
      stats_->merge_passes = xml::SaturatingAdd(stats_->merge_passes, 1);
    }
    std::vector<std::unique_ptr<SpoolFile>> taken;
    for (size_t i = 0; i < fan_in; ++i) {
      taken.push_back(std::move(im.runs_[i]));
    }
    im.runs_.erase(im.runs_.begin(),
                   im.runs_.begin() + static_cast<ptrdiff_t>(fan_in));
    std::vector<Impl::Source> srcs(taken.size());
    for (size_t i = 0; i < taken.size(); ++i) {
      srcs[i].reader.emplace(*taken[i]);
      im.AdvanceSource(&srcs[i]);
    }
    auto merged = std::make_unique<SpoolFile>(im.ctx_, im.stats_);
    while (true) {
      int best = -1;
      for (size_t i = 0; i < srcs.size(); ++i) {
        if (!srcs[i].has) continue;
        if (best < 0 ||
            RecordLess(srcs[i].key, srcs[i].seq, srcs[best].key,
                       srcs[best].seq, desc_)) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      merged->Append(srcs[best].payload);
      im.AdvanceSource(&srcs[best]);
    }
    merged->FinishWrites();
    im.runs_.push_back(std::move(merged));
  }

  im.sources_.clear();
  im.sources_.resize(im.runs_.size() + 1);
  for (size_t i = 0; i < im.runs_.size(); ++i) {
    im.sources_[i].reader.emplace(*im.runs_[i]);
    im.AdvanceSource(&im.sources_[i]);
  }
  Impl::Source& mem = im.sources_.back();
  mem.mem = &im.buffer_;
  im.AdvanceSource(&mem);
}

bool ExternalSorter::Next(Record* out) {
  Impl& im = *impl_;
  if (im.runs_.empty()) {
    if (im.mem_next_ >= im.buffer_.size()) return false;
    *out = std::move(im.buffer_[im.mem_next_++]);
    return true;
  }
  int best = -1;
  for (size_t i = 0; i < im.sources_.size(); ++i) {
    if (!im.sources_[i].has) continue;
    if (best < 0 ||
        RecordLess(im.SourceKey(im.sources_[i]), im.SourceSeq(im.sources_[i]),
                   im.SourceKey(im.sources_[best]),
                   im.SourceSeq(im.sources_[best]), desc_)) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  Impl::Source& s = im.sources_[static_cast<size_t>(best)];
  if (s.mem != nullptr) {
    *out = std::move((*s.mem)[s.mem_pos++]);
    im.AdvanceSource(&s);
    return true;
  }
  out->key = std::move(s.key);
  out->seq = s.seq;
  const uint8_t* tail =
      reinterpret_cast<const uint8_t*>(s.payload.data()) + s.tuple_offset;
  const uint8_t* end =
      reinterpret_cast<const uint8_t*>(s.payload.data()) + s.payload.size();
  if (!DecodeTuple(&tail, end, &out->tuple)) CorruptSpool();
  im.AdvanceSource(&s);
  return true;
}

uint64_t ExternalSorter::memory_records() const {
  return impl_->buffer_.size() - impl_->mem_next_;
}

// ---------------------------------------------------------------------------
// Spill-aware cursors
// ---------------------------------------------------------------------------

namespace {

using probe::CountProducedTuple;

inline SpillStats* StatsOf(ExecContext& ctx) {
  return &ctx.ev->stats().spill;
}

/// Drains `input` Materialize-style (Open / Next* / Close) into `sink`.
template <typename Sink>
void DrainInto(Cursor& input, Sink&& sink) {
  input.Open();
  Tuple t;
  while (input.Next(&t)) sink(std::move(t));
  input.Close();
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

class SpillSortCursor final : public Cursor {
 public:
  SpillSortCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)) {}

  void Open() override {
    if (opened_) {
      // Unlike the in-memory cursors (which happen to tolerate it), the
      // spill cursors do not reset their partition/spool state on re-Open;
      // enforce the documented single-use cursor contract loudly.
      throw std::logic_error("spill cursor is single-use (cursor.h)");
    }
    opened_ = true;
    sorter_.emplace(ctx_.spool, StatsOf(ctx_),
                    std::vector<uint8_t>(op_.sort_desc));
    uint64_t seq = 0;
    const xml::Store& store = ctx_.ev->store();
    DrainInto(*input_, [&](Tuple t) {
      std::vector<Value> key;
      key.reserve(op_.attrs.size());
      for (Symbol a : op_.attrs) key.push_back(t.Get(a).Atomize(store));
      sorter_->Add(std::move(key), seq++, std::move(t));
    });
    sorter_->Finish();
    if (ctx_.stream != nullptr) {
      stream_charged_ = sorter_->memory_records();
      ctx_.stream->OnBuffer(stream_charged_);
    }
  }

  bool Next(Tuple* out) override {
    ExternalSorter::Record rec;
    if (!sorter_->Next(&rec)) return false;
    *out = std::move(rec.tuple);
    CountProducedTuple(ctx_);
    return true;
  }

  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(stream_charged_);
    stream_charged_ = 0;
  }

 private:
  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  std::optional<ExternalSorter> sorter_;
  uint64_t stream_charged_ = 0;
  bool opened_ = false;
};

// ---------------------------------------------------------------------------
// Order-pinning buffer (spool-backed BufferCursor)
// ---------------------------------------------------------------------------

class SpoolBufferCursor final : public Cursor {
 public:
  SpoolBufferCursor(ExecContext& ctx, CursorPtr input)
      : ctx_(ctx), input_(std::move(input)) {}

  void Open() override {
    if (opened_) {
      // Unlike the in-memory cursors (which happen to tolerate it), the
      // spill cursors do not reset their partition/spool state on re-Open;
      // enforce the documented single-use cursor contract loudly.
      throw std::logic_error("spill cursor is single-use (cursor.h)");
    }
    opened_ = true;
    spool_.emplace(ctx_.spool, StatsOf(ctx_));
    DrainInto(*input_, [&](Tuple t) { spool_->Append(std::move(t)); });
    spool_->FinishWrites();
    if (ctx_.stream != nullptr) {
      stream_charged_ = spool_->memory_size();
      ctx_.stream->OnBuffer(stream_charged_);
    }
    reader_.emplace(spool_->NewReader(/*consume=*/true));
  }

  bool Next(Tuple* out) override {
    // Replays already-counted tuples: no tuples_produced.
    return reader_->Next(out);
  }

  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(stream_charged_);
    stream_charged_ = 0;
  }

 private:
  ExecContext& ctx_;
  CursorPtr input_;
  std::optional<TupleSpool> spool_;
  std::optional<TupleSpool::Reader> reader_;
  uint64_t stream_charged_ = 0;
  bool opened_ = false;
};

// ---------------------------------------------------------------------------
// Unary Γ
// ---------------------------------------------------------------------------

class SpillGroupUnaryCursor final : public Cursor {
 public:
  SpillGroupUnaryCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr input)
      : op_(op), ctx_(ctx), input_(std::move(input)), charge_(BudgetOf(ctx)) {}

  void Open() override {
    if (opened_) {
      // Unlike the in-memory cursors (which happen to tolerate it), the
      // spill cursors do not reset their partition/spool state on re-Open;
      // enforce the documented single-use cursor contract loudly.
      throw std::logic_error("spill cursor is single-use (cursor.h)");
    }
    opened_ = true;
    if (op_.theta == CmpOp::kEq) {
      OpenEq();
    } else {
      OpenTheta();
    }
  }

  bool Next(Tuple* out) override {
    if (op_.theta != CmpOp::kEq) return NextTheta(out);
    if (spilled_) {
      ExternalSorter::Record rec;
      if (!sorter_->Next(&rec)) return false;
      *out = std::move(rec.tuple);
      CountProducedTuple(ctx_);
      return true;
    }
    return NextEqInMemory(out);
  }

  void Close() override {
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(stream_charged_);
    stream_charged_ = 0;
  }

 private:
  static MemoryBudget* BudgetOf(ExecContext& ctx) {
    return &ctx.spool->budget();
  }

  // ---- Γ over = : grace partitions + first-occurrence order restoration --

  /// Partition record: (seq, key ordinal within its tuple, routed key,
  /// tuple). Bucketing uses the ROUTED key, never recomputed keys — a
  /// recomputed key set would recreate foreign-partition groups here and
  /// split their membership.
  struct GammaRecord {
    uint64_t seq = 0;
    uint32_t ordinal = 0;
    Key key;
    Tuple tuple;
  };

  static void EncodeGamma(const GammaRecord& r, std::string* out) {
    PutU64(out, r.seq);
    PutU32(out, r.ordinal);
    PutU32(out, static_cast<uint32_t>(r.key.values.size()));
    for (const Value& v : r.key.values) EncodeValue(v, out);
    EncodeTuple(r.tuple, out);
  }

  static void DecodeGamma(const std::string& payload, GammaRecord* out) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
    const uint8_t* end = p + payload.size();
    ByteReader r{p, end};
    uint32_t nkey;
    if (!r.U64(&out->seq) || !r.U32(&out->ordinal) || !r.U32(&nkey)) {
      CorruptSpool();
    }
    out->key.values.clear();
    out->key.values.reserve(nkey);
    for (uint32_t i = 0; i < nkey; ++i) {
      Value v;
      if (!DecodeValueImpl(&r, &v)) CorruptSpool();
      out->key.values.push_back(std::move(v));
    }
    const uint8_t* q = r.p;
    if (!DecodeTuple(&q, end, &out->tuple)) CorruptSpool();
  }

  void OpenEq() {
    const xml::Store& store = ctx_.ev->store();
    std::vector<Key> keys;
    uint64_t seq = 0;
    DrainInto(*input_, [&](Tuple t) {
      if (!spilled_) {
        uint64_t b = ApproximateTupleBytes(t) + kTupleOverhead;
        if (charge_.TryCharge(b)) {
          input_seq_.Append(std::move(t));
          ++seq;
          return;
        }
        SwitchToPartitions();
      }
      RouteGamma(seq++, std::move(t), &keys);
    });

    if (!spilled_) {
      // In-memory: exactly the plain GroupUnaryCursor — literally, the
      // bucketing and emission are the shared nal/probe_loops.h helpers.
      gamma_.Build(input_seq_, op_.left_attrs, store);
      if (ctx_.stream != nullptr) {
        stream_charged_ = input_seq_.size();
        ctx_.stream->OnBuffer(stream_charged_);
      }
      return;
    }

    for (auto& part : partitions_) part->FinishWrites();
    sorter_.emplace(ctx_.spool, StatsOf(ctx_));
    uint64_t emit_seq = 0;
    for (auto& part : partitions_) {
      ProcessGammaPartition(*part, 0, &emit_seq);
    }
    partitions_.clear();
    sorter_->Finish();
  }

  void SwitchToPartitions() {
    spilled_ = true;
    // Admission policy: expected input volume = optimizer row hint × the
    // average resident tuple size observed up to the overflow. No hint (or
    // nothing buffered yet) falls back to the static budget rule.
    double avg = input_seq_.size() > 0
                     ? static_cast<double>(charge_.charged()) /
                           static_cast<double>(input_seq_.size())
                     : 0.0;
    partitions_ = MakePartitionSet(
        ctx_.spool, StatsOf(ctx_),
        GracePartitionCount(ctx_.spool->budget().limit_bytes(),
                            ctx_.spool->RowHint(&op_) * avg));
    std::vector<Key> keys;
    uint64_t seq = 0;
    for (Tuple& t : input_seq_) {
      RouteGamma(seq++, std::move(t), &keys);
    }
    input_seq_.Clear();
    charge_.ReleaseAll();
  }

  void RouteGamma(uint64_t seq, Tuple t, std::vector<Key>* keys) {
    const xml::Store& store = ctx_.ev->store();
    MakeKeysInto(t, op_.left_attrs, store, keys);
    GammaRecord rec;
    rec.seq = seq;
    for (uint32_t ordinal = 0; ordinal < keys->size(); ++ordinal) {
      rec.ordinal = ordinal;
      rec.key = (*keys)[ordinal];
      // One record per key of the tuple; the last one adopts the tuple.
      rec.tuple = (ordinal + 1 == keys->size()) ? std::move(t) : t;
      scratch_.clear();
      EncodeGamma(rec, &scratch_);
      size_t p = SaltedPartition(rec.key, 0, partitions_.size());
      partitions_[p]->Append(scratch_);
    }
  }

  void ProcessGammaPartition(SpoolFile& part, int depth, uint64_t* emit_seq) {
    if (part.records() == 0) return;
    uint64_t limit = ctx_.spool->budget().limit_bytes();
    if (part.bytes() > PartitionLoadLimit(limit) &&
        depth < kMaxRepartitionDepth) {
      SpillStats* stats = StatsOf(ctx_);
      stats->repartitions = xml::SaturatingAdd(stats->repartitions, 1);
      PartitionSet subs =
          MakePartitionSet(ctx_.spool, StatsOf(ctx_), kSubPartitions);
      {
        SpoolFile::Reader reader(part);
        std::string payload;
        GammaRecord rec;
        while (reader.Next(&payload)) {
          DecodeGamma(payload, &rec);
          size_t p = SaltedPartition(rec.key, depth + 1, subs.size());
          subs[p]->Append(payload);  // raw copy; routed key is inside
        }
      }
      for (auto& sub : subs) sub->FinishWrites();
      for (auto& sub : subs) {
        ProcessGammaPartition(*sub, depth + 1, emit_seq);
      }
      return;
    }

    // Load the partition; records arrive in (seq, ordinal) order, so
    // first-occurrence bucketing reproduces the global bucket order within
    // this partition's key subset.
    ChargeGuard charge(&ctx_.spool->budget());
    std::vector<GammaRecord> records;
    {
      SpoolFile::Reader reader(part);
      std::string payload;
      while (reader.Next(&payload)) {
        GammaRecord rec;
        DecodeGamma(payload, &rec);
        uint64_t b = ApproximateTupleBytes(rec.tuple) + kTupleOverhead;
        if (!charge.TryCharge(b)) charge.ChargeUnchecked(b);
        records.push_back(std::move(rec));
      }
    }
    std::unordered_map<Key, std::vector<size_t>, KeyHash> buckets;
    std::vector<const Key*> order;
    for (size_t i = 0; i < records.size(); ++i) {
      auto [it, inserted] = buckets.try_emplace(records[i].key);
      if (inserted) order.push_back(&records[i].key);
      it->second.push_back(i);
    }
    for (const Key* key : order) {
      std::vector<size_t>& members = buckets[*key];
      Sequence group;
      group.Reserve(members.size());
      for (size_t idx : members) {
        group.Append(std::move(records[idx].tuple));
      }
      const GammaRecord& first = records[members.front()];
      Tuple result;
      for (size_t j = 0; j < op_.left_attrs.size(); ++j) {
        result.Set(op_.left_attrs[j], key->values[j]);
      }
      result.Set(op_.attr,
                 ctx_.ev->ApplyAgg(op_.agg, std::move(group), *ctx_.env));
      sorter_->Add({Value(static_cast<int64_t>(first.seq)),
                    Value(static_cast<int64_t>(first.ordinal))},
                   (*emit_seq)++, std::move(result));
    }
  }

  bool NextEqInMemory(Tuple* out) {
    return probe::NextEqGammaGroup(gamma_, input_seq_, op_, ctx_, out);
  }

  // ---- θ-grouping: spooled input, rescanned per key ----------------------

  void OpenTheta() {
    const xml::Store& store = ctx_.ev->store();
    theta_spool_.emplace(ctx_.spool, StatsOf(ctx_));
    std::vector<Key> keys;
    std::unordered_set<Key, KeyHash> seen;
    DrainInto(*input_, [&](Tuple t) {
      MakeKeysInto(t, op_.left_attrs, store, &keys);
      for (Key& k : keys) {
        if (seen.insert(k).second) gamma_.order.push_back(k);
      }
      theta_spool_->Append(std::move(t));
    });
    theta_spool_->FinishWrites();
    gamma_.next_key = 0;
    if (ctx_.stream != nullptr) {
      stream_charged_ = theta_spool_->memory_size();
      ctx_.stream->OnBuffer(stream_charged_);
    }
  }

  bool NextTheta(Tuple* out) {
    // Group construction shared with GroupUnaryCursor (nal/probe_loops.h);
    // only the input rescan differs — a spool replay instead of an in-RAM
    // sequence walk.
    return probe::NextThetaGammaGroup(
        gamma_.order, &gamma_.next_key, op_, ctx_,
        [&](auto&& fn) {
          TupleSpool::Reader reader = theta_spool_->NewReader();
          Tuple u;
          // Rvalue: each deserialized tuple is fresh, so a match is moved
          // into the group (u is reassigned by the next Next()).
          while (reader.Next(&u)) fn(std::move(u));
        },
        out);
  }

  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr input_;
  ChargeGuard charge_;

  bool spilled_ = false;
  Sequence input_seq_;       // in-memory mode
  probe::GammaBuckets gamma_;  // eq buckets; θ mode reuses order/next_key
  uint64_t stream_charged_ = 0;

  PartitionSet partitions_;
  std::optional<ExternalSorter> sorter_;
  std::optional<TupleSpool> theta_spool_;
  std::string scratch_;
  bool opened_ = false;
};

// ---------------------------------------------------------------------------
// Joins (⋈ / × / ⋉ / ▷ / outer / binary Γ)
// ---------------------------------------------------------------------------

class SpillJoinCursor final : public Cursor {
 public:
  SpillJoinCursor(const AlgebraOp& op, ExecContext& ctx, CursorPtr left,
                  CursorPtr right)
      : op_(op),
        ctx_(ctx),
        left_(std::move(left)),
        right_(std::move(right)),
        charge_(&ctx.spool->budget()) {
    if (op_.kind == OpKind::kOuterJoin) {
      AttrInfo info = OutputAttrs(*op_.child(1));
      for (Symbol a : info.attrs) {
        if (a != op_.attr) null_attrs_.push_back(a);
      }
    }
  }

  void Open() override {
    if (opened_) {
      // Unlike the in-memory cursors (which happen to tolerate it), the
      // spill cursors do not reset their partition/spool state on re-Open;
      // enforce the documented single-use cursor contract loudly.
      throw std::logic_error("spill cursor is single-use (cursor.h)");
    }
    opened_ = true;
    left_->Open();
    DetectEqui();
    BuildRight();
    // Post-build checks and constants, mirroring the in-memory cursors'
    // Open order.
    if (op_.kind == OpKind::kGroupBinary && op_.theta != CmpOp::kEq &&
        op_.left_attrs.size() != 1) {
      throw engine::Error(engine::ErrorCode::kPlanError,
                          "theta nest-join requires a single attribute", 0, {},
                          "SpillJoinCursor");
    }
    if (op_.kind == OpKind::kOuterJoin) {
      dflt_ = op_.expr != nullptr
                  ? ctx_.ev->EvalExpr(*op_.expr, Tuple(), *ctx_.env)
                  : Value::Null();
    }
    if (mode_ == Mode::kSpilledEqui) DrainLeftAndProbe();
  }

  bool Next(Tuple* out) override {
    switch (mode_) {
      case Mode::kInMemory:
      case Mode::kSpilledLoop:
        // In-memory and spooled-nested-loop probes share the plain cursors'
        // loops (nal/probe_loops.h); the access methods below read mode_.
        return NextProbeLoop(out);
      case Mode::kSpilledEqui:
        return NextSpilledEqui(out);
      case Mode::kBuilding:
        break;
    }
    return false;
  }

  // ---- probe::JoinProbeLoops access policy (nal/probe_loops.h) -----------

  ExecContext& ctx() { return ctx_; }
  const AlgebraOp& op() const { return op_; }
  bool LeftNext(Tuple* out) { return left_->Next(out); }
  bool use_index() const {
    return mode_ == Mode::kInMemory && equi_.has_value();
  }
  const HashIndex& hash_index() const { return index_; }
  const Expr* residual() const { return equi_->residual.get(); }
  std::span<const Symbol> probe_attrs() const {
    return equi_->left_attrs;
  }
  const Tuple& right_at(uint32_t pos) const { return right_seq_[pos]; }
  void ScanRestart() {
    if (mode_ == Mode::kInMemory) {
      scan_pos_ = 0;
    } else if (scan_reader_.has_value()) {
      // One cached handle, rewound per left tuple — N fopen/fclose pairs
      // for an N-tuple probe side would dominate the nested loop.
      scan_reader_->Rewind();
    } else {
      scan_reader_.emplace(right_spool_->NewReader());
    }
  }
  bool ScanNext(const Tuple** r) {
    if (mode_ == Mode::kInMemory) {
      if (scan_pos_ >= right_seq_.size()) return false;
      *r = &right_seq_[scan_pos_++];
      return true;
    }
    if (!scan_reader_->Next(&scan_tuple_)) return false;
    *r = &scan_tuple_;
    return true;
  }
  const std::vector<Symbol>& outer_null_attrs() const { return null_attrs_; }
  const Value& outer_default() const { return dflt_; }

  void Close() override {
    left_->Close();
    if (ctx_.stream != nullptr) ctx_.stream->OnRelease(stream_charged_);
    stream_charged_ = 0;
  }

 private:
  enum class Mode { kBuilding, kInMemory, kSpilledLoop, kSpilledEqui };

  std::span<const Symbol> build_attrs() const {
    return equi_->right_attrs;
  }

  void DetectEqui() {
    switch (op_.kind) {
      case OpKind::kJoin:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
      case OpKind::kOuterJoin: {
        SymbolSet lattrs = OutputAttrs(*op_.child(0)).attrs;
        SymbolSet rattrs = OutputAttrs(*op_.child(1)).attrs;
        equi_ = ExtractEquiPredicate(op_.pred, lattrs, rattrs);
        break;
      }
      case OpKind::kGroupBinary:
        if (op_.theta == CmpOp::kEq) {
          EquiPredicate e;
          e.left_attrs = op_.left_attrs;
          e.right_attrs = op_.right_attrs;
          equi_ = std::move(e);
        }
        break;
      default:  // kCross: no predicate, nested loop by definition
        break;
    }
  }

  void BuildRight() {
    right_->Open();
    Tuple t;
    while (right_->Next(&t)) {
      if (mode_ == Mode::kBuilding) {
        uint64_t b = ApproximateTupleBytes(t) + kTupleOverhead;
        if (charge_.TryCharge(b)) {
          right_seq_.Append(std::move(t));
          continue;
        }
        SwitchToSpill();
      }
      RouteBuild(std::move(t));
    }
    right_->Close();
    if (mode_ == Mode::kBuilding) {
      mode_ = Mode::kInMemory;
      if (equi_.has_value()) {
        index_.Build(right_seq_, build_attrs(), ctx_.ev->store());
      }
      if (ctx_.stream != nullptr) {
        stream_charged_ = right_seq_.size();
        ctx_.stream->OnBuffer(stream_charged_);
      }
    } else if (mode_ == Mode::kSpilledLoop) {
      right_spool_->FinishWrites();
    } else {
      for (auto& part : build_parts_) part->FinishWrites();
    }
  }

  void SwitchToSpill() {
    if (equi_.has_value()) {
      mode_ = Mode::kSpilledEqui;
      // Admission policy: expected build volume = optimizer row hint for
      // this breaker × the average resident tuple size observed up to the
      // overflow (see GracePartitionCount).
      double avg = right_seq_.size() > 0
                       ? static_cast<double>(charge_.charged()) /
                             static_cast<double>(right_seq_.size())
                       : 0.0;
      build_parts_ = MakePartitionSet(
          ctx_.spool, StatsOf(ctx_),
          GracePartitionCount(ctx_.spool->budget().limit_bytes(),
                              ctx_.spool->RowHint(&op_) * avg));
      for (Tuple& u : right_seq_) RouteBuild(std::move(u));
    } else {
      mode_ = Mode::kSpilledLoop;
      right_spool_.emplace(ctx_.spool, StatsOf(ctx_));
      for (Tuple& u : right_seq_) {
        right_spool_->Append(std::move(u));
        ++rpos_next_;  // keep the arrival count (unused in loop mode)
      }
    }
    right_seq_.Clear();
    charge_.ReleaseAll();
  }

  /// Build record: (global right position, tuple). Written once per
  /// distinct key partition of the tuple; keyless tuples are unreachable by
  /// any probe and keep only their position number.
  void RouteBuild(Tuple t) {
    if (mode_ == Mode::kSpilledLoop) {
      right_spool_->Append(std::move(t));
      ++rpos_next_;
      return;
    }
    uint64_t rpos = rpos_next_++;
    MakeKeysInto(t, build_attrs(), ctx_.ev->store(), &key_scratch_);
    DistinctPartitionsOf(key_scratch_, 0, build_parts_.size(), &part_scratch_);
    if (part_scratch_.empty()) return;
    scratch_.clear();
    PutU64(&scratch_, rpos);
    EncodeTuple(t, &scratch_);
    for (size_t p : part_scratch_) build_parts_[p]->Append(scratch_);
  }

  // ---- spilled equi: probe routing, partition joins, order restoration --

  void DrainLeftAndProbe() {
    const xml::Store& store = ctx_.ev->store();
    left_spool_.emplace(ctx_.spool, StatsOf(ctx_));
    probe_parts_ = MakePartitionSet(ctx_.spool, StatsOf(ctx_),
                                    build_parts_.size());
    uint64_t lseq = 0;
    Tuple t;
    while (left_->Next(&t)) {
      MakeKeysInto(t, probe_attrs(), store, &key_scratch_);
      DistinctPartitionsOf(key_scratch_, 0, probe_parts_.size(),
                           &part_scratch_);
      if (!part_scratch_.empty()) {
        scratch_.clear();
        PutU64(&scratch_, lseq);
        EncodeTuple(t, &scratch_);
        for (size_t p : part_scratch_) probe_parts_[p]->Append(scratch_);
      }
      left_spool_->Append(std::move(t));
      ++lseq;
    }
    left_spool_->FinishWrites();
    for (auto& part : probe_parts_) part->FinishWrites();

    candidates_.emplace(ctx_.spool, StatsOf(ctx_));
    uint64_t cand_seq = 0;
    for (size_t i = 0; i < build_parts_.size(); ++i) {
      ProcessJoinPartition(*build_parts_[i], *probe_parts_[i], 0, &cand_seq);
    }
    build_parts_.clear();
    probe_parts_.clear();
    candidates_->Finish();

    left_reader_.emplace(left_spool_->NewReader(/*consume=*/true));
    next_lseq_ = 0;
    have_left_ = false;
    AdvanceCandidate();
  }

  void ProcessJoinPartition(SpoolFile& build, SpoolFile& probe, int depth,
                            uint64_t* cand_seq) {
    if (build.records() == 0 || probe.records() == 0) return;
    const xml::Store& store = ctx_.ev->store();
    uint64_t limit = ctx_.spool->budget().limit_bytes();
    if (build.bytes() > PartitionLoadLimit(limit) &&
        depth < kMaxRepartitionDepth) {
      SpillStats* stats = StatsOf(ctx_);
      stats->repartitions = xml::SaturatingAdd(stats->repartitions, 1);
      PartitionSet sub_build =
          MakePartitionSet(ctx_.spool, StatsOf(ctx_), kSubPartitions);
      PartitionSet sub_probe =
          MakePartitionSet(ctx_.spool, StatsOf(ctx_), kSubPartitions);
      // Re-route both sides by re-derived keys at the next salt level. A
      // record can fan out to several sub-partitions (multi-valued keys);
      // any resulting duplicate (lseq, rpos) match is dropped at the
      // restoration merge, exactly like LookupInto's sort+unique.
      RereadAndRoute(build, build_attrs(), depth + 1, &sub_build);
      RereadAndRoute(probe, probe_attrs(), depth + 1, &sub_probe);
      for (auto& sub : sub_build) sub->FinishWrites();
      for (auto& sub : sub_probe) sub->FinishWrites();
      for (size_t i = 0; i < sub_build.size(); ++i) {
        ProcessJoinPartition(*sub_build[i], *sub_probe[i], depth + 1,
                             cand_seq);
      }
      return;
    }

    // Load the build partition and index it. HashIndex recomputes every key
    // of every tuple — including keys whose home is another partition; a
    // probe can only reach such an entry through a key it genuinely shares
    // with the build tuple, so the extra entries produce at most duplicate
    // (lseq, rpos) pairs, which the merge drops.
    ChargeGuard charge(&ctx_.spool->budget());
    Sequence part;
    std::vector<uint64_t> rpos_map;
    {
      SpoolFile::Reader reader(build);
      std::string payload;
      while (reader.Next(&payload)) {
        const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
        const uint8_t* end = p + payload.size();
        ByteReader r{p, end};
        uint64_t rpos;
        if (!r.U64(&rpos)) CorruptSpool();
        Tuple t;
        const uint8_t* q = r.p;
        if (!DecodeTuple(&q, end, &t)) CorruptSpool();
        uint64_t b = ApproximateTupleBytes(t) + kTupleOverhead;
        if (!charge.TryCharge(b)) charge.ChargeUnchecked(b);
        rpos_map.push_back(rpos);
        part.Append(std::move(t));
      }
    }
    HashIndex index;
    index.Build(part, build_attrs(), store);

    SpoolFile::Reader reader(probe);
    std::string payload;
    std::vector<uint32_t> lookup;
    while (reader.Next(&payload)) {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
      const uint8_t* end = p + payload.size();
      ByteReader r{p, end};
      uint64_t lseq;
      if (!r.U64(&lseq)) CorruptSpool();
      Tuple probe_tuple;
      const uint8_t* q = r.p;
      if (!DecodeTuple(&q, end, &probe_tuple)) CorruptSpool();
      index.LookupInto(probe_tuple, probe_attrs(), store, &key_scratch_,
                       &lookup);
      for (uint32_t pos : lookup) {
        candidates_->Add({Value(static_cast<int64_t>(lseq)),
                          Value(static_cast<int64_t>(rpos_map[pos]))},
                         (*cand_seq)++, part[pos]);
      }
    }
  }

  void RereadAndRoute(SpoolFile& file, std::span<const Symbol> attrs,
                      int level, PartitionSet* subs) {
    const xml::Store& store = ctx_.ev->store();
    SpoolFile::Reader reader(file);
    std::string payload;
    while (reader.Next(&payload)) {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
      const uint8_t* end = p + payload.size();
      ByteReader r{p, end};
      uint64_t seq;
      if (!r.U64(&seq)) CorruptSpool();
      Tuple t;
      const uint8_t* q = r.p;
      if (!DecodeTuple(&q, end, &t)) CorruptSpool();
      MakeKeysInto(t, attrs, store, &key_scratch_);
      DistinctPartitionsOf(key_scratch_, level, subs->size(), &part_scratch_);
      for (size_t sp : part_scratch_) (*subs)[sp]->Append(payload);
    }
  }

  void AdvanceCandidate() {
    ExternalSorter::Record rec;
    if (candidates_->Next(&rec)) {
      cand_lseq_ = static_cast<uint64_t>(rec.key[0].AsInt());
      cand_rpos_ = static_cast<uint64_t>(rec.key[1].AsInt());
      cand_tuple_ = std::move(rec.tuple);
      cand_valid_ = true;
    } else {
      cand_valid_ = false;
    }
  }

  /// Pops the next candidate for the current left tuple, skipping
  /// duplicate (lseq, rpos) pairs (multi-valued keys matching through
  /// several partitions). False when the current lseq has no more.
  bool TakeCandidate(Tuple* right) {
    while (cand_valid_ && cand_lseq_ == cur_lseq_) {
      bool dup = have_last_ && last_rpos_ == cand_rpos_;
      if (dup) {
        AdvanceCandidate();
        continue;
      }
      have_last_ = true;
      last_rpos_ = cand_rpos_;
      *right = std::move(cand_tuple_);
      AdvanceCandidate();
      return true;
    }
    return false;
  }

  /// Drops the rest of the current left tuple's candidates without looking
  /// at them (semi/anti short-circuit parity: the in-memory probe stops
  /// evaluating the residual after the first match).
  void SkipCandidates() {
    while (cand_valid_ && cand_lseq_ == cur_lseq_) AdvanceCandidate();
  }

  bool NextSpilledEqui(Tuple* out) {
    const bool anti = op_.kind == OpKind::kAntiJoin;
    while (true) {
      if (!have_left_) {
        if (!left_reader_->Next(&cur_left_)) return false;
        cur_lseq_ = next_lseq_++;
        have_left_ = true;
        matched_ = false;
        have_last_ = false;
        group_.Clear();
      }
      Tuple right;
      switch (op_.kind) {
        case OpKind::kJoin: {
          while (TakeCandidate(&right)) {
            Tuple combined = cur_left_.Concat(right);
            if (equi_->residual == nullptr ||
                ctx_.ev->EvalPred(*equi_->residual, combined, *ctx_.env)) {
              *out = std::move(combined);
              CountProducedTuple(ctx_);
              return true;
            }
          }
          have_left_ = false;
          break;
        }
        case OpKind::kSemiJoin:
        case OpKind::kAntiJoin: {
          while (!matched_ && TakeCandidate(&right)) {
            if (equi_->residual == nullptr ||
                ctx_.ev->EvalPred(*equi_->residual, cur_left_.Concat(right),
                                  *ctx_.env)) {
              matched_ = true;
            }
          }
          SkipCandidates();
          bool emit = matched_ != anti;
          Tuple l = std::move(cur_left_);
          have_left_ = false;
          if (emit) {
            *out = std::move(l);
            CountProducedTuple(ctx_);
            return true;
          }
          break;
        }
        case OpKind::kOuterJoin: {
          while (TakeCandidate(&right)) {
            Tuple combined = cur_left_.Concat(right);
            if (equi_->residual == nullptr ||
                ctx_.ev->EvalPred(*equi_->residual, combined, *ctx_.env)) {
              matched_ = true;
              *out = std::move(combined);
              CountProducedTuple(ctx_);
              return true;
            }
          }
          bool pad = !matched_;
          Tuple l = std::move(cur_left_);
          have_left_ = false;
          if (pad) {
            Tuple t = l.Concat(Tuple::Nulls(null_attrs_));
            t.Set(op_.attr, dflt_);
            *out = std::move(t);
            CountProducedTuple(ctx_);
            return true;
          }
          break;
        }
        case OpKind::kGroupBinary: {
          while (TakeCandidate(&right)) group_.Append(std::move(right));
          Tuple l = std::move(cur_left_);
          have_left_ = false;
          Value agg =
              ctx_.ev->ApplyAgg(op_.agg, std::move(group_), *ctx_.env);
          group_ = Sequence();
          l.Set(op_.attr, std::move(agg));
          *out = std::move(l);
          CountProducedTuple(ctx_);
          return true;
        }
        default:
          return false;  // kCross never reaches the equi path
      }
    }
  }

  /// In-memory and spooled-nested-loop probes via the shared loops — the
  /// fits-in-memory byte-identity with the plain cursors holds because this
  /// IS the plain cursors' code (nal/probe_loops.h).
  bool NextProbeLoop(Tuple* out) {
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
        return false;
    }
  }

  const AlgebraOp& op_;
  ExecContext& ctx_;
  CursorPtr left_;
  CursorPtr right_;
  ChargeGuard charge_;

  Mode mode_ = Mode::kBuilding;
  std::optional<EquiPredicate> equi_;
  Sequence right_seq_;  // in-memory build side
  HashIndex index_;
  uint64_t rpos_next_ = 0;
  uint64_t stream_charged_ = 0;

  std::vector<Symbol> null_attrs_;  // outer join
  Value dflt_;

  // Probe state: loops_ for the shared in-memory/nested-loop paths,
  // cur_left_/have_left_/matched_ for the spilled-equi restoration merge.
  probe::JoinProbeLoops<SpillJoinCursor> loops_;
  Tuple cur_left_;
  bool have_left_ = false;
  bool matched_ = false;
  std::vector<Key> key_scratch_;
  std::vector<size_t> part_scratch_;
  size_t scan_pos_ = 0;
  Tuple scan_tuple_;
  std::optional<TupleSpool> right_spool_;
  std::optional<TupleSpool::Reader> scan_reader_;

  // Spilled-equi state.
  PartitionSet build_parts_;
  PartitionSet probe_parts_;
  std::optional<TupleSpool> left_spool_;
  std::optional<TupleSpool::Reader> left_reader_;
  std::optional<ExternalSorter> candidates_;
  uint64_t next_lseq_ = 0;
  uint64_t cur_lseq_ = 0;
  bool cand_valid_ = false;
  uint64_t cand_lseq_ = 0;
  uint64_t cand_rpos_ = 0;
  Tuple cand_tuple_;
  bool have_last_ = false;
  uint64_t last_rpos_ = 0;
  Sequence group_;
  std::string scratch_;
  bool opened_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

namespace {

/// Decorates a spill cursor so any engine::Error escaping it is annotated
/// with the breaker's operator name — a low-level "spool.write" fault then
/// reports which operator it broke (the innermost annotation wins, so a
/// fault inside a nested spill cursor keeps that cursor's operator).
class OpContextCursor final : public Cursor {
 public:
  OpContextCursor(std::string op_name, CursorPtr inner)
      : op_name_(std::move(op_name)), inner_(std::move(inner)) {}

  void Open() override {
    Annotated([&] { inner_->Open(); });
  }
  bool Next(Tuple* out) override {
    return Annotated([&] { return inner_->Next(out); });
  }
  void Close() override {
    Annotated([&] { inner_->Close(); });
  }

 private:
  template <typename F>
  auto Annotated(F&& f) -> decltype(f()) {
    try {
      return f();
    } catch (engine::Error& e) {
      e.set_op_if_empty(op_name_);
      throw;
    }
  }

  std::string op_name_;
  CursorPtr inner_;
};

CursorPtr Annotate(std::string op_name, CursorPtr inner) {
  return std::make_unique<OpContextCursor>(std::move(op_name),
                                           std::move(inner));
}

}  // namespace

bool SpillEnabled(const ExecContext& ctx) {
  return ctx.spool != nullptr && ctx.spool->enabled();
}

CursorPtr MakeSpillSortCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr input) {
  return Annotate(std::string(OpKindName(op.kind)),
                  std::make_unique<SpillSortCursor>(op, ctx, std::move(input)));
}

CursorPtr MakeSpillGroupUnaryCursor(const AlgebraOp& op, ExecContext& ctx,
                                    CursorPtr input) {
  return Annotate(
      std::string(OpKindName(op.kind)),
      std::make_unique<SpillGroupUnaryCursor>(op, ctx, std::move(input)));
}

CursorPtr MakeSpillJoinCursor(const AlgebraOp& op, ExecContext& ctx,
                              CursorPtr left, CursorPtr right) {
  return Annotate(std::string(OpKindName(op.kind)),
                  std::make_unique<SpillJoinCursor>(op, ctx, std::move(left),
                                                    std::move(right)));
}

CursorPtr MakeSpoolBufferCursor(ExecContext& ctx, CursorPtr input) {
  return Annotate("SpoolBuffer",
                  std::make_unique<SpoolBufferCursor>(ctx, std::move(input)));
}

}  // namespace nalq::nal
