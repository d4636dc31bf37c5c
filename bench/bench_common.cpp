#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "rewrite/unnester.h"
#include "xquery/translate.h"

namespace nalq::bench {

namespace {

double TimePlanImpl(const engine::Engine& engine, const nal::AlgebraPtr& plan,
                    int repeats, engine::ExecMode mode,
                    engine::PathMode path_mode, nal::EvalStats* stats,
                    unsigned threads = 0, uint64_t budget = 0,
                    nal::StreamStats* exec = nullptr) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    auto start = std::chrono::steady_clock::now();
    engine::RunResult result =
        engine.Run(plan, mode, path_mode, threads, budget);
    auto end = std::chrono::steady_clock::now();
    if (stats != nullptr) *stats = result.stats;
    if (exec != nullptr) *exec = result.exec;
    double s = std::chrono::duration<double>(end - start).count();
    times.push_back(s);
    if (s > 2.0) break;  // slow plan: one measurement is informative enough
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

double TimeCancelRecorded(const engine::Engine& engine,
                          const nal::AlgebraPtr& plan,
                          const std::string& bench,
                          const std::string& plan_label,
                          const std::string& size, unsigned fuse_ms) {
  nal::QueryControl control;
  // Nanosecond timestamp of the cancel request; atomic so the measuring
  // thread may read it without racing the canceller.
  std::atomic<int64_t> cancel_at_ns{0};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(fuse_ms));
    cancel_at_ns.store(std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count(),
                       std::memory_order_release);
    control.RequestCancel();
  });
  bool cancelled = false;
  try {
    engine.Run(plan, engine::ExecMode::kStreaming, engine::PathMode::kIndexed,
               /*threads=*/0, /*memory_budget_bytes=*/0, /*deadline_ms=*/0,
               &control);
  } catch (const engine::Error& e) {
    cancelled = e.code() == engine::ErrorCode::kCancelled;
  }
  auto end = std::chrono::steady_clock::now();
  canceller.join();
  if (!cancelled) return -1;  // finished before the fuse: nothing to report
  double latency = std::chrono::duration<double>(
                       end.time_since_epoch() -
                       std::chrono::steady_clock::duration(
                           cancel_at_ns.load(std::memory_order_acquire)))
                       .count();
  BenchRecord r;
  r.bench = bench;
  r.plan = plan_label;
  r.size = size;
  r.mode = "cancel";
  r.path = "indexed";
  r.seconds = latency;
  RecordBench(std::move(r));
  return latency;
}

double TimePlan(const engine::Engine& engine, const nal::AlgebraPtr& plan,
                int repeats, engine::ExecMode mode,
                engine::PathMode path_mode) {
  return TimePlanImpl(engine, plan, repeats, mode, path_mode, nullptr);
}

namespace {

std::vector<BenchRecord>& Records() {
  static std::vector<BenchRecord> records;
  return records;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One record as a single JSON object line (the merge in WriteBenchResults
/// relies on the one-line-per-record layout).
std::string RecordLine(const BenchRecord& r) {
  char seconds[64];
  std::snprintf(seconds, sizeof(seconds), "%.6f", r.seconds);
  std::ostringstream out;
  out << "{\"bench\":\"" << JsonEscape(r.bench) << "\""
      << ",\"plan\":\"" << JsonEscape(r.plan) << "\""
      << ",\"parameter\":\"" << JsonEscape(r.parameter) << "\""
      << ",\"size\":\"" << JsonEscape(r.size) << "\""
      << ",\"mode\":\"" << JsonEscape(r.mode) << "\""
      << ",\"path\":\"" << JsonEscape(r.path) << "\""
      << ",\"threads\":" << r.threads
      << ",\"budget\":" << r.budget
      << ",\"seconds\":" << seconds
      << ",\"nested_alg_evals\":" << r.stats.nested_alg_evals
      << ",\"doc_scans\":" << r.stats.doc_scans
      << ",\"tuples_produced\":" << r.stats.tuples_produced
      << ",\"predicate_evals\":" << r.stats.predicate_evals
      << ",\"xpath_steps\":" << r.stats.xpath.steps_evaluated
      << ",\"xpath_nodes\":" << r.stats.xpath.nodes_visited
      << ",\"index_lookups\":" << r.stats.xpath.index_lookups
      << ",\"index_hits\":" << r.stats.xpath.index_hits
      << ",\"index_nodes_skipped\":" << r.stats.xpath.index_nodes_skipped
      << ",\"spilled_bytes\":" << r.stats.spill.spilled_bytes
      << ",\"spill_runs\":" << r.stats.spill.spill_runs
      << ",\"repartitions\":" << r.stats.spill.repartitions
      << ",\"merge_passes\":" << r.stats.spill.merge_passes
      << ",\"shared_probe_breakers\":" << r.exec.shared_probe_breakers
      << ",\"gamma_partitions\":" << r.exec.gamma_partitions
      << ",\"exchange_dop\":" << r.exec.exchange_dop;
  char est[64];
  std::snprintf(est, sizeof(est), "%.3f", r.est_cost);
  out << ",\"est_cost\":" << est;
  std::snprintf(est, sizeof(est), "%.3f", r.est_rows);
  out << ",\"est_rows\":" << est
      << ",\"chosen_by_cost\":" << r.chosen_by_cost
      << ",\"chosen_by_priority\":" << r.chosen_by_priority;
  std::snprintf(est, sizeof(est), "%.3f", r.actual_rows);
  out << ",\"actual_rows\":" << est;
  std::snprintf(est, sizeof(est), "%.3f", r.qps);
  out << ",\"qps\":" << est;
  std::snprintf(est, sizeof(est), "%.3f", r.p50_ms);
  out << ",\"p50_ms\":" << est;
  std::snprintf(est, sizeof(est), "%.3f", r.p99_ms);
  out << ",\"p99_ms\":" << est
      << ",\"svc_submitted\":" << r.svc_submitted
      << ",\"svc_completed\":" << r.svc_completed
      << ",\"svc_rejected\":" << r.svc_rejected
      << ",\"svc_shed\":" << r.svc_shed
      << ",\"svc_degraded\":" << r.svc_degraded;
  std::snprintf(est, sizeof(est), "%.6f", r.profiled_seconds);
  out << ",\"profiled_seconds\":" << est;
  std::snprintf(est, sizeof(est), "%.6f", r.cold_open_s);
  out << ",\"cold_open_s\":" << est;
  std::snprintf(est, sizeof(est), "%.6f", r.warm_open_s);
  out << ",\"warm_open_s\":" << est
      << ",\"persisted_bytes\":" << r.persisted_bytes
      << ",\"resident_bytes\":" << r.resident_bytes
      << ",\"rss_delta_bytes\":" << r.rss_delta_bytes;
  if (!r.operators.empty()) {
    out << ",\"operators\":[";
    for (size_t i = 0; i < r.operators.size(); ++i) {
      const BenchRecord::OpRow& op = r.operators[i];
      char erow[64];
      char arow[64];
      std::snprintf(erow, sizeof(erow), "%.3f", op.est_rows);
      std::snprintf(arow, sizeof(arow), "%.3f", op.actual_rows);
      out << (i == 0 ? "" : ",") << "{\"op\":\"" << JsonEscape(op.op)
          << "\",\"est_rows\":" << erow << ",\"actual_rows\":" << arow << "}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace

void RecordBench(BenchRecord record) {
  Records().push_back(std::move(record));
}

void WriteBenchResults(const char* path) {
  if (Records().empty()) return;
  // Keep records of other experiments already in the file; replace every
  // experiment id this process re-measured. The read-modify-write is not
  // locked: run the bench binaries sequentially (concurrent writers would
  // drop each other's records).
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      // One record object per line; anything else (array brackets, a
      // hand-reformatted file) is skipped rather than merged garbled.
      size_t start = line.find("{\"bench\"");
      size_t end = line.rfind('}');
      if (start == std::string::npos || end == std::string::npos ||
          end < start) {
        continue;
      }
      std::string record = line.substr(start, end - start + 1);
      bool remeasured = false;
      for (const BenchRecord& r : Records()) {
        if (record.find("{\"bench\":\"" + JsonEscape(r.bench) + "\"") == 0) {
          remeasured = true;
          break;
        }
      }
      if (!remeasured) kept.push_back(std::move(record));
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  bool first = true;
  for (const std::string& line : kept) {
    out << (first ? "" : ",\n") << line;
    first = false;
  }
  for (const BenchRecord& r : Records()) {
    out << (first ? "" : ",\n") << RecordLine(r);
    first = false;
  }
  out << "\n]\n";
  std::printf("wrote %zu record(s) to %s\n", kept.size() + Records().size(),
              path);
}

double TimePlanRecorded(const engine::Engine& engine,
                        const nal::AlgebraPtr& plan, const std::string& bench,
                        const std::string& plan_label,
                        const std::string& parameter, const std::string& size,
                        int repeats) {
  BenchRecord base;
  base.bench = bench;
  base.plan = plan_label;
  base.parameter = parameter;
  base.size = size;

  double default_seconds = 0;
  for (engine::PathMode path_mode :
       {engine::PathMode::kIndexed, engine::PathMode::kScan}) {
    for (engine::ExecMode mode :
         {engine::ExecMode::kStreaming, engine::ExecMode::kMaterializing}) {
      BenchRecord r = base;
      r.mode = mode == engine::ExecMode::kStreaming ? "streaming"
                                                    : "materializing";
      r.path =
          path_mode == engine::PathMode::kIndexed ? "indexed" : "scan";
      r.seconds = TimePlanImpl(engine, plan, repeats, mode, path_mode,
                               &r.stats, /*threads=*/0, /*budget=*/0, &r.exec);
      if (mode == engine::ExecMode::kStreaming &&
          path_mode == engine::PathMode::kIndexed) {
        default_seconds = r.seconds;
      }
      RecordBench(std::move(r));
    }
  }
  // Parallel-executor thread sweep (indexed path, the engine default): the
  // ISSUE/EXPERIMENTS scaling numbers come from these records.
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<unsigned> sweep = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) sweep.push_back(hw);
  for (unsigned threads : sweep) {
    BenchRecord r = base;
    r.mode = "parallel";
    r.path = "indexed";
    r.threads = threads;
    r.seconds = TimePlanImpl(engine, plan, repeats, engine::ExecMode::kParallel,
                             engine::PathMode::kIndexed, &r.stats, threads,
                             /*budget=*/0, &r.exec);
    RecordBench(std::move(r));
  }
  // Memory-budget sweep over the budget-aware executors (nal/spool.h). One
  // run per point — the interesting signal is the SpillStats counters and
  // the slowdown shape, not a tight median.
  constexpr uint64_t kBudgets[] = {64u << 20, 8u << 20, 1u << 20};
  for (uint64_t budget : kBudgets) {
    {
      BenchRecord r = base;
      r.mode = "streaming";
      r.path = "indexed";
      r.budget = budget;
      r.seconds = TimePlanImpl(engine, plan, /*repeats=*/1,
                               engine::ExecMode::kStreaming,
                               engine::PathMode::kIndexed, &r.stats,
                               /*threads=*/0, budget, &r.exec);
      RecordBench(std::move(r));
    }
    for (unsigned threads : {1u, 4u}) {
      BenchRecord r = base;
      r.mode = "parallel";
      r.path = "indexed";
      r.threads = threads;
      r.budget = budget;
      r.seconds = TimePlanImpl(engine, plan, /*repeats=*/1,
                               engine::ExecMode::kParallel,
                               engine::PathMode::kIndexed, &r.stats, threads,
                               budget, &r.exec);
      RecordBench(std::move(r));
    }
  }
  return default_seconds;
}

namespace {

/// Preorder flatten of a profile tree into the per-operator rows the
/// mode="profile" record carries.
void FlattenProfile(const obs::ProfileNode& node,
                    std::vector<BenchRecord::OpRow>* out) {
  BenchRecord::OpRow row;
  row.op = node.headline.empty() ? node.op : node.headline;
  row.est_rows = node.est_rows;
  row.actual_rows = static_cast<double>(node.metrics.rows);
  out->push_back(std::move(row));
  for (const obs::ProfileNode& child : node.children) {
    FlattenProfile(child, out);
  }
}

}  // namespace

void RecordPlanEstimates(const engine::CompiledQuery& q,
                         const std::string& bench, const std::string& size,
                         const engine::Engine* engine) {
  if (q.alternatives.size() != q.estimates.size()) return;
  // Bench loops recompile the same query per plan/parameter; one estimate
  // record set per (experiment, size) is enough.
  static std::set<std::string> recorded;
  if (!recorded.insert(bench + "/" + size).second) return;
  // Measured rows for the cost-chosen plan (one streaming run): the
  // estimate-vs-actual drift row the calibration workflow watches.
  double actual_rows = -1;
  if (engine != nullptr && q.cost_choice < q.alternatives.size()) {
    actual_rows = static_cast<double>(
        engine->Run(q.alternatives[q.cost_choice].plan).root_tuples);
  }
  // The priority policy's winner among the enumerated alternatives (the
  // paper's most-restrictive-rule ranking; for the single-block paper
  // benches this is exactly Unnester::Best).
  size_t priority_choice = 0;
  for (size_t i = 1; i < q.alternatives.size(); ++i) {
    if (rewrite::RulePriority(q.alternatives[i].rule) <
        rewrite::RulePriority(q.alternatives[priority_choice].rule)) {
      priority_choice = i;
    }
  }
  for (size_t i = 0; i < q.alternatives.size(); ++i) {
    BenchRecord r;
    r.bench = bench;
    r.plan = q.alternatives[i].rule;
    r.size = size;
    r.mode = "estimate";
    r.path = "indexed";
    r.est_cost = q.estimates[i].total_cost();
    r.est_rows = q.estimates[i].rows;
    r.chosen_by_cost = i == q.cost_choice ? 1 : 0;
    r.chosen_by_priority = i == priority_choice ? 1 : 0;
    if (i == q.cost_choice) r.actual_rows = actual_rows;
    RecordBench(std::move(r));
  }
  // One mode="profile" record per (experiment, size): the cost-chosen plan
  // with per-operator profiling on, next to a profiling-off baseline of the
  // same plan — the per-operator estimate-vs-actual table AND the profiling
  // overhead measurement, in one record.
  if (engine != nullptr && q.cost_choice < q.alternatives.size()) {
    const nal::AlgebraPtr& plan = q.alternatives[q.cost_choice].plan;
    BenchRecord r;
    r.bench = bench;
    r.plan = q.alternatives[q.cost_choice].rule;
    r.size = size;
    r.mode = "profile";
    r.path = "indexed";
    r.seconds = TimePlanImpl(*engine, plan, /*repeats=*/3,
                             engine::ExecMode::kStreaming,
                             engine::PathMode::kIndexed, nullptr);
    engine::RunInstrumentation instr;
    instr.profile = true;
    std::vector<double> times;
    engine::RunResult profiled;
    for (int i = 0; i < 3; ++i) {
      auto start = std::chrono::steady_clock::now();
      profiled = engine->Run(plan, engine::ExecMode::kStreaming,
                             engine::PathMode::kIndexed, /*threads=*/0,
                             /*memory_budget_bytes=*/0, /*deadline_ms=*/0,
                             /*control=*/nullptr, &instr);
      auto end = std::chrono::steady_clock::now();
      double s = std::chrono::duration<double>(end - start).count();
      times.push_back(s);
      if (s > 2.0) break;
    }
    std::sort(times.begin(), times.end());
    r.profiled_seconds = times[times.size() / 2];
    r.stats = profiled.stats;
    r.est_cost = q.estimates[q.cost_choice].total_cost();
    r.est_rows = q.estimates[q.cost_choice].rows;
    r.actual_rows = static_cast<double>(profiled.root_tuples);
    FlattenProfile(profiled.profile.root, &r.operators);
    RecordBench(std::move(r));
  }
}

std::string FormatSeconds(double s) {
  char buf[64];
  if (s >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0f s", s);
  } else if (s >= 1) {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f s", s);
  }
  return buf;
}

nal::AlgebraPtr RowPlan(const engine::Engine& engine,
                        const engine::CompiledQuery& q,
                        const std::string& rule) {
  if (rule == kPaperNested) {
    return xquery::Translate(q.normalized, &engine.dtds());
  }
  const rewrite::Alternative* alt = q.Find(rule);
  return alt != nullptr ? alt->plan : nullptr;
}

std::string Extrapolated(double seconds) {
  return "~" + FormatSeconds(seconds) + " (extrapolated)";
}

bool FullRuns(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

void PrintTable(const std::string& title, const std::string& parameter_name,
                const std::vector<std::string>& column_headers,
                const std::vector<Row>& rows) {
  std::printf("\n%s\n", title.c_str());
  // Column widths.
  size_t plan_width = 4;
  size_t param_width = parameter_name.size();
  for (const Row& row : rows) {
    plan_width = std::max(plan_width, row.plan.size());
    param_width = std::max(param_width, row.parameter.size());
  }
  std::vector<size_t> widths;
  for (size_t c = 0; c < column_headers.size(); ++c) {
    size_t w = column_headers[c].size();
    for (const Row& row : rows) {
      if (c < row.cells.size()) w = std::max(w, row.cells[c].size());
    }
    widths.push_back(w);
  }
  auto print_sep = [&]() {
    std::printf("+-%s-+", std::string(plan_width, '-').c_str());
    if (!parameter_name.empty()) {
      std::printf("-%s-+", std::string(param_width, '-').c_str());
    }
    for (size_t w : widths) std::printf("-%s-+", std::string(w, '-').c_str());
    std::printf("\n");
  };
  print_sep();
  std::printf("| %-*s |", static_cast<int>(plan_width), "Plan");
  if (!parameter_name.empty()) {
    std::printf(" %-*s |", static_cast<int>(param_width),
                parameter_name.c_str());
  }
  for (size_t c = 0; c < column_headers.size(); ++c) {
    std::printf(" %*s |", static_cast<int>(widths[c]),
                column_headers[c].c_str());
  }
  std::printf("\n");
  print_sep();
  for (const Row& row : rows) {
    std::printf("| %-*s |", static_cast<int>(plan_width), row.plan.c_str());
    if (!parameter_name.empty()) {
      std::printf(" %-*s |", static_cast<int>(param_width),
                  row.parameter.c_str());
    }
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf(" %*s |", static_cast<int>(widths[c]),
                  c < row.cells.size() ? row.cells[c].c_str() : "");
    }
    std::printf("\n");
  }
  print_sep();
}

void LoadBib(engine::Engine* engine, size_t books, int authors_per_book) {
  datagen::BibOptions options;
  options.books = books;
  options.authors_per_book = authors_per_book;
  engine->AddDocument("bib.xml", datagen::GenerateBib(options));
  engine->RegisterDtd("bib.xml", datagen::kBibDtd);
}

void LoadPrices(engine::Engine* engine, size_t entries) {
  engine->AddDocument("prices.xml", datagen::GeneratePrices(entries));
  engine->RegisterDtd("prices.xml", datagen::kPricesDtd);
}

void LoadBibAndReviews(engine::Engine* engine, size_t n) {
  LoadBib(engine, n, 2);
  engine->AddDocument("reviews.xml", datagen::GenerateReviews(n));
  engine->RegisterDtd("reviews.xml", datagen::kReviewsDtd);
}

void LoadBids(engine::Engine* engine, size_t bids) {
  datagen::AuctionOptions options;
  options.bids = bids;
  engine->AddDocument("bids.xml", datagen::GenerateBids(options));
  engine->RegisterDtd("bids.xml", datagen::kBidsDtd);
}

}  // namespace nalq::bench
