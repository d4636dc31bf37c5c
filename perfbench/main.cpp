// nalq_perfbench: the end-to-end benchmark program (see perfbench/README.md).
//
//   nalq_perfbench prep --workload W --seed N --dir D
//   nalq_perfbench run  --workload W --seed N --seconds S --trace 0|1 --dir D
//                       [--trace-file F]
//
// `prep` generates the workload's corpus from the seed, computes the
// expected output of every query kind with an oracle that is not the timed
// plan (workloads.h, Workload::twin) and, for the service workload, persists
// the store. `run` serves the prepared workload in a closed loop and prints
// one JSON line with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). It runs in its own process so peak_rss_mb covers the
// workload only. perfbench/run.py builds this binary and drives both steps.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "nal/algebra.h"
#include "obs/profile.h"
#include "opt/chooser.h"
#include "rewrite/unnester.h"
#include "service/query_service.h"
#include "workloads.h"
#include "xml/document_source.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"
#include "xquery/translate.h"

extern char** environ;

namespace nalq::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// 64-bit digest of a response, eight bytes per step so checking a
/// megabyte-sized response costs well under a millisecond.
uint64_t Digest(std::string_view s) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ s.size();
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    h = (h ^ w) * 0xFF51AFD7ED558CCDull;
    h ^= h >> 29;
  }
  for (; i < s.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(s[i])) * 0xC4CEB9FE1A85EC53ull;
  }
  return h ^ (h >> 31);
}

/// A fixed piece of work that does not use the library: a hash index over
/// generated strings, probed, its matches rendered into one string, its
/// keys sorted. It allocates from `pool` only.
uint64_t ReferenceWork(std::pmr::memory_resource* pool) {
  std::mt19937 rng(12345);
  constexpr uint32_t kKeys = 10000;
  std::pmr::vector<std::pmr::string> keys(pool);
  keys.reserve(kKeys);
  for (uint32_t i = 0; i < kKeys; ++i) {
    keys.emplace_back("author-name-");
    keys.back() += std::to_string(rng() % 100000);
  }
  std::pmr::unordered_map<std::pmr::string, std::pmr::vector<uint32_t>> index(
      pool);
  for (uint32_t i = 0; i < 2 * kKeys; ++i) {
    index[keys[rng() % kKeys]].push_back(i);
  }
  std::pmr::string out(pool);
  uint64_t hits = 0;
  for (uint64_t i = 0; i < 2 * kKeys; ++i) {
    auto it = index.find(keys[(i * 7919) % kKeys]);
    if (it == index.end()) continue;
    hits += it->second.size();
    out += "<a>";
    out += it->first;
    out += "</a>";
  }
  std::sort(keys.begin(), keys.end());
  return hits + out.size() + keys.front().size();
}

/// Time in ms of ReferenceWork(). Like the engine's work it allocates,
/// hashes and misses caches, so it slows down with the engine when other
/// tenants of the host compete for cores and caches; plain arithmetic loops
/// do not. It runs from a per-thread arena that an untimed run has just
/// brought into cache, so neither the engine's heap nor what the engine
/// left in the caches can change it.
double ReferenceMs() {
  constexpr size_t kArenaBytes = 4u << 20;
  thread_local std::unique_ptr<std::byte[]> arena(new std::byte[kArenaBytes]);
  volatile uint64_t sink = 0;
  {
    std::pmr::monotonic_buffer_resource pool(arena.get(), kArenaBytes);
    sink = sink + ReferenceWork(&pool);
  }
  auto t0 = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.get(), kArenaBytes);
  sink = sink + ReferenceWork(&pool);
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Mean time in ms of `threads` ReferenceMs() runs side by side, so that
/// the reference loads as many cores as the workload keeps busy.
double ParallelReferenceMs(unsigned threads) {
  std::vector<double> ms(threads);
  std::vector<std::thread> others;
  for (unsigned t = 1; t < threads; ++t) {
    others.emplace_back([&ms, t] { ms[t] = ReferenceMs(); });
  }
  ms[0] = ReferenceMs();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (double v : ms) sum += v;
  return sum / threads;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Continued fraction of the regularized incomplete beta function, by the
/// modified Lentz method.
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1, d = 1 / guard(1 - (a + b) * x / (a + 1)), h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double num = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + num * d);
    c = guard(1 + num / c);
    h *= d * c;
    num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + num * d);
    c = guard(1 + num / c);
    h *= d * c;
    if (std::fabs(d * c - 1) < 1e-12) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

/// Harrell-Davis estimate of the p-quantile of an ascending vector: the mean
/// of all samples weighted by a Beta((n+1)p, (n+1)(1-p)) distribution over
/// their ranks. Every kind of a cycle is measured equally often, so a
/// percentile can fall in the gap between two kinds' latencies; there this
/// estimate rests on the samples near the gap, not on the single slowest
/// sample of one kind and the fastest of the next.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  if (n == 0) return 0;
  const double a = static_cast<double>(n + 1) * p;
  const double b = static_cast<double>(n + 1) * (1 - p);
  double sum = 0, below = 0;
  for (size_t i = 0; i < n; ++i) {
    const double upto = IncompleteBeta(
        a, b, static_cast<double>(i + 1) / static_cast<double>(n));
    sum += (upto - below) * sorted[i];
    below = upto;
  }
  return sum;
}

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void WriteFile(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + p.string());
}

/// Minimal JSON object writer for the result lines.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, obs::JsonQuote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + obs::JsonQuote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- serving --------------------------------------------------------------

service::ServiceOptions ServiceOptionsFor(const std::string& store_dir) {
  service::ServiceOptions o;
  o.memory_budget_bytes = kServiceBudgetBytes;
  o.max_concurrent = kServiceMaxConcurrent;
  o.queue_depth = 16;
  o.queue_deadline_ms = 1000;
  o.max_threads_per_query = kServiceThreadsPerQuery;
  o.plan_cache_capacity = 64;
  o.store_dir = store_dir;
  return o;
}

service::QueryOptions ServiceQuery(bool profile = false) {
  service::QueryOptions q;
  q.mode = engine::ExecMode::kParallel;
  q.path_mode = engine::PathMode::kIndexed;
  q.choice = engine::PlanChoice::kCost;
  q.threads = kServiceThreadsPerQuery;
  q.profile = profile;
  return q;
}

struct Doc {
  const DocSpec* spec;
  std::string text;
};

void LoadDocs(engine::Engine& e, const std::vector<Doc>& docs) {
  for (const Doc& d : docs) e.AddDocument(d.spec->name, d.text);
  for (const Doc& d : docs) e.RegisterDtd(d.spec->name, d.spec->dtd);
}

/// A workload ready to serve. Members are destroyed in reverse order, so
/// the service goes before the engine it refers to.
struct Served {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<service::QueryService> svc;
};

/// The set-up setup_s times: for text workloads the store build, DTDs and
/// the first Compile of each kind (which builds index and statistics); for
/// the service a warm attach plus one Execute per kind (which pages the
/// documents in and fills the plan cache).
std::unique_ptr<Served> Setup(const Workload& w, const std::vector<Doc>& docs,
                              const std::string& store_dir) {
  auto s = std::make_unique<Served>();
  s->engine = std::make_unique<engine::Engine>();
  if (w.service) {
    s->svc = std::make_unique<service::QueryService>(
        *s->engine, ServiceOptionsFor(store_dir));
    for (const Kind* k : w.cycle) {
      service::QueryResult r = s->svc->Execute(k->text, ServiceQuery());
      if (!r.ok) {
        throw std::runtime_error("set-up query failed: " + r.error_what);
      }
    }
  } else {
    LoadDocs(*s->engine, docs);
    for (const Kind* k : w.cycle) {
      s->engine->Compile(k->text, w.choice);
    }
  }
  return s;
}

struct Reply {
  bool ok = false;
  double ms = 0;  ///< call until the result returned
  std::string output;
  nal::EvalStats stats;
  std::string rule;  ///< chosen rewrite; text workloads only
};

/// One untraced request, exactly as a user of the library issues it.
Reply Serve(const Workload& w, Served& s, const Kind& k) {
  Reply rep;
  auto t0 = Clock::now();
  if (w.service) {
    service::QueryResult r = s.svc->Execute(k.text, ServiceQuery());
    rep.ms = SecondsSince(t0) * 1e3;
    rep.ok = r.ok;
    rep.output = std::move(r.output);
    rep.stats = r.stats;
    return rep;
  }
  try {
    engine::CompiledQuery q = s.engine->Compile(k.text, w.choice);
    engine::RunResult r = s.engine->Run(q.best.plan);
    rep.ms = SecondsSince(t0) * 1e3;
    rep.ok = true;
    rep.output = std::move(r.output);
    rep.stats = r.stats;
    rep.rule = q.best.rule;
  } catch (const std::exception& e) {
    rep.ms = SecondsSince(t0) * 1e3;
    std::fprintf(stderr, "request %s failed: %s\n", k.name, e.what());
  }
  return rep;
}

// ---- expected outputs -----------------------------------------------------

struct Expected {
  uint64_t bytes = 0;
  uint64_t digest = 0;
};

struct Prepared {
  std::map<std::string, Expected> expected;  ///< by kind name
  /// Kinds compared with the nested plan on the twin corpus, and how many
  /// of them differed. Both count as requests of the run.
  int twin_checks = 0;
  int twin_mismatches = 0;
};

bool Matches(const Prepared& p, const Kind& k, const Reply& r) {
  auto it = p.expected.find(k.name);
  return r.ok && it != p.expected.end() &&
         r.output.size() == it->second.bytes &&
         Digest(r.output) == it->second.digest;
}

/// Output of the original nested plan, serial, with chain-walk paths: the
/// oracle that involves no rewrite and no structural index.
std::string NestedOutput(const engine::Engine& e, const Kind& k) {
  engine::CompiledQuery q = e.Compile(k.text, engine::PlanChoice::kManual);
  return e.Run(q.best.plan, engine::ExecMode::kStreaming,
               engine::PathMode::kScan)
      .output;
}

/// Output of `plan` run serially with chain-walk paths and no budget.
std::string SerialScanOutput(const engine::Engine& e,
                             const nal::AlgebraPtr& plan) {
  return e.Run(plan, engine::ExecMode::kStreaming, engine::PathMode::kScan)
      .output;
}

/// The plan the workload serves for a kind at full size: which of the
/// enumerated alternatives, and its rewrite rule.
struct Chosen {
  size_t index = 0;
  size_t alternatives = 0;
  std::string rule;
};

/// Runs, on the reduced twin corpus of the same seed, the alternative that
/// the full corpus chose for each kind, and compares it with the nested
/// plan. The alternatives are enumerated from the query and the DTDs alone,
/// so the twin lists them in the same order; a list that differs counts as
/// a mismatch. Returns the number of kinds that differ.
int TwinCheck(const Workload& w, unsigned seed,
              const std::map<const Kind*, Chosen>& chosen) {
  engine::Engine e;
  std::vector<Doc> docs;
  for (const DocSpec& d : w.docs) {
    docs.push_back({&d, d.generate(d.twin_size, seed)});
  }
  LoadDocs(e, docs);
  int mismatches = 0;
  for (const Kind* k : w.cycle) {
    const Chosen& full = chosen.at(k);
    engine::CompiledQuery q = e.Compile(k->text, w.choice, CompileBudget(w));
    const bool same_plan = q.alternatives.size() == full.alternatives &&
                           q.alternatives[full.index].rule == full.rule;
    if (!same_plan ||
        SerialScanOutput(e, q.alternatives[full.index].plan) !=
            NestedOutput(e, *k)) {
      std::fprintf(stderr, "twin check: %s (%s) differs from the nested plan\n",
                   k->name, full.rule.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

int Prep(const Workload& w, unsigned seed, const fs::path& dir) {
  fs::create_directories(dir / "docs");
  std::vector<Doc> docs;
  for (const DocSpec& d : w.docs) {
    docs.push_back({&d, d.generate(d.size, seed)});
    WriteFile(dir / "docs" / d.name, docs.back().text);
  }
  engine::Engine e;
  LoadDocs(e, docs);
  std::ostringstream out;
  std::map<const Kind*, Chosen> chosen;
  for (const Kind* k : w.cycle) {
    // With a twin, the plan the workload chooses at full size (compiled
    // with its budget, run serially with chain-walk paths and no budget)
    // gives the full-size bytes; the twin check ties that plan to the
    // nested one. Without, the nested plan does.
    std::string want;
    if (w.twin) {
      engine::CompiledQuery q = e.Compile(k->text, w.choice, CompileBudget(w));
      chosen[k] = {q.cost_choice, q.alternatives.size(), q.best.rule};
      want = SerialScanOutput(e, q.best.plan);
    } else {
      want = NestedOutput(e, *k);
    }
    out << "expect " << k->name << ' ' << want.size() << ' ' << Digest(want)
        << '\n';
  }
  if (w.twin) {
    out << "twin " << w.cycle.size() << ' ' << TwinCheck(w, seed, chosen)
        << '\n';
  }
  if (w.service) e.PersistStore((dir / "store").string());
  WriteFile(dir / "prep.txt", out.str());
  return 0;
}

Prepared LoadPrepared(const fs::path& dir) {
  Prepared p;
  std::istringstream in(ReadFile(dir / "prep.txt"));
  std::string tag;
  while (in >> tag) {
    if (tag == "expect") {
      std::string name;
      Expected e;
      in >> name >> e.bytes >> e.digest;
      p.expected[name] = e;
    } else if (tag == "twin") {
      in >> p.twin_checks >> p.twin_mismatches;
    }
  }
  return p;
}

// ---- closed loop ----------------------------------------------------------

/// Deterministic per-kind counters of one verified response.
struct KindPrint {
  bool seen = false;
  std::string rule;
  uint64_t output_bytes = 0;
  nal::EvalStats stats;
};

struct LoopResult {
  /// Latency of every attempted request, ascending: as measured, and at
  /// the host speed kReferenceMs stands for.
  std::vector<double> ms, scaled_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double window_s = 0;
  /// Verified responses per second, summed over clients, each client's
  /// time without its waits at the cycle barrier: as measured, and at the
  /// reference host speed.
  double qps = 0, scaled_qps = 0;
  std::vector<double> reference_ms;  ///< one per cycle
  std::map<const Kind*, KindPrint> prints;
  std::map<const Kind*, std::vector<double>> kind_ms;
};

using ServeFn = std::function<Reply(const Kind&)>;

/// Cycles on each side whose reference times are pooled into one cycle's
/// scale, so the scale follows the host's speed over a few seconds without
/// taking on the noise of a single reference run.
constexpr size_t kReferenceNeighbours = 2;

/// `clients` callers each issue whole request cycles back to back, each
/// waiting for its reply, until `seconds` have passed. Client c starts its
/// cycle c/clients of the way in, so concurrent clients run different
/// kinds. Every reply is checked against the prepared digests.
///
/// Before each cycle all clients meet at a barrier, and the reference runs
/// on `busy_threads` threads, as many as the workload keeps busy, while
/// every client waits there. No library work runs beside it, so the
/// reference time cannot depend on the program under test. A cycle's
/// latencies and serving time are scaled by kReferenceMs over the median
/// reference time of the cycles around it.
LoopResult ClosedLoop(const Workload& w, unsigned clients,
                      unsigned busy_threads, double seconds,
                      const Prepared& prep, const ServeFn& serve) {
  struct Sample {
    size_t cycle;
    double ms;  ///< INFINITY when the reply failed the check
  };
  struct ClientLog {
    std::vector<Sample> samples;
    std::vector<double> cycle_ms;  ///< wall time of each cycle
    uint64_t attempted = 0, failed = 0;
    std::map<const Kind*, KindPrint> prints;
  };
  LoopResult res;
  std::vector<ClientLog> logs(clients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  bool stop = false;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), [&]() noexcept {
    stop = Clock::now() >= deadline;
    if (!stop) res.reference_ms.push_back(ParallelReferenceMs(busy_threads));
  });
  auto client = [&](unsigned c) {
    ClientLog& log = logs[c];
    const size_t n = w.cycle.size();
    const size_t offset = c * n / clients;
    for (size_t cycle = 0;; ++cycle) {
      sync.arrive_and_wait();
      if (stop) break;
      const auto cycle_start = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        const Kind& k = *w.cycle[(offset + i) % n];
        Reply r = serve(k);
        ++log.attempted;
        log.samples.push_back({cycle, r.ms});
        if (!Matches(prep, k, r)) {
          ++log.failed;
          log.samples.back().ms = INFINITY;
          continue;
        }
        KindPrint& p = log.prints[&k];
        if (!p.seen) p = {true, r.rule, r.output.size(), r.stats};
      }
      log.cycle_ms.push_back(SecondsSince(cycle_start) * 1e3);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  res.window_s = SecondsSince(start);

  const std::vector<double>& ref = res.reference_ms;
  std::vector<double> scale(ref.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    const size_t lo = i >= kReferenceNeighbours ? i - kReferenceNeighbours : 0;
    const size_t hi = std::min(ref.size(), i + kReferenceNeighbours + 1);
    scale[i] = kReferenceMs /
               Median(std::vector<double>(ref.begin() + lo, ref.begin() + hi));
  }
  const double failed_ms = res.window_s * 1e3;  // misses any limit
  for (unsigned c = 0; c < clients; ++c) {
    const ClientLog& log = logs[c];
    double serving_ms = 0, scaled_serving_ms = 0;
    for (size_t i = 0; i < log.cycle_ms.size(); ++i) {
      serving_ms += log.cycle_ms[i];
      scaled_serving_ms += log.cycle_ms[i] * scale[i];
    }
    const double verified = static_cast<double>(log.attempted - log.failed);
    res.qps += verified * 1e3 / serving_ms;
    res.scaled_qps += verified * 1e3 / scaled_serving_ms;
    res.attempted += log.attempted;
    res.failed += log.failed;
    const size_t n = w.cycle.size();
    const size_t offset = c * n / clients;
    for (size_t i = 0; i < log.samples.size(); ++i) {
      const Sample& smp = log.samples[i];
      const bool ok = std::isfinite(smp.ms);
      res.ms.push_back(ok ? smp.ms : failed_ms);
      res.scaled_ms.push_back(ok ? smp.ms * scale[smp.cycle] : failed_ms);
      if (ok) res.kind_ms[w.cycle[(offset + i) % n]].push_back(smp.ms);
    }
    for (const auto& [k, p] : log.prints) {
      if (!res.prints[k].seen) res.prints[k] = p;
    }
  }
  std::sort(res.ms.begin(), res.ms.end());
  std::sort(res.scaled_ms.begin(), res.scaled_ms.end());
  return res;
}

/// Median latency per kind, for reading which kind moved.
std::string KindLatencies(const LoopResult& r) {
  JsonObject kinds;
  for (const auto& [k, v] : r.kind_ms) kinds.Num(k->name, Median(v));
  return JsonObject().Raw("kind_p50_ms", kinds.str()).str();
}


/// The deterministic fingerprint: per kind the chosen rule, output bytes,
/// EvalStats work counters and whether it spilled.
std::string Fingerprint(const Workload& w, unsigned seed, Served& s,
                        const LoopResult& loop) {
  JsonObject kinds;
  size_t spilled = 0;
  const std::vector<const Kind*>& kinds_list = w.cycle;
  for (const Kind* k : kinds_list) {
    KindPrint p = loop.prints.count(k) ? loop.prints.at(k) : KindPrint{};
    if (w.service) {
      // The service compiles with its global budget; the same public call
      // names the plan its cache holds.
      p.rule =
          s.engine->Compile(k->text, w.choice, kServiceBudgetBytes).best.rule;
    }
    const nal::EvalStats& st = p.stats;
    spilled += st.spill.any() ? 1 : 0;
    kinds.Raw(k->name, JsonObject()
                           .Str("rule", p.rule)
                           .Num("output_bytes", p.output_bytes)
                           .Num("tuples_produced", st.tuples_produced)
                           .Num("nested_alg_evals", st.nested_alg_evals)
                           .Num("predicate_evals", st.predicate_evals)
                           .Num("doc_scans", st.doc_scans)
                           .Num("xpath_steps", st.xpath.steps_evaluated)
                           .Num("xpath_nodes", st.xpath.nodes_visited)
                           .Num("index_lookups", st.xpath.index_lookups)
                           .Num("index_hits", st.xpath.index_hits)
                           .Num("spilled", st.spill.any() ? 1 : 0)
                           .str());
  }
  return JsonObject()
      .Raw("fingerprint",
           JsonObject()
               .Str("workload", w.name)
               .Num("seed", seed)
               .Raw("kinds", kinds.str())
               .Num("spilled_query_share",
                    static_cast<double>(spilled) / kinds_list.size())
               .str())
      .str();
}

// ---- tracing --------------------------------------------------------------

/// In-memory spans around the calls into each layer. Spans of one request
/// share its id; `parent` is the index of the enclosing span or -1.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t request;
    int parent;
    double begin_us, end_us;
  };

  int Begin(const char* name, uint64_t request, int parent) {
    double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, request, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_us = now;
  }
  /// A span whose interval was measured elsewhere.
  int Add(const char* name, uint64_t request, int parent, double begin_us,
          double end_us) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, request, parent, begin_us, end_us});
    return static_cast<int>(spans_.size() - 1);
  }
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  /// Mean duration in µs of the spans named `name` (0 if none).
  double MeanUs(const char* name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double us = 0;
    size_t n = 0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        us += s.end_us - s.begin_us;
        ++n;
      }
    }
    return n == 0 ? 0 : us / static_cast<double>(n);
  }
  /// Chrome trace_event JSON; one track per request.
  std::string ChromeJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name,
                    static_cast<unsigned long long>(s.request), s.begin_us,
                    s.end_us - s.begin_us, s.parent);
      out += buf;
    }
    return out + "]}";
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer counters summed over traced requests.
struct LayerAcc {
  std::mutex mu;
  uint64_t requests = 0;
  nal::EvalStats stats;
  nal::StreamStats exec;  ///< sums, except peak_buffered/exchange_dop (max)
  uint64_t output_bytes = 0;
  uint64_t alternatives = 0;
  uint64_t spilled = 0;
  double cpu_s = 0, wall_s = 0;
  std::map<std::string, double> op_self_ms;
  double log_qerror = 0;
  // Service requests.
  uint64_t service_requests = 0, cache_hits = 0, degraded = 0;
  double queue_ms = 0, run_ms = 0, overhead_ms = 0;

  void AddRun(const engine::RunResult& r, double est_rows, size_t alts,
              double cpu, double wall) {
    std::lock_guard<std::mutex> lock(mu);
    ++requests;
    stats += r.stats;
    spilled += r.stats.spill.any() ? 1 : 0;
    exec.exchange_chunks += r.exec.exchange_chunks;
    exec.shared_probe_breakers += r.exec.shared_probe_breakers;
    exec.gamma_partitions += r.exec.gamma_partitions;
    exec.peak_buffered = std::max(exec.peak_buffered, r.exec.peak_buffered);
    exec.exchange_dop = std::max(exec.exchange_dop, r.exec.exchange_dop);
    output_bytes += r.output.size();
    alternatives += alts;
    cpu_s += cpu;
    wall_s += wall;
    AddSelf(r.profile.root);
    double actual = std::max(1.0, static_cast<double>(r.root_tuples));
    double est = std::max(1.0, est_rows);
    log_qerror += std::fabs(std::log(est / actual));
  }
  void AddSelf(const obs::ProfileNode& n) {
    double child_ns = 0;
    for (const obs::ProfileNode& c : n.children) {
      child_ns += static_cast<double>(c.metrics.wall_ns);
      AddSelf(c);
    }
    op_self_ms[n.op] +=
        std::max(0.0, static_cast<double>(n.metrics.wall_ns) - child_ns) * 1e-6;
  }
};

/// Engine::Compile's stages called one by one, each under its own span.
struct LayeredPlan {
  rewrite::Alternative best;
  double est_rows = 0;
  size_t alternatives = 0;
};

LayeredPlan LayeredCompile(const engine::Engine& e, const Kind& k,
                           engine::PlanChoice choice, uint64_t budget,
                           Tracer& tr, uint64_t req, int parent) {
  int span = tr.Begin("compile", req, parent);
  int s = tr.Begin("xquery.parse", req, span);
  xquery::AstPtr ast = xquery::ParseQuery(k.text);
  tr.End(s);
  s = tr.Begin("xquery.normalize", req, span);
  xquery::AstPtr normalized = xquery::Normalize(ast);
  tr.End(s);
  s = tr.Begin("xquery.translate", req, span);
  nal::AlgebraPtr nested = xquery::Translate(normalized, &e.dtds());
  tr.End(s);
  s = tr.Begin("rewrite.enumerate", req, span);
  rewrite::Unnester unnester(&e.dtds());
  std::vector<rewrite::Alternative> alts = unnester.AllAlternatives(nested);
  tr.End(s);
  s = tr.Begin("opt.choose", req, span);
  opt::ChooseOptions options;
  options.memory_budget_bytes = budget;
  opt::Choice chosen;
  {
    xml::StoreReadLease lease(e.store());
    chosen = opt::ChoosePlan(e.store(), alts, options);
  }
  tr.End(s);
  tr.End(span);
  size_t index = choice == engine::PlanChoice::kManual ? 0 : chosen.index;
  return {alts[index], chosen.estimates[index].rows, alts.size()};
}

/// Runs `plan` with the per-operator profile on, under an "execute" span,
/// and adds the run to `acc`.
engine::RunResult ProfiledRun(const engine::Engine& e, const LayeredPlan& plan,
                              engine::ExecMode mode, unsigned threads,
                              uint64_t budget, Tracer& tr, uint64_t req,
                              int parent, LayerAcc& acc) {
  engine::RunInstrumentation instr;
  instr.profile = true;
  int span = tr.Begin("execute", req, parent);
  double cpu = CpuSeconds();
  auto wall = Clock::now();
  engine::RunResult r = e.Run(plan.best.plan, mode, engine::PathMode::kIndexed,
                              threads, budget, 0, nullptr, &instr);
  double wall_s = SecondsSince(wall);
  cpu = CpuSeconds() - cpu;
  tr.End(span);
  acc.AddRun(r, plan.est_rows, plan.alternatives, cpu, wall_s);
  return r;
}

/// A text-workload request through the layered calls, profiled.
Reply TracedRequest(const Workload& w, Served& s, const Kind& k, Tracer& tr,
                    LayerAcc& acc, uint64_t req) {
  Reply rep;
  double begin = tr.Now();
  int root = tr.Begin("request", req, -1);
  try {
    LayeredPlan plan =
        LayeredCompile(*s.engine, k, w.choice, 0, tr, req, root);
    engine::RunResult r = ProfiledRun(*s.engine, plan,
                                      engine::ExecMode::kStreaming, 0, 0, tr,
                                      req, root, acc);
    rep.ok = true;
    rep.output = std::move(r.output);
    rep.stats = r.stats;
    rep.rule = plan.best.rule;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %s failed: %s\n", k.name, e.what());
  }
  tr.End(root);
  rep.ms = (tr.Now() - begin) * 1e-3;
  return rep;
}

/// What the service granted a kind: the probe reruns its plan with it.
struct Grant {
  unsigned threads = 0;
  uint64_t budget = 0;
};

/// A service request with profiling on; the queue and run intervals the
/// service reports become child spans.
Reply TracedServiceRequest(Served& s, const Kind& k, Tracer& tr,
                           LayerAcc& acc, uint64_t req,
                           std::map<const Kind*, Grant>* grants) {
  Reply rep;
  double begin = tr.Now();
  service::QueryResult r = s.svc->Execute(k.text, ServiceQuery(true));
  double end = tr.Now();
  rep.ms = (end - begin) * 1e-3;
  {
    std::lock_guard<std::mutex> lock(acc.mu);
    ++acc.service_requests;
    acc.cache_hits += r.cache_hit ? 1 : 0;
    acc.degraded += r.degraded ? 1 : 0;
    acc.queue_ms += r.queue_seconds * 1e3;
    acc.run_ms += r.run_seconds * 1e3;
    acc.overhead_ms +=
        std::max(0.0, rep.ms - (r.queue_seconds + r.run_seconds) * 1e3);
    grants->emplace(&k, Grant{r.threads_granted, r.budget_granted});
  }
  int root = tr.Add("request", req, -1, begin, end);
  tr.Add("service.queue", req, root, begin, begin + r.queue_seconds * 1e6);
  tr.Add("service.run", req, root, end - r.run_seconds * 1e6, end);
  rep.ok = r.ok;
  rep.output = std::move(r.output);
  rep.stats = r.stats;
  return rep;
}

// ---- runs -----------------------------------------------------------------

struct Args {
  std::string command, workload, dir, trace_file;
  unsigned seed = 1;
  double seconds = 10;
  int trace = 0;
};

/// Metrics of the result line, each with its unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    json_.Raw(name, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  std::string str() const { return json_.str(); }

 private:
  JsonObject json_;
};

/// A prepared workload in the run process.
struct Context {
  const Workload& w;
  const Args& args;
  Prepared prep;
  std::vector<Doc> docs;  ///< corpus text
  std::string store_dir;  ///< persisted store; service workload only
  unsigned clients;
  unsigned busy_threads;  ///< clients x threads per query
};

std::string ConfigLine(const Workload& w, unsigned seed) {
  JsonObject sizes;
  for (const DocSpec& d : w.docs) sizes.Num(d.name, d.size);
  JsonObject c;
  c.Str("workload", w.name).Num("seed", seed).Raw("documents", sizes.str());
  c.Str("plan_choice", w.choice == engine::PlanChoice::kManual
                           ? "nested (kManual)"
                           : "cost");
  if (w.service) {
    c.Num("budget_bytes", kServiceBudgetBytes)
        .Num("clients", kServiceClients)
        .Num("max_concurrent", kServiceMaxConcurrent)
        .Num("dop", kServiceThreadsPerQuery)
        .Str("executor", "parallel");
  } else {
    c.Num("budget_bytes", 0).Num("clients", 1).Num("dop", 1);
    c.Str("executor", "streaming");
  }
  c.Str("build_type", PERFBENCH_BUILD_TYPE)
      .Num("nproc", std::thread::hardware_concurrency());
  return JsonObject().Raw("config", c.str()).str();
}

/// The end-to-end run (--trace 0). Returns {attempted, failed}.
std::pair<uint64_t, uint64_t> EndToEnd(const Context& c, Metrics& m) {
  const Workload& w = c.w;
  // Times are scaled to the host speed kReferenceMs stands for: set-up
  // times each by the ReferenceMs() run just before it, the loop's per
  // cycle (ClosedLoop). The unscaled figures go on their own line.
  std::vector<double> setups, scaled_setups;
  auto timed_setup = [&] {
    double reference_ms = ReferenceMs();
    auto t0 = Clock::now();
    std::unique_ptr<Served> s = Setup(w, c.docs, c.store_dir);
    setups.push_back(SecondsSince(t0));
    scaled_setups.push_back(setups.back() * kReferenceMs / reference_ms);
    return s;
  };
  std::unique_ptr<Served> served = timed_setup();
  LoopResult loop =
      ClosedLoop(w, c.clients, c.busy_threads, c.args.seconds, c.prep,
                 [&](const Kind& k) { return Serve(w, *served, k); });
  std::printf("%s\n", Fingerprint(w, c.args.seed, *served, loop).c_str());
  std::printf("%s\n", KindLatencies(loop).c_str());

  // The other fresh set-ups run after the loop, so their heap churn cannot
  // change the memory the loop ran on. At least kSetupRepeats, more while
  // kSetupSeconds have not passed: cheap set-ups still get many samples.
  served.reset();
  auto start = Clock::now();
  while (setups.size() < kSetupRepeats ||
         (SecondsSince(start) < kSetupSeconds &&
          setups.size() < 4 * kSetupRepeats)) {
    timed_setup();
  }
  JsonObject unscaled;
  unscaled.Num("reference_ms", Median(loop.reference_ms))
      .Num("setup_s", Median(setups))
      .Num("throughput_qps", loop.qps)
      .Num("latency_p50_ms", Percentile(loop.ms, 0.5))
      .Num("latency_p90_ms", Percentile(loop.ms, 0.9));
  std::printf("%s\n",
              JsonObject().Raw("unscaled", unscaled.str()).str().c_str());
  m.Add("setup_s", Median(scaled_setups), "s");
  m.Add("throughput_qps", loop.scaled_qps, "1/s");
  m.Add("latency_p50_ms", Percentile(loop.scaled_ms, 0.5), "ms");
  m.Add("latency_p90_ms", Percentile(loop.scaled_ms, 0.9), "ms");
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  return {loop.attempted, loop.failed};
}

double Share(double num, double den) { return den > 0 ? num / den : 0; }

/// xml layer on fresh engines from the corpus text: store build, and the
/// lazy index/statistics build as first minus warm Compile over the kinds.
/// Medians of three. (The service's persisted store is built from the same
/// text at prep time.)
void XmlProbe(const Context& c, Metrics& m) {
  std::vector<double> parse_build, index_stats;
  for (int i = 0; i < 3; ++i) {
    engine::Engine e;
    auto t0 = Clock::now();
    for (const Doc& d : c.docs) e.AddDocument(d.spec->name, d.text);
    parse_build.push_back(SecondsSince(t0));
    for (const Doc& d : c.docs) e.RegisterDtd(d.spec->name, d.spec->dtd);
    double first_minus_warm = 0;
    for (const Kind* k : c.w.cycle) {
      auto t1 = Clock::now();
      e.Compile(k->text, c.w.choice);
      double first = SecondsSince(t1);
      t1 = Clock::now();
      e.Compile(k->text, c.w.choice);
      first_minus_warm += first - SecondsSince(t1);
    }
    index_stats.push_back(first_minus_warm);
  }
  m.Add("xml.parse_build_s", Median(parse_build), "s");
  m.Add("xml.index_stats_s", Median(index_stats), "s");
}

/// storage layer: warm attach (median of five) and lazy page-in (first
/// minus warm Execute over the kinds) of the persisted store.
void StorageProbe(const Context& c, Metrics& m) {
  double attach_s = 0, page_in_s = 0, persisted = 0, resident = 0;
  if (c.w.service) {
    std::vector<double> attach;
    for (int i = 0; i < 5; ++i) {
      engine::Engine e;
      auto t0 = Clock::now();
      e.AttachStore(c.store_dir);
      attach.push_back(SecondsSince(t0));
    }
    attach_s = Median(attach);
    engine::Engine e;
    service::QueryService svc(e, ServiceOptionsFor(c.store_dir));
    for (const Kind* k : c.w.cycle) {
      auto t0 = Clock::now();
      svc.Execute(k->text, ServiceQuery());
      double first = SecondsSince(t0);
      t0 = Clock::now();
      svc.Execute(k->text, ServiceQuery());
      page_in_s += first - SecondsSince(t0);
    }
    for (const auto& f : fs::recursive_directory_iterator(c.store_dir)) {
      if (f.is_regular_file()) persisted += static_cast<double>(f.file_size());
    }
    resident = static_cast<double>(e.store().source()->resident_bytes());
  }
  m.Add("storage.attach_s", attach_s, "s");
  m.Add("storage.page_in_s", page_in_s, "s");
  m.Add("storage.persisted_bytes", persisted, "bytes");
  m.Add("storage.resident_bytes", resident, "bytes");
}

/// The traced run (--trace 1). Returns {attempted, failed}.
std::pair<uint64_t, uint64_t> Traced(const Context& c, Metrics& m) {
  const Workload& w = c.w;
  std::unique_ptr<Served> served = Setup(w, c.docs, c.store_dir);
  Served& s = *served;
  Tracer tr;
  LayerAcc acc;
  std::atomic<uint64_t> next_req{0};
  std::map<const Kind*, Grant> grants;
  auto plain = [&](const Kind& k) { return Serve(w, s, k); };
  auto traced = [&](const Kind& k) {
    uint64_t req = next_req++;
    return w.service ? TracedServiceRequest(s, k, tr, acc, req, &grants)
                     : TracedRequest(w, s, k, tr, acc, req);
  };
  // Untraced and traced windows alternate, a quarter of the run each, so
  // their throughput ratio (the tracing overhead) is not skewed by drift
  // or warm-up.
  LoopResult first_off;
  double qps_off = 0, qps_on = 0;
  uint64_t attempted = 0, failed = 0;
  for (int round = 0; round < 2; ++round) {
    const double quarter = c.args.seconds / 4;
    LoopResult off =
        ClosedLoop(w, c.clients, c.busy_threads, quarter, c.prep, plain);
    LoopResult on =
        ClosedLoop(w, c.clients, c.busy_threads, quarter, c.prep, traced);
    qps_off += off.scaled_qps / 2;
    qps_on += on.scaled_qps / 2;
    attempted += off.attempted + on.attempted;
    failed += off.failed + on.failed;
    if (round == 0) first_off = std::move(off);
  }

  // The service's requests only expose service-level figures, so its
  // compile and executor layers are probed by issuing each kind's plan
  // through the layered calls with the grant the service gave it.
  LayerAcc probe;
  LayerAcc& layers = w.service ? probe : acc;
  for (int rep = 0; w.service && rep < 3; ++rep) {
    for (const Kind* k : w.cycle) {
      uint64_t req = next_req++;
      int root = tr.Begin("probe", req, -1);
      LayeredPlan plan = LayeredCompile(*s.engine, *k, w.choice,
                                        kServiceBudgetBytes, tr, req, root);
      const Grant& g = grants[k];
      ProfiledRun(*s.engine, plan, engine::ExecMode::kParallel, g.threads,
                  g.budget, tr, req, root, probe);
      tr.End(root);
    }
  }

  // Counters are reported per request cycle.
  const double cycles = static_cast<double>(layers.requests) /
                        static_cast<double>(w.cycle.size());
  auto per_cycle = [cycles](double v) { return Share(v, cycles); };
  const nal::EvalStats& st = layers.stats;
  XmlProbe(c, m);
  m.Add("xml.xpath_nodes", per_cycle(st.xpath.nodes_visited), "count");
  m.Add("xml.index_hit_ratio",
        Share(st.xpath.index_hits, st.xpath.index_lookups), "ratio");
  m.Add("xquery.parse_us", tr.MeanUs("xquery.parse"), "us");
  m.Add("xquery.normalize_us", tr.MeanUs("xquery.normalize"), "us");
  m.Add("xquery.translate_us", tr.MeanUs("xquery.translate"), "us");
  m.Add("rewrite.enumerate_us", tr.MeanUs("rewrite.enumerate"), "us");
  m.Add("rewrite.alternatives", per_cycle(layers.alternatives), "count");
  m.Add("opt.choose_us", tr.MeanUs("opt.choose"), "us");
  m.Add("opt.root_qerror",
        std::exp(Share(layers.log_qerror, layers.requests)), "ratio");
  size_t unnested = 0;
  for (const Kind* k : w.cycle) {
    uint64_t budget = w.service ? kServiceBudgetBytes : 0;
    unnested += s.engine->Compile(k->text, w.choice, budget).best.rule !=
                "nested";
  }
  m.Add("opt.unnested_kinds", unnested, "count");
  m.Add("engine.compile_ms", tr.MeanUs("compile") * 1e-3, "ms");
  m.Add("engine.execute_ms", tr.MeanUs("execute") * 1e-3, "ms");
  m.Add("nal.tuples_produced", per_cycle(st.tuples_produced), "count");
  m.Add("nal.nested_alg_evals", per_cycle(st.nested_alg_evals), "count");
  m.Add("nal.predicate_evals", per_cycle(st.predicate_evals), "count");
  m.Add("nal.doc_scans", per_cycle(st.doc_scans), "count");
  m.Add("nal.peak_buffered", layers.exec.peak_buffered, "count");
  m.Add("nal.output_bytes", per_cycle(layers.output_bytes), "bytes");
  for (int op = 0; op <= static_cast<int>(nal::OpKind::kXiGroup); ++op) {
    std::string name(nal::OpKindName(static_cast<nal::OpKind>(op)));
    m.Add("nal.op_self_ms." + name, per_cycle(layers.op_self_ms[name]), "ms");
  }
  m.Add("exchange.cpu_per_wall", Share(layers.cpu_s, layers.wall_s), "ratio");
  m.Add("exchange.dop", layers.exec.exchange_dop, "count");
  m.Add("exchange.shared_probe_breakers",
        per_cycle(layers.exec.shared_probe_breakers), "count");
  m.Add("exchange.gamma_partitions", per_cycle(layers.exec.gamma_partitions),
        "count");
  m.Add("exchange.chunks", per_cycle(layers.exec.exchange_chunks), "count");
  m.Add("spool.spilled_bytes", per_cycle(st.spill.spilled_bytes), "bytes");
  m.Add("spool.spill_runs", per_cycle(st.spill.spill_runs), "count");
  m.Add("spool.spilled_query_share", Share(layers.spilled, layers.requests),
        "ratio");
  const double n = static_cast<double>(acc.service_requests);
  m.Add("service.queue_ms", Share(acc.queue_ms, n), "ms");
  m.Add("service.run_ms", Share(acc.run_ms, n), "ms");
  m.Add("service.overhead_ms", Share(acc.overhead_ms, n), "ms");
  m.Add("service.cache_hit_ratio", Share(acc.cache_hits, n), "ratio");
  m.Add("service.degraded_share", Share(acc.degraded, n), "ratio");
  m.Add("obs.trace_overhead_ratio", Share(qps_on, qps_off), "ratio");
  std::printf("%s\n", Fingerprint(w, c.args.seed, s, first_off).c_str());
  served.reset();
  StorageProbe(c, m);
  if (!c.args.trace_file.empty()) {
    WriteFile(c.args.trace_file, tr.ChromeJson());
  }
  return {attempted, failed};
}

int Run(const Workload& w, const Args& a) {
  const fs::path dir = a.dir;
  Context c{w, a, LoadPrepared(dir), {}, "", 1, 1};
  // The service serves its persisted store; its text is read only for the
  // traced run's xml probe, so it does not count in peak_rss_mb.
  for (const DocSpec& d : w.docs) {
    if (w.service && a.trace == 0) break;
    c.docs.push_back({&d, ReadFile(dir / "docs" / d.name)});
  }
  if (w.service) {
    c.store_dir = (dir / "store").string();
    c.clients = kServiceClients;
    c.busy_threads = kServiceClients * kServiceThreadsPerQuery;
  }
  std::printf("%s\n", ConfigLine(w, a.seed).c_str());
  Metrics m;
  auto [attempted, failed] = a.trace ? Traced(c, m) : EndToEnd(c, m);
  // Each twin comparison counts as a request, and a mismatch as a failure.
  attempted += static_cast<uint64_t>(c.prep.twin_checks);
  failed += static_cast<uint64_t>(c.prep.twin_mismatches);
  if (a.trace == 0) {
    m.Add("verified_share",
          static_cast<double>(attempted - failed) /
              static_cast<double>(attempted),
          "ratio");
  }
  const bool correct = failed == 0;
  std::printf("%s\n", JsonObject()
                          .Raw("correct", correct ? "true" : "false")
                          .Num("attempted", attempted)
                          .Num("failed", failed)
                          .Raw("metrics", m.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = static_cast<unsigned>(std::stoul(v));
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = std::stoi(v);
    else if (k == "--dir") a->dir = v;
    else if (k == "--trace-file") a->trace_file = v;
    else return false;
  }
  return (a->command == "prep" || a->command == "run") && !a->dir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace nalq::perfbench

int main(int argc, char** argv) {
  using namespace nalq::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s prep|run --workload W --seed N --dir D "
                 "[--seconds S] [--trace 0|1] [--trace-file F]\n",
                 argv[0]);
    return 2;
  }
  const Workload* w = FindWorkload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  // Engine knobs from the environment would change what is measured (a
  // budget that spills, a thread count, profiling); refuse them.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NALQ_", 5) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      return 2;
    }
  }
  try {
    return a.command == "prep" ? Prep(*w, a.seed, a.dir) : Run(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", a.command.c_str(), e.what());
    return 1;
  }
}
