// Workload definitions of the end-to-end benchmark: the query kinds, the
// generated corpora and the serving configuration of each workload.
//
// Every number here is part of the benchmark's contract: changing one
// changes what the committed baseline measured. perfbench/README.md explains
// why each workload exists and which layers it stresses.
#ifndef NALQ_PERFBENCH_WORKLOADS_H_
#define NALQ_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/datagen.h"
#include "engine/engine.h"

namespace nalq::perfbench {

/// One query kind: the paper's Sec. 5 queries Q1-Q6 plus E1b (Q1 over the
/// DBLP-like corpus, where Eqv. 5's side condition fails).
struct Kind {
  const char* name;
  const char* text;
};

inline const Kind kQ1{"Q1", R"(
  let $d1 := doc("bib.xml")
  for $a1 in distinct-values($d1//author)
  return
    <author>
      <name>{ $a1 }</name>
      {
        let $d2 := doc("bib.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title
      }
    </author>
)"};

inline const Kind kQ2{"Q2", R"(
  let $d1 := doc("prices.xml")
  for $t1 in distinct-values($d1//book/title)
  let $p1 := let $d2 := doc("prices.xml")
             for $b2 in $d2//book
             let $t2 := $b2/title
             let $p2 := $b2/price
             let $c2 := decimal($p2)
             where $t1 = $t2
             return $c2
  return
    <minprice title="{ $t1 }"><price>{ min($p1) }</price></minprice>
)"};

inline const Kind kQ3{"Q3", R"(
  let $d1 := document("bib.xml")
  for $t1 in $d1//book/title
  where some $t2 in document("reviews.xml")//entry/title
        satisfies $t1 = $t2
  return
    <book-with-review>{ $t1 }</book-with-review>
)"};

inline const Kind kQ4{"Q4", R"(
  let $d1 := doc("bib.xml")
  for $b1 in $d1//book,
      $a1 in $b1/author
  where exists(
    for $b2 in $d1//book
    for $a2 in $b2/author
    where contains($a2, "Suciu") and $b1 = $b2
    return $b2)
  return
    <book>{ $a1 }</book>
)"};

inline const Kind kQ5{"Q5", R"(
  let $d1 := doc("bib.xml")
  for $a1 in distinct-values($d1//author)
  where every $b2 in doc("bib.xml")//book[author = $a1]
        satisfies $b2/@year > 1993
  return
    <new-author>{ $a1 }</new-author>
)"};

inline const Kind kQ6{"Q6", R"(
  let $d1 := document("bids.xml")
  for $i1 in distinct-values($d1//itemno)
  where count($d1//bidtuple[itemno = $i1]) >= 3
  return
    <popular-item>{ $i1 }</popular-item>
)"};

inline const Kind kE1b{"E1b", R"(
  let $d1 := doc("dblp.xml")
  for $a1 in distinct-values($d1//author)
  return
    <author>
      <name>{ $a1 }</name>
      {
        let $d2 := doc("dblp.xml")
        for $b2 in $d2//book[$a1 = author]
        return $b2/title
      }
    </author>
)"};

/// One generated document: its store name, DTD, generator and sizes. The
/// twin size builds the reduced corpus on which the nested plan is cheap
/// enough to serve as the output oracle (see Prep in main.cpp).
struct DocSpec {
  const char* name;
  const char* dtd;
  std::string (*generate)(size_t size, unsigned seed);
  size_t size;
  size_t twin_size;
};

inline std::string GenBib(size_t books, unsigned seed) {
  datagen::BibOptions o;
  o.books = books;
  o.authors_per_book = 2;
  o.seed = seed;
  return datagen::GenerateBib(o);
}
inline std::string GenReviews(size_t n, unsigned seed) {
  return datagen::GenerateReviews(n, seed + 1);
}
inline std::string GenPrices(size_t n, unsigned seed) {
  return datagen::GeneratePrices(n, seed + 2);
}
inline std::string GenBids(size_t n, unsigned seed) {
  datagen::AuctionOptions o;
  o.bids = n;
  o.seed = seed + 3;
  return datagen::GenerateBids(o);
}
inline std::string GenDblp(size_t n, unsigned seed) {
  datagen::DblpOptions o;
  o.publications = n;
  o.seed = seed + 4;
  return datagen::GenerateDblp(o);
}

/// Serving configuration of the service-budgeted workload.
inline constexpr uint64_t kServiceBudgetBytes = 1u << 20;
inline constexpr unsigned kServiceClients = 2;
inline constexpr unsigned kServiceMaxConcurrent = 2;
inline constexpr unsigned kServiceThreadsPerQuery = 2;

/// Fresh set-ups per run: at least kSetupRepeats, more while kSetupSeconds
/// have not passed (up to 4x). setup_s reports their median, so the slower
/// first set-up of a process does not set the figure.
inline constexpr size_t kSetupRepeats = 11;
inline constexpr double kSetupSeconds = 1.0;

/// About the fastest time of ReferenceMs() (main.cpp) on the shared 4-core
/// Xeon host the benchmark was defined on. The e2e times are reported as if
/// the host ran ReferenceMs() in this time, which takes most of the load
/// from the host's other tenants out of them.
inline constexpr double kReferenceMs = 5.5;

/// The corpus of the unnested workloads: unnested-serial builds it from
/// text, service-budgeted serves it persisted. The twin sizes are 25x
/// smaller.
inline const std::vector<DocSpec> kFullCorpus = {
    {"bib.xml", datagen::kBibDtd, GenBib, 10000, 400},
    {"reviews.xml", datagen::kReviewsDtd, GenReviews, 10000, 400},
    {"prices.xml", datagen::kPricesDtd, GenPrices, 10000, 400},
    {"bids.xml", datagen::kBidsDtd, GenBids, 10000, 400},
    {"dblp.xml", datagen::kDblpDtd, GenDblp, 20000, 800}};

/// The corpus of nested-quantifier, small enough for the quadratic nested
/// plans.
inline const std::vector<DocSpec> kQuantifierCorpus = {
    {"bib.xml", datagen::kBibDtd, GenBib, 500, 0},
    {"reviews.xml", datagen::kReviewsDtd, GenReviews, 500, 0},
    {"bids.xml", datagen::kBidsDtd, GenBids, 500, 0}};

/// Every Sec. 5 query kind once: the cycle of the unnested workloads.
inline const std::vector<const Kind*> kAllKinds = {&kQ1, &kQ2, &kQ3, &kQ4,
                                                   &kQ5, &kQ6, &kE1b};

/// The quantifier queries: some, exists, every, count >= 3.
inline const std::vector<const Kind*> kQuantifierKinds = {&kQ3, &kQ4, &kQ5,
                                                          &kQ6};

struct Workload {
  const char* name;
  std::vector<DocSpec> docs;
  /// One request cycle, in issue order; every kind appears once. Clients
  /// run whole cycles only, so each kind is measured equally often.
  std::vector<const Kind*> cycle;
  engine::PlanChoice choice;
  /// Served through service::QueryService over a warm-attached persisted
  /// store instead of Engine::Compile + Engine::Run on a text-built store.
  bool service;
  /// Expected outputs of the full corpus come from the plan the workload
  /// chooses at full size, validated against the nested plan on the twin
  /// corpus (the nested plan is quadratic and too slow at full size).
  /// Without a twin the nested plan itself is the oracle.
  bool twin;
};

inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = {
      {"unnested-serial", kFullCorpus, kAllKinds, engine::PlanChoice::kCost,
       /*service=*/false, /*twin=*/true},
      {"nested-quantifier", kQuantifierCorpus, kQuantifierKinds,
       engine::PlanChoice::kManual, /*service=*/false, /*twin=*/false},
      {"service-budgeted", kFullCorpus, kAllKinds, engine::PlanChoice::kCost,
       /*service=*/true, /*twin=*/true},
  };
  return all;
}

/// The budget the workload compiles with: the service's global budget, so
/// the cost model sees what the service's own Compile sees.
inline uint64_t CompileBudget(const Workload& w) {
  return w.service ? kServiceBudgetBytes : 0;
}

inline const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace nalq::perfbench

#endif  // NALQ_PERFBENCH_WORKLOADS_H_
