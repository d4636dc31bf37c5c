// Experiment E1 — paper Sec. 5.1, Query 1.1.9.4 (grouping).
//
// Reproduces the first evaluation table: plans {nested, outer join (Eqv. 4),
// grouping (Eqv. 5), group Ξ} over bib.xml with 100/1000/10000 books and
// 2/5/10 authors per book.
//
// The nested plan needs |author|+1 document scans and scales quadratically;
// by default its 10000-book cell is extrapolated from the measured
// 100/1000 cells (run with --full to measure it, as the paper did on its
// testbed — it spent 788..3195 s there).
#include <cstdio>

#include "bench_common.h"
#include "nal/printer.h"

namespace {

const char kQuery[] = R"(
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
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace nalq;
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  const std::vector<int> authors_per_book = {2, 5, 10};
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"nested (paper)", bench::kPaperNested},
      {"nested (engine)", "nested"},
      {"outer join", "eqv4-outerjoin"},
      {"grouping", "eqv5-grouping"},
      {"group Xi", "group-xi"},
  };

  std::printf(
      "E1: Query 1.1.9.4 (grouping books by author), paper Sec. 5.1\n"
      "plans: nested (paper) | nested (engine) | outer join (Eqv.4) | "
      "grouping (Eqv.5) | group Xi\n");

  std::vector<bench::Row> rows;
  std::vector<bench::Row> scan_rows;
  for (const auto& [label, rule] : plans) {
    for (int apb : authors_per_book) {
      bench::Row row;
      row.plan = label;
      row.parameter = std::to_string(apb);
      bench::Row scan_row = row;
      double previous = 0;
      size_t previous_size = 0;
      for (size_t size : sizes) {
        engine::Engine engine;
        bench::LoadBib(&engine, size, apb);
        engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E1", std::to_string(size), &engine);
        nal::AlgebraPtr plan = bench::RowPlan(engine, q, rule);
        if (plan == nullptr) {
          row.cells.push_back("n/a");
          continue;
        }
        bool measure = rule != bench::kPaperNested || size <= 1000 || full;
        if (!measure) {
          // Quadratic extrapolation from the previous size (the document
          // and the outer loop both grow 10x → ~100x).
          double ratio = static_cast<double>(size) /
                         static_cast<double>(previous_size);
          row.cells.push_back(bench::Extrapolated(previous * ratio * ratio));
          scan_row.cells.push_back("-");
          continue;
        }
        double s = bench::TimePlanRecorded(engine, plan, "E1", label,
                                           std::to_string(apb),
                                           std::to_string(size));
        previous = s;
        previous_size = size;
        row.cells.push_back(bench::FormatSeconds(s));
        engine::RunResult r = engine.Run(plan);
        scan_row.cells.push_back(std::to_string(r.stats.doc_scans));
      }
      rows.push_back(row);
      scan_rows.push_back(scan_row);
    }
  }
  bench::PrintTable("Evaluation time (books = 100 / 1000 / 10000)",
                    "authors/book", {"100", "1000", "10000"}, rows);
  bench::PrintTable(
      "Document scans per evaluation (paper: nested needs |author|+1 scans)",
      "authors/book", {"100", "1000", "10000"}, scan_rows);
  bench::WriteBenchResults();
  return 0;
}
