// Experiment E5 — paper Sec. 5.5 (universal quantification).
//
// Plans {nested, anti-semijoin (Eqv. 7), grouping (Eqv. 9)} over bib.xml
// with 100/1000/10000 books.
#include <cstdio>

#include "bench_common.h"

namespace {

const char kQuery[] = R"(
  let $d1 := doc("bib.xml")
  for $a1 in distinct-values($d1//author)
  where every $b2 in doc("bib.xml")//book[author = $a1]
        satisfies $b2/@year > 1993
  return
    <new-author>{ $a1 }</new-author>
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace nalq;
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"nested (paper)", bench::kPaperNested},
      {"nested (engine)", "nested"},
      {"anti-semijoin", "eqv7-antijoin"},
      {"grouping", "eqv9-counting"},
  };
  std::printf(
      "E5: universal quantification (authors with all books after 1993), "
      "paper Sec. 5.5\n"
      "plans: nested (paper) | nested (engine) | anti-semijoin (Eqv.7) | "
      "grouping (Eqv.9)\n");
  std::vector<bench::Row> rows;
  std::vector<bench::Row> scan_rows;
  for (const auto& [label, rule] : plans) {
    bench::Row row;
    row.plan = label;
    bench::Row scan_row;
    scan_row.plan = label;
    double previous = 0;
    size_t previous_size = 0;
    for (size_t size : sizes) {
      engine::Engine engine;
      bench::LoadBib(&engine, size, 2);
      engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E5", std::to_string(size), &engine);
      nal::AlgebraPtr plan = bench::RowPlan(engine, q, rule);
      if (plan == nullptr) {
        row.cells.push_back("n/a");
        scan_row.cells.push_back("-");
        continue;
      }
      if (rule == bench::kPaperNested && size > 1000 && !full) {
        double ratio = static_cast<double>(size) /
                       static_cast<double>(previous_size);
        row.cells.push_back(bench::Extrapolated(previous * ratio * ratio));
        scan_row.cells.push_back("-");
        continue;
      }
      double s = bench::TimePlanRecorded(engine, plan, "E5", label,
                                         "", std::to_string(size));
      previous = s;
      previous_size = size;
      row.cells.push_back(bench::FormatSeconds(s));
      scan_row.cells.push_back(
          std::to_string(engine.Run(plan).stats.doc_scans));
    }
    rows.push_back(row);
    scan_rows.push_back(scan_row);
  }
  bench::PrintTable("Evaluation time (books = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, rows);
  bench::PrintTable(
      "Document scans (paper: unnested plans scan once or twice)", "",
      {"100", "1000", "10000"}, scan_rows);
  bench::WriteBenchResults();
  return 0;
}
