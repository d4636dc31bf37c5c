// Experiment E3 — paper Sec. 5.3, Query 1.1.9.5 (existential quantification).
//
// Plans {nested, semijoin (Eqv. 6)} over bib.xml + reviews.xml with
// 100/1000/10000 books/reviews.
#include <cstdio>

#include "bench_common.h"

namespace {

const char kQuery[] = R"(
  let $d1 := document("bib.xml")
  for $t1 in $d1//book/title
  where some $t2 in document("reviews.xml")//entry/title
        satisfies $t1 = $t2
  return
    <book-with-review>{ $t1 }</book-with-review>
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace nalq;
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"nested (paper)", bench::kPaperNested},
      {"nested (engine)", "nested"},
      {"semijoin", "eqv6-semijoin"},
  };
  std::printf(
      "E3: Query 1.1.9.5 (books with reviews), paper Sec. 5.3\n"
      "plans: nested (paper) | nested (engine) | semijoin (Eqv.6)\n");
  std::vector<bench::Row> rows;
  for (const auto& [label, rule] : plans) {
    bench::Row row;
    row.plan = label;
    double previous = 0;
    size_t previous_size = 0;
    for (size_t size : sizes) {
      engine::Engine engine;
      bench::LoadBibAndReviews(&engine, size);
      engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E3", std::to_string(size), &engine);
      nal::AlgebraPtr plan = bench::RowPlan(engine, q, rule);
      if (plan == nullptr) {
        row.cells.push_back("n/a");
        continue;
      }
      if (rule == bench::kPaperNested && size > 1000 && !full) {
        double ratio = static_cast<double>(size) /
                       static_cast<double>(previous_size);
        row.cells.push_back(bench::Extrapolated(previous * ratio * ratio));
        continue;
      }
      double s = bench::TimePlanRecorded(engine, plan, "E3", label,
                                         "", std::to_string(size));
      previous = s;
      previous_size = size;
      row.cells.push_back(bench::FormatSeconds(s));
    }
    rows.push_back(row);
  }
  bench::PrintTable("Evaluation time (books/reviews = 100 / 1000 / 10000)",
                    "", {"100", "1000", "10000"}, rows);
  bench::WriteBenchResults();
  return 0;
}
