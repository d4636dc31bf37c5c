// Experiment E6 — paper Sec. 5.6, Query 1.4.4.14 (aggregation in the where
// clause / having).
//
// Plans {nested, grouping (Eqv. 3)} over bids.xml with 100/1000/10000 bids
// (items = bids / 5).
#include <cstdio>

#include "bench_common.h"

namespace {

const char kQuery[] = R"(
  let $d1 := document("bids.xml")
  for $i1 in distinct-values($d1//itemno)
  where count($d1//bidtuple[itemno = $i1]) >= 3
  return
    <popular-item>{ $i1 }</popular-item>
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace nalq;
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  const std::vector<std::pair<std::string, std::string>> plans = {
      {"nested (paper)", bench::kPaperNested},
      {"nested (engine)", "nested"},
      {"grouping", "eqv3-grouping"},
  };
  std::printf(
      "E6: Query 1.4.4.14 (items with >= 3 bids), paper Sec. 5.6\n"
      "plans: nested (paper) | nested (engine) | grouping (Eqv.3)\n");
  std::vector<bench::Row> rows;
  for (const auto& [label, rule] : plans) {
    bench::Row row;
    row.plan = label;
    double previous = 0;
    size_t previous_size = 0;
    for (size_t size : sizes) {
      engine::Engine engine;
      bench::LoadBids(&engine, size);
      engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E6", std::to_string(size), &engine);
      nal::AlgebraPtr plan = bench::RowPlan(engine, q, rule);
      if (plan == nullptr) {
        row.cells.push_back("n/a");
        continue;
      }
      if (rule == bench::kPaperNested && size > 1000 && !full) {
        double ratio = static_cast<double>(size) /
                       static_cast<double>(previous_size);
        // The outer loop is over distinct items (= bids/5), the inner scan
        // over bids: still ~quadratic overall.
        row.cells.push_back(bench::Extrapolated(previous * ratio * ratio));
        continue;
      }
      double s = bench::TimePlanRecorded(engine, plan, "E6", label,
                                         "", std::to_string(size));
      previous = s;
      previous_size = size;
      row.cells.push_back(bench::FormatSeconds(s));
    }
    rows.push_back(row);
  }
  bench::PrintTable("Evaluation time (bids = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, rows);
  bench::WriteBenchResults();
  return 0;
}
