// Experiment E2 — paper Sec. 5.2, Query 1.1.9.10 (aggregation).
//
// Plans {nested, grouping (Eqv. 3)} over prices.xml with 100/1000/10000
// book entries. The paper also mentions Eqv. 1/2 are applicable; we time
// those alternatives as well (they are absent from the paper's table).
#include <cstdio>

#include "bench_common.h"

namespace {

const char kQuery[] = R"(
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
      {"outer join", "eqv2-outerjoin"},
      {"nest-join", "eqv1-nestjoin"},
  };
  std::printf(
      "E2: Query 1.1.9.10 (min price per title), paper Sec. 5.2\n"
      "plans: nested (paper) | nested (engine) | grouping (Eqv.3) | "
      "outer join (Eqv.2) | "
      "nest-join (Eqv.1)\n");
  std::vector<bench::Row> rows;
  for (const auto& [label, rule] : plans) {
    bench::Row row;
    row.plan = label;
    double previous = 0;
    size_t previous_size = 0;
    for (size_t size : sizes) {
      engine::Engine engine;
      bench::LoadPrices(&engine, size);
      engine::CompiledQuery q = engine.Compile(kQuery);
      bench::RecordPlanEstimates(q, "E2", std::to_string(size), &engine);
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
      double s = bench::TimePlanRecorded(engine, plan, "E2", label,
                                         "", std::to_string(size));
      previous = s;
      previous_size = size;
      row.cells.push_back(bench::FormatSeconds(s));
    }
    rows.push_back(row);
  }
  bench::PrintTable("Evaluation time (books = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, rows);
  bench::WriteBenchResults();
  return 0;
}
