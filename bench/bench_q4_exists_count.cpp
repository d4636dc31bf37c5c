// Experiment E4 — paper Sec. 5.4 (existential quantification II).
//
// Plans {nested, semijoin (Eqv. 6), grouping (Eqv. 8 / single scan)} over
// bib.xml with 100/1000/10000 books.
//
// Note on the third plan: the paper derives it "by Eqv. 8" although its e1
// carries both the book and the author attribute, so the equivalence's
// condition A(e1) = A1 does not hold literally (and the printed Ξ subscript
// reads a2 where only a1 is in scope — an apparent typo). We reproduce the
// *measured* plan — one scan of the document — by sharing the scan between
// the semijoin's two sides via a common-subexpression id, which is exactly
// the effect the paper attributes to the rewrite ("avoiding one scan of the
// input document"). See EXPERIMENTS.md.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace nalq;
using nal::CmpOp;
using nal::Symbol;

const char kQuery[] = R"(
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
)";

/// Builds the single-scan plan: the base scan (books × authors) is shared —
/// via a cse id — between the probe side and a counting Γ that marks books
/// with a "Suciu" author.
nal::AlgebraPtr BuildSingleScanPlan() {
  Symbol b1("b1");
  Symbol a1("a1");
  Symbol b2("b2");
  Symbol a2("a2");
  auto scan = nal::UnnestMap(
      a1, nal::MakePath(nal::MakeAttrRef(b1), xml::Path::Parse("author")),
      nal::UnnestMap(
          b1,
          nal::MakePath(nal::MakeFnCall("doc", {nal::MakeConst(
                                                   nal::Value("bib.xml"))}),
                        xml::Path::Parse("//book")),
          nal::Singleton()));
  scan->cse_id = 1;
  auto renamed = nal::ProjectRename({{b2, b1}, {a2, a1}}, scan);
  nal::AggSpec count = nal::AggCount();
  count.filter = nal::MakeFnCall(
      "contains", {nal::MakeAttrRef(a2), nal::MakeConst(nal::Value("Suciu"))});
  Symbol c("c_q4");
  auto gamma = nal::GroupUnary(c, CmpOp::kEq, {b2}, std::move(count), renamed);
  auto marked = nal::Select(
      nal::MakeCmp(CmpOp::kGt, nal::MakeAttrRef(c),
                   nal::MakeConst(nal::Value(int64_t{0}))),
      gamma);
  auto semi = nal::SemiJoin(
      nal::MakeCmp(CmpOp::kEq, nal::MakeAttrRef(b1), nal::MakeAttrRef(b2)),
      scan, marked);
  nal::XiProgram program = {nal::XiCommand::Literal("<book>"),
                            nal::XiCommand::Var(a1),
                            nal::XiCommand::Literal("</book>")};
  return nal::XiSimple(std::move(program), std::move(semi));
}

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::FullRuns(argc, argv);
  const std::vector<size_t> sizes = {100, 1000, 10000};
  std::printf(
      "E4: existential quantification via exists(), paper Sec. 5.4\n"
      "plans: nested (paper) | nested (engine) | semijoin (Eqv.6) | "
      "grouping (single scan, cf. Eqv.8)\n");
  std::vector<bench::Row> rows(4);
  rows[0].plan = "nested (paper)";
  rows[1].plan = "nested (engine)";
  rows[2].plan = "semijoin";
  rows[3].plan = "grouping";
  double previous = 0;
  size_t previous_size = 0;
  for (size_t size : sizes) {
    engine::Engine engine;
    bench::LoadBib(&engine, size, 2);
    engine::CompiledQuery q = engine.Compile(kQuery);
    bench::RecordPlanEstimates(q, "E4", std::to_string(size), &engine);
    // nested: the paper's translation (extrapolated above 1000) and the
    // engine's compiled plan (measured at every size)
    if (size > 1000 && !full) {
      double ratio =
          static_cast<double>(size) / static_cast<double>(previous_size);
      rows[0].cells.push_back(bench::Extrapolated(previous * ratio * ratio));
    } else {
      previous = bench::TimePlanRecorded(
          engine, bench::RowPlan(engine, q, bench::kPaperNested), "E4",
          rows[0].plan, "", std::to_string(size));
      previous_size = size;
      rows[0].cells.push_back(bench::FormatSeconds(previous));
    }
    rows[1].cells.push_back(bench::FormatSeconds(
        bench::TimePlanRecorded(engine, q.nested_plan, "E4", rows[1].plan,
                                "", std::to_string(size))));
    // semijoin
    const rewrite::Alternative* semi = q.Find("eqv6-semijoin");
    rows[2].cells.push_back(
        semi != nullptr
            ? bench::FormatSeconds(bench::TimePlanRecorded(
                  engine, semi->plan, "E4", "semijoin", "",
                  std::to_string(size)))
            : std::string("n/a"));
    // single-scan grouping
    nal::AlgebraPtr grouping = BuildSingleScanPlan();
    // Verify it agrees with the semijoin plan before timing.
    if (semi != nullptr) {
      std::string a = engine.Run(semi->plan).output;
      std::string b = engine.Run(grouping).output;
      if (a != b) {
        std::printf("WARNING: grouping plan output disagrees at size %zu\n",
                    size);
      }
    }
    rows[3].cells.push_back(bench::FormatSeconds(
        bench::TimePlanRecorded(engine, grouping, "E4", "grouping", "",
                                std::to_string(size))));
  }
  bench::PrintTable("Evaluation time (books = 100 / 1000 / 10000)", "",
                    {"100", "1000", "10000"}, rows);
  bench::WriteBenchResults();
  return 0;
}
