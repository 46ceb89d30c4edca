// perfcmp: per-metric A/B of perfbench result lines against BENCHMARK.json.
//
// Usage: perfcmp <BENCHMARK.json> <parent> <change>
//
// <parent> and <change> are result-line files or directories of *.jsonl
// files (the layout of bench/baselines/perfbench/<date>/<side>/). Runs are
// grouped by workload and tracing; within a group, run i of each side
// forms pair i. Prints a markdown table: each side's median and
// quartiles, the relative delta of the medians, the bound, the pair win
// count and a verdict. Exits 1 when a bounded metric is worse than its
// bound or a run failed its correctness checks, 2 on bad input.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfcmp.h"

namespace {

using namespace subrec::perfcmp;

int Fail(const std::string& message) {
  std::cerr << "perfcmp: " << message << std::endl;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: perfcmp <BENCHMARK.json> <parent> <change>"
              << std::endl;
    return 2;
  }
  std::ifstream benchmark_file(argv[1]);
  if (!benchmark_file.is_open())
    return Fail(std::string("cannot open ") + argv[1]);
  std::stringstream text;
  text << benchmark_file.rdbuf();
  JsonValue benchmark;
  std::vector<MetricSpec> specs;
  std::string error;
  if (!ParseJson(text.str(), &benchmark, &error))
    return Fail(std::string(argv[1]) + ": " + error);
  if (!LoadSpecs(benchmark, &specs, &error)) return Fail(error);

  std::vector<Run> parent, change;
  if (!LoadRuns(argv[2], &parent, &error) ||
      !LoadRuns(argv[3], &change, &error))
    return Fail(error);
  const std::vector<MetricComparison> rows = Compare(specs, parent, change);
  if (rows.empty()) return Fail("no workload has runs on both sides");
  std::cout << FormatTable(rows);

  int better = 0, same = 0, worse = 0, incorrect = 0;
  for (const MetricComparison& row : rows) {
    better += row.verdict == Verdict::kBetter;
    same += row.verdict == Verdict::kSame;
    worse += row.verdict == Verdict::kWorse;
  }
  for (const std::vector<Run>* side : {&parent, &change})
    for (const Run& run : *side) incorrect += !run.correct;
  std::cout << "\nperfcmp: " << parent.size() << " parent and "
            << change.size() << " change runs; bounded metrics: " << better
            << " better, " << same << " same, " << worse << " worse";
  if (incorrect > 0) std::cout << "; " << incorrect << " incorrect run(s)";
  std::cout << std::endl;
  return worse > 0 || incorrect > 0 ? 1 : 0;
}
