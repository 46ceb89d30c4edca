#include "perfcmp.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace subrec::perfcmp {
namespace {

const std::string kRepoRoot = SUBREC_PERFCMP_REPO_ROOT;

TEST(PerfcmpJson, ParsesEveryValueKind) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"( {"a": [1, -2.5e3, true, false, null], "s": "x\"\\\/\n\u00e9\ud83d\ude00",
           "o": {}} )",
      &v, &error))
      << error;
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2500.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(a->array[3].boolean);
  EXPECT_EQ(a->array[4].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("s")->string, "x\"\\/\n\xC3\xA9\xF0\x9F\x98\x80");
  EXPECT_EQ(v.Find("o")->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(PerfcmpJson, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "{\"a\":1,}", "tru", "\"open",
        "\"\\q\"", "1.", "-", "1e", "[1] 2", "\"\\ud800x\"", "1e999",
        "\"raw\ncontrol\""}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Nesting is bounded, so hostile input cannot exhaust the stack.
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(std::string(100000, '['), &v, &error));
}

TEST(PerfcmpStats, QuartilesInterpolateLinearly) {
  const Quartiles one = ComputeQuartiles({3.0});
  EXPECT_EQ(one.q1, 3.0);
  EXPECT_EQ(one.median, 3.0);
  EXPECT_EQ(one.q3, 3.0);
  const Quartiles q = ComputeQuartiles({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_EQ(q.q1, 2.0);
  EXPECT_EQ(q.median, 3.0);
  EXPECT_EQ(q.q3, 4.0);
  const Quartiles even = ComputeQuartiles({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(even.q1, 1.75);
  EXPECT_DOUBLE_EQ(even.median, 2.5);
  EXPECT_DOUBLE_EQ(even.q3, 3.25);
}

TEST(PerfcmpCompare, VerdictsFollowTheBoundAndTheDirection) {
  const std::vector<MetricSpec> specs = {
      {"reload_s", "s", false, 0.25},
      {"qps", "1/s", true, 0.25},
      {"peak_rss_mb", "MB", false, 0.1},
      {"serve.decode_s", "s", false, std::nullopt},
  };
  auto run = [](double reload, double qps, double rss, double decode) {
    return perfcmp::Run{"serve_scan.trace0",
                        true,
                        {{"reload_s", reload},
                         {"qps", qps},
                         {"peak_rss_mb", rss},
                         {"serve.decode_s", decode}}};
  };
  const std::vector<perfcmp::Run> parent = {
      run(2.0, 100, 100, 0.6), run(2.2, 110, 100, 0.6), run(1.8, 90, 100, 0.6)};
  const std::vector<perfcmp::Run> change = {
      run(0.3, 105, 115, 0.2), run(0.25, 100, 112, 0.2), run(0.28, 95, 111, 0.2)};
  const std::vector<MetricComparison> rows = Compare(specs, parent, change);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].spec.name, "reload_s");
  EXPECT_EQ(rows[0].verdict, Verdict::kBetter);
  EXPECT_EQ(rows[0].wins, 3);
  EXPECT_EQ(rows[0].pairs, 3);
  EXPECT_DOUBLE_EQ(rows[0].delta, (0.28 - 2.0) / 2.0);
  EXPECT_EQ(rows[1].verdict, Verdict::kSame);  // qps 100 -> 100
  EXPECT_EQ(rows[1].wins, 2);
  EXPECT_EQ(rows[2].verdict, Verdict::kWorse);  // +12% RSS past a 10% bound
  EXPECT_EQ(rows[3].verdict, Verdict::kUngated);
  const std::string table = FormatTable(rows);
  EXPECT_NE(table.find("| serve_scan.trace0 | peak_rss_mb | MB | lower |"),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("| WORSE |"), std::string::npos) << table;
}

TEST(PerfcmpCompare, CheckedInRecordShowsTheKnownVerdict) {
  // The 2026-10-18 record: the result cache's shard fix and the vector
  // gather took serve_ann_reload from ~33k to ~109k qps, and no bounded
  // metric got worse.
  std::ifstream file(kRepoRoot + "/BENCHMARK.json");
  ASSERT_TRUE(file.is_open());
  std::stringstream text;
  text << file.rdbuf();
  JsonValue benchmark;
  std::vector<MetricSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseJson(text.str(), &benchmark, &error)) << error;
  ASSERT_TRUE(LoadSpecs(benchmark, &specs, &error)) << error;
  EXPECT_EQ(specs.size(), 11u + 48u);

  const std::string record =
      kRepoRoot + "/bench/baselines/perfbench/2026-10-18";
  std::vector<perfcmp::Run> parent, change;
  ASSERT_TRUE(LoadRuns(record + "/parent", &parent, &error)) << error;
  ASSERT_TRUE(LoadRuns(record + "/change", &change, &error)) << error;
  EXPECT_EQ(parent.size(), 5u);
  EXPECT_EQ(change.size(), 5u);
  const std::vector<MetricComparison> rows = Compare(specs, parent, change);
  bool found = false;
  for (const MetricComparison& row : rows) {
    EXPECT_NE(row.verdict, Verdict::kWorse)
        << row.group << " " << row.spec.name;
    if (row.group == "serve_ann_reload.trace0" && row.spec.name == "qps") {
      found = true;
      EXPECT_EQ(row.verdict, Verdict::kBetter);
      EXPECT_GT(row.delta, 2.0);
    }
  }
  EXPECT_TRUE(found) << FormatTable(rows);
}

}  // namespace
}  // namespace subrec::perfcmp
