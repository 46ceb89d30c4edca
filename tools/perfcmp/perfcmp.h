#ifndef SUBREC_TOOLS_PERFCMP_PERFCMP_H_
#define SUBREC_TOOLS_PERFCMP_PERFCMP_H_

// perfcmp: compares perfbench result lines of a parent and a change side
// against the bounds in BENCHMARK.json. Standalone (no subrec library), so
// it carries its own minimal JSON reader.

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace subrec::perfcmp {

/// A parsed JSON value: null, bool, number, string, array or object.
/// Object members keep their document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Member `key` of an object; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one JSON document. On malformed input returns false and sets
/// `error` to the byte offset and what was expected there.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

/// One metric declared in BENCHMARK.json. End-to-end metrics carry a bound
/// (the largest relative move in the worse direction that is tolerated);
/// per-layer metrics carry none and are reported, never gated.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  std::optional<double> bound;
};

/// The end_to_end then per_layer metrics of a BENCHMARK.json document.
bool LoadSpecs(const JsonValue& benchmark, std::vector<MetricSpec>* out,
               std::string* error);

/// One perfbench run: its group ("<workload>.trace<0|1>") and metrics.
struct Run {
  std::string group;
  bool correct = false;
  std::map<std::string, double> metrics;
};

/// Reads every run from a result-line file, or from every *.jsonl file of
/// a directory (sorted by name). A hygiene line ({"run": {...}}) names the
/// group of the result line after it; without one the file stem does.
bool LoadRuns(const std::string& path, std::vector<Run>* out,
              std::string* error);

/// Linear-interpolation quartiles (numpy's default) of a non-empty sample.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

enum class Verdict {
  kBetter,   // the median moved the better way by more than the bound
  kSame,     // within the bound
  kWorse,    // the median moved the worse way by more than the bound
  kUngated,  // no bound: a per-layer or undeclared metric
};
const char* VerdictName(Verdict verdict);

struct MetricComparison {
  std::string group;
  MetricSpec spec;
  Quartiles parent;
  Quartiles change;
  /// (change - parent) / |parent| of the medians; 0 when both are 0.
  double delta = 0.0;
  /// Pairs (parent run i, change run i) in which the change is strictly
  /// better, out of `pairs`.
  int wins = 0;
  int pairs = 0;
  Verdict verdict = Verdict::kUngated;
};

/// Compares every metric present on both sides, group by group: groups in
/// name order, then declared metrics in BENCHMARK.json order, then any
/// undeclared ones by name. Groups present on one side only are skipped.
std::vector<MetricComparison> Compare(const std::vector<MetricSpec>& specs,
                                      const std::vector<Run>& parent,
                                      const std::vector<Run>& change);

/// A markdown table with one row per comparison.
std::string FormatTable(const std::vector<MetricComparison>& rows);

}  // namespace subrec::perfcmp

#endif  // SUBREC_TOOLS_PERFCMP_PERFCMP_H_
