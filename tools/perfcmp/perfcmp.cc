#include "perfcmp.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

namespace subrec::perfcmp {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

namespace {

/// Recursive-descent reader for one JSON document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size() || Fail("end of input");
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(std::string_view expected) {
    error_ = "offset " + std::to_string(pos_) + ": expected " +
             std::string(expected);
    return false;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (!AtEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                        text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ConsumeDigits() {
    const size_t start = pos_;
    while (!AtEnd() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("shallower nesting");
    if (AtEnd()) return Fail("a value");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ParseWord("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ParseWord("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ParseWord("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail(word);
    pos_ += word.size();
    return true;
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      if (AtEnd() || text_[pos_] != '"') return Fail("a member name");
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return Fail("':'");
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("',' or ']'");
    }
  }

  bool ParseHex4(uint32_t* out) {
    if (text_.size() - pos_ < 4) return Fail("four hex digits");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        --pos_;
        return Fail("a hex digit");
      }
    }
    *out = v;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      if (AtEnd()) return Fail("a closing quote");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20)
        return Fail("an escaped control character");
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Fail("an escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp < 0xDC00) {  // high surrogate: needs a low
            uint32_t low = 0;
            if (!ParseWord("\\u") || !ParseHex4(&low)) return false;
            if (low < 0xDC00 || low >= 0xE000)
              return Fail("a low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          --pos_;
          return Fail("a valid escape");
      }
    }
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    if (!ConsumeDigits()) return Fail("a value");
    if (Consume('.') && !ConsumeDigits()) return Fail("a fraction digit");
    if (!AtEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Fail("an exponent digit");
    }
    double v = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      pos_ = start;
      return Fail("a representable number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool LoadRunsFromFile(const std::filesystem::path& path,
                      std::vector<Run>* out, std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open " + path.string();
    return false;
  }
  std::string pending_group;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue doc;
    std::string parse_error;
    if (!ParseJson(line, &doc, &parse_error)) {
      *error = path.string() + ":" + std::to_string(line_no) + ": " +
               parse_error;
      return false;
    }
    if (const JsonValue* hygiene = doc.Find("run")) {
      const JsonValue* workload = hygiene->Find("workload");
      const JsonValue* tracing = hygiene->Find("tracing");
      if (workload != nullptr &&
          workload->kind == JsonValue::Kind::kString) {
        const bool traced = tracing != nullptr && tracing->boolean;
        pending_group = workload->string + (traced ? ".trace1" : ".trace0");
      }
      continue;
    }
    const JsonValue* metrics = doc.Find("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::Kind::kObject)
      continue;
    Run run;
    run.group = pending_group.empty() ? path.stem().string() : pending_group;
    const JsonValue* correct = doc.Find("correct");
    run.correct = correct != nullptr &&
                  correct->kind == JsonValue::Kind::kBool && correct->boolean;
    for (const auto& [name, metric] : metrics->object) {
      const JsonValue* value = metric.kind == JsonValue::Kind::kObject
                                   ? metric.Find("value")
                                   : &metric;
      if (value != nullptr && value->kind == JsonValue::Kind::kNumber)
        run.metrics[name] = value->number;
    }
    out->push_back(std::move(run));
    pending_group.clear();
  }
  return true;
}

double RelativeDelta(double parent, double change) {
  if (parent != 0.0) return (change - parent) / std::fabs(parent);
  if (change == 0.0) return 0.0;
  return change > 0.0 ? std::numeric_limits<double>::infinity()
                      : -std::numeric_limits<double>::infinity();
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string FormatQuartiles(const Quartiles& q) {
  return FormatNumber(q.median) + " [" + FormatNumber(q.q1) + ", " +
         FormatNumber(q.q3) + "]";
}

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  Parser parser(text);
  *out = JsonValue{};
  if (parser.ParseDocument(out)) return true;
  *error = parser.error();
  return false;
}

bool LoadSpecs(const JsonValue& benchmark, std::vector<MetricSpec>* out,
               std::string* error) {
  for (const char* list : {"end_to_end", "per_layer"}) {
    const JsonValue* entries = benchmark.Find(list);
    if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
      *error = std::string("BENCHMARK.json has no '") + list + "' array";
      return false;
    }
    for (const JsonValue& entry : entries->array) {
      const JsonValue* name = entry.Find("name");
      const JsonValue* better = entry.Find("better");
      if (name == nullptr || name->kind != JsonValue::Kind::kString ||
          better == nullptr || better->kind != JsonValue::Kind::kString) {
        *error = std::string("a '") + list + "' entry lacks name or better";
        return false;
      }
      MetricSpec spec;
      spec.name = name->string;
      spec.higher_is_better = better->string == "higher";
      if (const JsonValue* unit = entry.Find("unit"))
        spec.unit = unit->string;
      if (const JsonValue* bound = entry.Find("bound");
          bound != nullptr && bound->kind == JsonValue::Kind::kNumber)
        spec.bound = bound->number;
      out->push_back(std::move(spec));
    }
  }
  return true;
}

bool LoadRuns(const std::string& path, std::vector<Run>* out,
              std::string* error) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec))
    return LoadRunsFromFile(path, out, error);
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(path, ec))
    if (entry.path().extension() == ".jsonl") files.push_back(entry.path());
  if (ec) {
    *error = "cannot list " + path + ": " + ec.message();
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files)
    if (!LoadRunsFromFile(file, out, error)) return false;
  return true;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
  };
  return Quartiles{at(0.25), at(0.5), at(0.75)};
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter:
      return "better";
    case Verdict::kSame:
      return "same";
    case Verdict::kWorse:
      return "WORSE";
    case Verdict::kUngated:
      return "-";
  }
  return "?";
}

std::vector<MetricComparison> Compare(const std::vector<MetricSpec>& specs,
                                      const std::vector<Run>& parent,
                                      const std::vector<Run>& change) {
  std::map<std::string, std::vector<const Run*>> parent_groups, change_groups;
  for (const Run& run : parent) parent_groups[run.group].push_back(&run);
  for (const Run& run : change) change_groups[run.group].push_back(&run);

  auto values_of = [](const std::vector<const Run*>& runs,
                      const std::string& metric) {
    std::vector<double> values;
    for (const Run* run : runs) {
      const auto it = run->metrics.find(metric);
      if (it != run->metrics.end()) values.push_back(it->second);
    }
    return values;
  };

  std::vector<MetricComparison> rows;
  for (const auto& [group, parent_runs] : parent_groups) {
    const auto found = change_groups.find(group);
    if (found == change_groups.end()) continue;
    for (const MetricSpec& spec : specs) {
      const std::vector<double> p = values_of(parent_runs, spec.name);
      const std::vector<double> c = values_of(found->second, spec.name);
      if (p.empty() || c.empty()) continue;
      MetricComparison row;
      row.group = group;
      row.spec = spec;
      row.parent = ComputeQuartiles(p);
      row.change = ComputeQuartiles(c);
      row.delta = RelativeDelta(row.parent.median, row.change.median);
      row.pairs = static_cast<int>(std::min(p.size(), c.size()));
      for (int i = 0; i < row.pairs; ++i) {
        const auto k = static_cast<size_t>(i);
        row.wins += spec.higher_is_better ? c[k] > p[k] : c[k] < p[k];
      }
      if (spec.bound.has_value()) {
        const double gain = spec.higher_is_better ? row.delta : -row.delta;
        row.verdict = gain > *spec.bound    ? Verdict::kBetter
                      : -gain > *spec.bound ? Verdict::kWorse
                                            : Verdict::kSame;
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string FormatTable(const std::vector<MetricComparison>& rows) {
  std::string out =
      "| run | metric | unit | better | parent median [q1, q3] | "
      "change median [q1, q3] | delta | bound | wins | verdict |\n"
      "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const MetricComparison& row : rows) {
    char delta[32];
    if (std::isfinite(row.delta)) {
      std::snprintf(delta, sizeof(delta), "%+.1f%%", 100.0 * row.delta);
    } else {
      std::snprintf(delta, sizeof(delta), "n/a");
    }
    out += "| " + row.group + " | " + row.spec.name + " | " + row.spec.unit +
           " | " + (row.spec.higher_is_better ? "higher" : "lower") + " | " +
           FormatQuartiles(row.parent) + " | " + FormatQuartiles(row.change) +
           " | " + delta + " | " +
           (row.spec.bound ? FormatNumber(*row.spec.bound) : "-") + " | " +
           std::to_string(row.wins) + "/" + std::to_string(row.pairs) +
           " | " + VerdictName(row.verdict) + " |\n";
  }
  return out;
}

}  // namespace subrec::perfcmp
