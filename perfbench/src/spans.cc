#include "spans.h"

#include <cstdio>

#include "obs/trace.h"

namespace perfbench {
namespace {

// Innermost open span of this thread, so nested ScopedSpans find a parent
// without the caller passing one.
thread_local int32_t t_open = -1;

}  // namespace

SpanLog& SpanLog::Global() {
  static SpanLog log;
  return log;
}

int32_t SpanLog::Begin(const char* name, int64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, subrec::obs::NowNs(), 0, t_open, request});
  t_open = id;
  return id;
}

void SpanLog::End(int32_t id) {
  const int64_t now = subrec::obs::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = now;
  t_open = span.parent;
}

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    const int64_t d = spans_[i].end_ns - spans_[i].start_ns;
    t.count += 1;
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
  }
  return totals;
}

double SpanLog::MeanSeconds(const std::string& name) const {
  const auto totals = Totals();
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count) / 1e9;
}

std::string SpanLog::ToJson() const {
  const auto totals = Totals();
  std::string out = "{\"layers\": {";
  char buf[256];
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n  \"%s\": {\"count\": %lld, \"total_s\": %.9f, "
                  "\"self_s\": %.9f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e9,
                  static_cast<double>(t.self_ns) / 1e9);
    out += buf;
    first = false;
  }
  out += "},\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                  "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}",
                  i == 0 ? "" : ",", i, s.name,
                  static_cast<long long>(s.start_ns - origin),
                  static_cast<long long>(s.end_ns - origin), s.parent,
                  static_cast<long long>(s.request));
    out += buf;
  }
  out += "]}\n";
  return out;
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) {
  if (SpanLog::Global().enabled())
    id_ = SpanLog::Global().Begin(name, request);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) SpanLog::Global().End(id_);
}

}  // namespace perfbench
