// Benchmark-side span records. Spans are kept by the benchmark rather than
// obs::TraceRecorder because obs::TraceEvent carries no span id, parent or
// request id, and the per-layer self times below need all three.

#ifndef SUBREC_PERFBENCH_SRC_SPANS_H_
#define SUBREC_PERFBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Static-storage name: recording a span allocates nothing per name.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span on the same thread, -1 for a root.
  int32_t parent = -1;
  /// Shared by every span of one replayed request; -1 outside requests.
  int64_t request = -1;
};

/// Per-name totals over all recorded spans.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  /// Span time minus the time covered by its direct children.
  int64_t self_ns = 0;
};

/// Process-wide span log. Disabled (the default) it records nothing, so
/// the end-to-end runs pay one relaxed branch per wrapped call.
class SpanLog {
 public:
  static SpanLog& Global();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span under the calling thread's innermost open span.
  int32_t Begin(const char* name, int64_t request);
  void End(int32_t id);

  std::map<std::string, SpanTotals> Totals() const;
  /// Mean duration in seconds of the spans called `name` (0 when none).
  double MeanSeconds(const std::string& name) const;

  /// Spans plus per-name totals as one JSON document.
  std::string ToJson() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the log is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t id_ = -1;
};

}  // namespace perfbench

#endif  // SUBREC_PERFBENCH_SRC_SPANS_H_
