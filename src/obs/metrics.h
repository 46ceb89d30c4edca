#ifndef SUBREC_OBS_METRICS_H_
#define SUBREC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::obs {

class JsonWriter;

/// Monotonically increasing event count. Updates are single relaxed atomic
/// adds — safe and cheap from any thread.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Instantaneous value: Set overwrites it, Add moves it by a delta.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i]
/// (first matching bucket); one implicit overflow bucket catches the rest.
/// Observe is lock-free: one atomic add on the bucket plus count/sum
/// updates.
class Histogram {
 public:
  /// `bounds` are strictly increasing upper edges; must be non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// bounds().size() + 1 buckets; the last is the overflow bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> bucket_counts() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of every registered instrument, detached from the
/// live registry (safe to read while training threads keep updating).
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  // bounds.size() + 1, overflow last
    int64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} as one
  /// value (callers position the writer, e.g. after a Key).
  void WriteJson(JsonWriter* w) const;
};

/// Process-wide named instrument registry. Lookup (Get*) takes a mutex and
/// is meant to run once per call site:
///
///   static Counter* const iters =
///       MetricsRegistry::Global().GetCounter("gmm.iterations");
///   iters->Increment();
///
/// after which updates are lock-free atomics. Returned pointers live for
/// the registry's lifetime (instruments are never deleted).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Contract (deliberately Status-free so call sites stay one static
  /// lookup): a histogram name owns its bounds. The first registration
  /// wins; every later call for the same name must pass identical bounds —
  /// mismatched bounds are a programming error, SUBREC_DCHECK'd in
  /// debug/sanitizer builds and silently first-wins in release.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every instrument (pointers stay valid) — for tests and for
  /// isolating one experiment's metrics from the previous one's.
  void Reset();
  size_t NumInstruments() const;

 private:
  mutable common::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      SUBREC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      SUBREC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      SUBREC_GUARDED_BY(mu_);
};

}  // namespace subrec::obs

#endif  // SUBREC_OBS_METRICS_H_
