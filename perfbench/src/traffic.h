// Load generation against serve::RecommendService: closed-loop slices with
// one synchronous caller (optionally beside a reloader thread), open-loop
// slices at a fixed rate through single-request SubmitBatch calls, and the
// percentile arithmetic the metrics use. Slices of either kind may
// alternate; their statistics accumulate.

#ifndef SUBREC_PERFBENCH_SRC_TRAFFIC_H_
#define SUBREC_PERFBENCH_SRC_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/service.h"

namespace perfbench {

/// Draws the next user id to request.
using UserSampler = std::function<int32_t()>;

/// Latency statistics of one measurement window, in nanoseconds.
struct Window {
  /// Requests per second (closed-loop windows only).
  double qps = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  /// RecResponse done - enqueue: time inside the service.
  double service_p50_ns = 0.0;
  double service_p99_ns = 0.0;
  /// Due time -> worker pickup (open-loop windows only).
  double queue_p50_ns = 0.0;
  double queue_p99_ns = 0.0;
};

struct TrafficStats {
  int64_t sent = 0;
  int64_t ok = 0;
  /// Closed-loop requests, the cache hits among them, and those in flight
  /// while a reload ran.
  int64_t closed_sent = 0;
  int64_t hits = 0;
  int64_t overlapped = 0;
  std::vector<Window> closed;
  std::vector<Window> open;
  /// Durations of the LoadSnapshotFile calls made beside the closed loop.
  std::vector<double> reload_s;
  int64_t reload_failures = 0;
  /// Largest delay between an open-loop request's due time and its
  /// submission.
  int64_t max_late_ns = 0;
};

/// Drives one service. Metrics are reported per window and summarized by
/// the median over windows, so a host hiccup that hits one window does not
/// move a run's figure.
class LoadGenerator {
 public:
  LoadGenerator(subrec::serve::RecommendService* service,
                UserSampler next_user, int n);

  /// One synchronous caller for `seconds`, split into `windows` equal
  /// measurement windows. When `reload_interval_s` is positive a second
  /// thread calls LoadSnapshotFile(`snapshot_path`) at that fixed
  /// wall-clock interval, each reload starting at least one interval before
  /// the loop ends.
  void Closed(double seconds, int windows, double reload_interval_s,
              const std::string& snapshot_path);

  /// One single-request SubmitBatch every 1/`rate` seconds for `seconds`,
  /// regardless of completions, as one window; waits for all of them.
  void Open(double rate, double seconds);

  const TrafficStats& stats() const { return stats_; }

  /// Distinct result-cache keys the closed loop mapped to, and how many
  /// of the cache's shards those keys land in (0 with the cache off).
  int64_t distinct_keys() const { return static_cast<int64_t>(keys_.size()); }
  int64_t shards_used() const;

 private:
  subrec::serve::RecommendService* service_;
  UserSampler next_user_;
  int n_;
  TrafficStats stats_;
  std::unordered_set<uint64_t> keys_;
  // Per-window samples, reused across windows.
  std::vector<int64_t> latency_ns_;
  std::vector<int64_t> service_ns_;
  std::vector<int64_t> queue_ns_;
};

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<int64_t> values, double q);
double Median(std::vector<double> values);
/// Median over windows of one Window field.
double MedianOf(const std::vector<Window>& windows, double Window::*field);

}  // namespace perfbench

#endif  // SUBREC_PERFBENCH_SRC_TRAFFIC_H_
