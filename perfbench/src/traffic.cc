#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace perfbench {
namespace {

using subrec::obs::NowNs;
namespace serve = subrec::serve;

// Sleeps to within kSpinNs of the due time, then spins: a timed sleep
// alone wakes 50-100 us late on a VM, which the open loop would count as
// service latency.
constexpr int64_t kSpinNs = 200000;

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

int64_t SecondsToNs(double seconds) {
  return static_cast<int64_t>(seconds * 1e9);
}

}  // namespace

LoadGenerator::LoadGenerator(serve::RecommendService* service,
                             UserSampler next_user, int n)
    : service_(service), next_user_(std::move(next_user)), n_(n) {}

void LoadGenerator::Closed(double seconds, int windows,
                           double reload_interval_s,
                           const std::string& snapshot_path) {
  const int64_t t0 = NowNs();
  const int64_t end = t0 + SecondsToNs(seconds);

  // Bumped when each reload starts and again when it ends: odd while a
  // reload runs, so a request overlapped one iff the count was odd at
  // issue or changed before the response.
  std::atomic<int64_t> reload_events{0};
  std::vector<double> reload_s;
  int64_t reload_failures = 0;
  std::thread reloader;
  if (reload_interval_s > 0.0) {
    const int64_t interval = SecondsToNs(reload_interval_s);
    reloader = std::thread([&, t0, end, interval] {
      for (int64_t due = t0 + interval; due + interval <= end;
           due += interval) {
        SleepUntilNs(due);
        const int64_t start = NowNs();
        reload_events.fetch_add(1);
        const subrec::Status status = service_->LoadSnapshotFile(snapshot_path);
        reload_events.fetch_add(1);
        reload_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
        if (!status.ok()) ++reload_failures;
      }
    });
  }

  int window = 0;
  int64_t window_start = t0;
  int64_t window_end = t0 + (end - t0) / windows;
  latency_ns_.clear();
  service_ns_.clear();
  int64_t done = t0;
  while (done < end) {
    const int32_t user = next_user_();
    const uint64_t generation = service_->generation();
    const int64_t events = reload_events.load();
    const int64_t issue = NowNs();
    const serve::RecResponse response = service_->TopN(user, n_);
    done = NowNs();
    if (events % 2 == 1 || reload_events.load() != events)
      ++stats_.overlapped;
    latency_ns_.push_back(done - issue);
    service_ns_.push_back(response.done_ns - response.enqueue_ns);
    ++stats_.sent;
    ++stats_.closed_sent;
    if (response.status.ok()) ++stats_.ok;
    if (response.cache_hit) ++stats_.hits;
    // The key the service caches under: generation | user | n.
    keys_.insert(((generation & 0xFFFFu) << 48) |
                 (static_cast<uint64_t>(static_cast<uint32_t>(user)) << 16) |
                 (static_cast<uint64_t>(n_) & 0xFFFFu));
    if (done >= window_end) {
      Window w;
      w.qps = static_cast<double>(latency_ns_.size()) /
              (static_cast<double>(done - window_start) / 1e9);
      w.p50_ns = Percentile(latency_ns_, 0.50);
      w.p99_ns = Percentile(latency_ns_, 0.99);
      w.service_p50_ns = Percentile(service_ns_, 0.50);
      w.service_p99_ns = Percentile(service_ns_, 0.99);
      stats_.closed.push_back(w);
      latency_ns_.clear();
      service_ns_.clear();
      ++window;
      window_start = NowNs();
      window_end = t0 + (end - t0) * (window + 1) / windows;
    }
  }
  if (reloader.joinable()) reloader.join();
  stats_.reload_s.insert(stats_.reload_s.end(), reload_s.begin(),
                         reload_s.end());
  stats_.reload_failures += reload_failures;
}

void LoadGenerator::Open(double rate, double seconds) {
  const int64_t period = static_cast<int64_t>(1e9 / rate);
  const size_t count = static_cast<size_t>(seconds * rate);
  std::vector<int64_t> due(count);
  std::vector<std::future<std::vector<serve::RecResponse>>> pending;
  pending.reserve(count);
  const int64_t t0 = NowNs() + period;
  for (size_t i = 0; i < count; ++i) {
    due[i] = t0 + static_cast<int64_t>(i) * period;
    const int32_t user = next_user_();
    SleepUntilNs(due[i]);
    stats_.max_late_ns = std::max(stats_.max_late_ns, NowNs() - due[i]);
    pending.push_back(service_->SubmitBatch({serve::RecRequest{user, n_}}));
  }
  latency_ns_.clear();
  service_ns_.clear();
  queue_ns_.clear();
  for (size_t i = 0; i < count; ++i) {
    const std::vector<serve::RecResponse> responses = pending[i].get();
    ++stats_.sent;
    if (responses.size() != 1 || !responses[0].status.ok()) continue;
    ++stats_.ok;
    const serve::RecResponse& r = responses[0];
    latency_ns_.push_back(r.done_ns - due[i]);
    queue_ns_.push_back(r.enqueue_ns - due[i]);
    service_ns_.push_back(r.done_ns - r.enqueue_ns);
  }
  Window w;
  w.p50_ns = Percentile(latency_ns_, 0.50);
  w.p99_ns = Percentile(latency_ns_, 0.99);
  w.service_p50_ns = Percentile(service_ns_, 0.50);
  w.service_p99_ns = Percentile(service_ns_, 0.99);
  w.queue_p50_ns = Percentile(queue_ns_, 0.50);
  w.queue_p99_ns = Percentile(queue_ns_, 0.99);
  stats_.open.push_back(w);
}

int64_t LoadGenerator::shards_used() const {
  const serve::ServeOptions& options = service_->options();
  if (options.cache_capacity == 0 || options.cache_shards == 0) return 0;
  // ShardedLruCache picks a shard as std::hash<uint64_t>(key) % shards.
  std::vector<bool> used(options.cache_shards, false);
  for (const uint64_t key : keys_)
    used[std::hash<uint64_t>{}(key) % options.cache_shards] = true;
  return std::count(used.begin(), used.end(), true);
}

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return static_cast<double>(values[index]);
}

double MedianOf(const std::vector<Window>& windows, double Window::*field) {
  std::vector<double> values;
  for (const Window& w : windows) values.push_back(w.*field);
  return Median(std::move(values));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
