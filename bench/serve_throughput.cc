// Serving load generator: freezes a trained NPRec into a snapshot, serves
// it through RecommendService, and reports (a) frozen-vs-live top-N parity
// and (b) an open-loop run at a target QPS with the cache on and a mid-run
// snapshot hot reload, plus the statusz page and metrics JSON captured at
// the end of that run. Latency percentiles are computed exactly from
// per-request monotonic timestamps. SUBREC_BENCH_SMOKE=1 shrinks the corpus
// and the request rate to CI scale.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/file_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/serve_observer.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "rec/nprec.h"
#include "serve/freeze.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace {

using namespace subrec;

struct LoadConfig {
  datagen::DatasetScale scale = datagen::DatasetScale::kSmall;
  double target_qps = 5000.0;
  double open_loop_seconds = 4.0;
  size_t user_pool = 32;
};

LoadConfig MakeConfig() {
  LoadConfig config;
  if (bench::SmokeMode()) {
    config.scale = datagen::DatasetScale::kTiny;
    config.target_qps = 2000.0;
    config.open_loop_seconds = 1.0;
  }
  return config;
}

double PercentileUs(std::vector<int64_t> latencies_ns, double q) {
  SUBREC_CHECK(!latencies_ns.empty());
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const double rank = q * static_cast<double>(latencies_ns.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, latencies_ns.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  const double ns = static_cast<double>(latencies_ns[lo]) * (1.0 - frac) +
                    static_cast<double>(latencies_ns[hi]) * frac;
  return ns / 1e3;
}

/// Sibling path to BENCH_<name>.json: SUBREC_REPORT_DIR when set (the same
/// resolution RunReport::WriteFile uses), else the working directory.
std::string ReportSibling(const std::string& filename) {
  std::string path;
  const char* env = std::getenv("SUBREC_REPORT_DIR");
  if (env != nullptr && env[0] != '\0') {
    path = env;
    if (path.back() != '/') path += '/';
  }
  return path + filename;
}

/// Users with non-empty serving profiles, up to `limit`.
std::vector<int32_t> ServableUsers(const serve::ServingState& state,
                                   size_t limit) {
  std::vector<int32_t> users;
  for (size_t u = 0; u < state.profiles.size() && users.size() < limit; ++u) {
    if (!state.profiles[u].empty()) users.push_back(static_cast<int32_t>(u));
  }
  SUBREC_CHECK(!users.empty()) << "snapshot has no servable users";
  return users;
}

/// Fraction of users whose frozen top-10 equals ranking the live model's
/// scores over the identical candidate list (ties broken by paper id).
double TopNParity(const rec::RecContext& ctx, const rec::NPRec& model,
                  const serve::ServingState& state,
                  const std::vector<int32_t>& users) {
  int matches = 0;
  for (const int32_t user : users) {
    const std::vector<int32_t>& profile =
        state.profiles[static_cast<size_t>(user)];
    const std::vector<int32_t>& candidates = state.index.CandidatesFor(user);
    const auto frozen = state.scorer.TopN(profile, candidates, 10);

    rec::UserQuery query{user, {profile.begin(), profile.end()}};
    const std::vector<corpus::PaperId> live_candidates(candidates.begin(),
                                                       candidates.end());
    const std::vector<double> live =
        model.Score(ctx, query, live_candidates);
    std::vector<serve::ScoredPaper> ranked(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i)
      ranked[i] = {candidates[i], live[i]};
    std::sort(ranked.begin(), ranked.end(),
              [](const serve::ScoredPaper& a, const serve::ScoredPaper& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.paper < b.paper;
              });
    ranked.resize(std::min(ranked.size(), frozen.size()));
    bool equal = ranked.size() == frozen.size();
    for (size_t i = 0; equal && i < ranked.size(); ++i)
      equal = ranked[i].paper == frozen[i].paper &&
              ranked[i].score == frozen[i].score;
    if (equal) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(users.size());
}

}  // namespace

int main() {
  const LoadConfig config = MakeConfig();
  obs::RunReport report = bench::OpenReport("serve_throughput");
  report.set_dataset("scopus_like");

  // --- Offline: train, freeze, write the snapshot to disk. ---------------
  bench::PrintHeader("serve_throughput: offline freeze");
  bench::SemWorldOptions sem_options;
  auto sem = bench::BuildSemWorld(
      datagen::ScopusLikeOptions(config.scale, 4242), sem_options);
  bench::RecWorldOptions rec_options;
  auto world = bench::BuildRecWorld(std::move(sem), rec_options);
  bench::StampCorpus(&report, world->ctx.corpus->papers.size());

  rec::NPRecOptions model_options;
  model_options.sampler.max_positives = bench::SmokeMode() ? 300 : 1500;
  rec::NPRec model(model_options, &world->subspace);
  {
    SUBREC_TRACE_SPAN("bench/train");
    const Status fit = model.Fit(world->ctx);
    SUBREC_CHECK(fit.ok()) << fit.ToString();
  }

  const std::string snapshot_path = "serve_snapshot.snap";
  {
    SUBREC_TRACE_SPAN("bench/freeze");
    serve::SnapshotWriter writer(
        serve::FreezeNPRec(world->ctx, model, "scopus_like"));
    SUBREC_CHECK(writer.WriteFile(snapshot_path).ok());
    report.AddScalar("snapshot.bytes",
                     static_cast<double>(writer.bytes().size()));
    std::printf("snapshot: %zu bytes -> %s\n", writer.bytes().size(),
                snapshot_path.c_str());
  }

  // --- Parity: the frozen scorer must reproduce the live model. ----------
  serve::ServeOptions parity_options;
  parity_options.num_threads = 1;
  serve::RecommendService parity_service(parity_options);
  SUBREC_CHECK(parity_service.LoadSnapshotFile(snapshot_path).ok());
  const std::shared_ptr<const serve::ServingState> state =
      parity_service.state();
  const std::vector<int32_t> users = ServableUsers(*state, config.user_pool);
  const double parity = TopNParity(world->ctx, model, *state, users);
  report.AddScalar("parity.topn_match_rate", parity);
  std::printf("parity: frozen top-10 == live top-10 for %.1f%% of %zu users\n",
              parity * 100.0, users.size());
  SUBREC_CHECK(parity == 1.0) << "frozen scorer diverged from live NPRec";

  // --- Open loop at target QPS, cache on, hot reload mid-run. ------------
  bench::PrintHeader("serve_throughput: open loop at target QPS (cache on)");
  serve::ServeOptions serve_options;
  serve_options.num_threads = 4;
  // Full serving-path observability for the open-loop run: rolling windows
  // see every request, every 4th request carries a per-stage trace into the
  // flight recorder, and requests slower than 50ms are logged.
  serve_options.observer.enabled = true;
  serve_options.observer.sample_every_n = 4;
  serve_options.observer.recorder.recent_capacity = 64;
  serve_options.observer.recorder.slow_log_threshold_ns = 50'000'000;
  // Bench honesty: which retrieval branch produced these latencies. The
  // ann_embedding path has a different cost profile, so reports must say
  // which one they measured.
  report.AddString(
      "serve.retrieval_mode",
      serve_options.index.retrieval == serve::RetrievalMode::kAnnEmbedding
          ? "ann_embedding"
          : "filtered");
  serve::RecommendService service(serve_options);
  SUBREC_CHECK(service.LoadSnapshotFile(snapshot_path).ok());

  const int64_t period_ns =
      static_cast<int64_t>(1e9 / config.target_qps);
  const int64_t run_ns =
      static_cast<int64_t>(config.open_loop_seconds * 1e9);
  struct Pending {
    int64_t submit_ns;
    std::future<std::vector<serve::RecResponse>> future;
  };
  std::deque<Pending> inflight;
  std::vector<int64_t> latencies;
  size_t completed = 0;
  bool swapped = false;

  auto drain_one = [&](Pending pending) {
    for (serve::RecResponse& r : pending.future.get()) {
      SUBREC_CHECK(r.status.ok()) << r.status.ToString();
      latencies.push_back(r.done_ns - pending.submit_ns);
      ++completed;
    }
  };

  const int64_t start_ns = obs::NowNs();
  int64_t next_ns = start_ns;
  size_t sent = 0;
  while (obs::NowNs() - start_ns < run_ns) {
    // Pace: one single-request batch per period, yielding between slots.
    while (obs::NowNs() < next_ns) std::this_thread::yield();
    next_ns += period_ns;
    const int32_t user = users[sent % users.size()];
    inflight.push_back({obs::NowNs(),
                        service.SubmitBatch({{user, 10}})});
    ++sent;
    if (!swapped && obs::NowNs() - start_ns > run_ns / 2) {
      // Hot reload in the middle of the run: in-flight requests finish on
      // the old generation, the cache restarts cold.
      SUBREC_CHECK(service.LoadSnapshotFile(snapshot_path).ok());
      swapped = true;
      // Mid-run health check straight off the rolling windows — this is the
      // view an operator would poll, taken without pausing the load.
      const obs::WindowSnapshot mid =
          service.observer().window()->Snapshot(obs::NowNs());
      const obs::WindowStats& w1 = mid.Closest(1.0);
      report.AddScalar("obs.midrun.window_1s.qps", w1.qps);
      report.AddScalar("obs.midrun.window_1s.p99_us", w1.p99_us);
      report.AddScalar("obs.midrun.window_1s.cache_hit_rate",
                       w1.cache_hit_rate);
      std::printf(
          "mid-run 1s window: %.0f qps  p50 %.1fus  p99 %.1fus  hit %.2f\n",
          w1.qps, w1.p50_us, w1.p99_us, w1.cache_hit_rate);
    }
    while (inflight.size() > 256) {
      drain_one(std::move(inflight.front()));
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    drain_one(std::move(inflight.front()));
    inflight.pop_front();
  }
  const double span_seconds =
      static_cast<double>(obs::NowNs() - start_ns) / 1e9;
  SUBREC_CHECK(completed == sent);
  SUBREC_CHECK(swapped) << "open-loop run ended before the hot reload";
  SUBREC_CHECK(service.generation() == 2);

  const double achieved_qps = static_cast<double>(completed) / span_seconds;
  const int64_t hits = service.cache_hits();
  const int64_t misses = service.cache_misses();
  const double hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  report.AddScalar("load.target_qps", config.target_qps);
  report.AddScalar("load.achieved_qps", achieved_qps);
  report.AddScalar("load.requests", static_cast<double>(completed));
  report.AddScalar("load.p50_us", PercentileUs(latencies, 0.50));
  report.AddScalar("load.p95_us", PercentileUs(latencies, 0.95));
  report.AddScalar("load.p99_us", PercentileUs(latencies, 0.99));
  report.AddScalar("load.cache_hit_rate", hit_rate);
  std::printf(
      "open loop: %zu requests, target %.0f qps, achieved %.0f qps\n"
      "latency: p50 %.1fus  p95 %.1fus  p99 %.1fus  cache hit rate %.2f\n",
      completed, config.target_qps, achieved_qps,
      PercentileUs(latencies, 0.50), PercentileUs(latencies, 0.95),
      PercentileUs(latencies, 0.99), hit_rate);

  // --- Observability: rolling windows, per-stage breakdown, exports. ------
  bench::PrintHeader("serve_throughput: serving-path observability");
  const obs::ServeObserver& observer = service.observer();
  const obs::WindowSnapshot live = observer.window()->Snapshot(obs::NowNs());
  for (const obs::WindowStats& w : live.windows) {
    const std::string prefix =
        "obs.window_" +
        std::to_string(static_cast<int64_t>(w.window_seconds)) + "s";
    report.AddScalar(prefix + ".requests", static_cast<double>(w.requests));
    report.AddScalar(prefix + ".qps", w.qps);
    report.AddScalar(prefix + ".p50_us", w.p50_us);
    report.AddScalar(prefix + ".p95_us", w.p95_us);
    report.AddScalar(prefix + ".p99_us", w.p99_us);
    report.AddScalar(prefix + ".error_rate", w.error_rate);
    report.AddScalar(prefix + ".cache_hit_rate", w.cache_hit_rate);
  }
  const std::vector<obs::StageStat> stages = observer.StageStats();
  for (const obs::StageStat& s : stages) {
    const std::string prefix = std::string("obs.stage.") + s.name;
    report.AddScalar(prefix + ".sampled", static_cast<double>(s.sampled));
    report.AddScalar(prefix + ".mean_us", s.mean_us);
    report.AddScalar(prefix + ".total_us", s.total_us);
    std::printf("stage %-14s sampled %6lld  mean %8.1fus\n", s.name,
                static_cast<long long>(s.sampled), s.mean_us);
  }
  report.AddScalar(
      "obs.traces.recorded",
      static_cast<double>(observer.recorder()->TotalRecorded()));
  report.AddScalar("obs.traces.dropped",
                   static_cast<double>(observer.recorder()->Dropped()));

  // Dump the operator views next to the bench report: the plain-text
  // statusz page and the machine-readable metrics JSON.
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  obs::StatuszData statusz;
  statusz.uptime_ns = obs::NowNs() - start_ns;
  statusz.metrics = &metrics;
  statusz.window = &live;
  statusz.stages = &stages;
  statusz.recorder = observer.recorder();
  const std::string statusz_path = ReportSibling("STATUSZ_serve_throughput.txt");
  SUBREC_CHECK(
      WriteStringToFile(statusz_path, obs::ExportStatusz(statusz)).ok());
  std::printf("statusz: %s\n", statusz_path.c_str());
  const std::string metrics_path =
      ReportSibling("METRICS_serve_throughput.json");
  SUBREC_CHECK(
      WriteStringToFile(metrics_path, obs::ExportMetricsJson(statusz)).ok());
  std::printf("metrics: %s\n", metrics_path.c_str());

  bench::WriteReport(&report);
  return 0;
}
