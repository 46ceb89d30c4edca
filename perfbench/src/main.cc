// End-to-end benchmark program for subrec.
//
//   perfbench --workload refresh|serve_scan|serve_ann_reload --seed N
//             --seconds S --trace 0|1 --out-dir DIR [--scale full|tiny]
//
// One process runs one workload: set-up (repeated, median reported), a
// timed refresh that ends with the new generation loaded and serving, an
// untimed quality and output-check pass, then timed traffic. The last
// stdout line is the result object; the line before it stamps run hygiene.
// With --trace 1 the same run records benchmark-side spans around every
// call into a layer and reports per-layer metrics instead of end-to-end
// ones. README.md in this directory defines every metric.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ann/hnsw_index.h"
#include "common/check.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "eval/metrics.h"
#include "eval/ranking.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "pipeline.h"
#include "rec/candidate_sets.h"
#include "serve/candidate_index.h"
#include "serve/freeze.h"
#include "serve/frozen_scorer.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "traffic.h"

namespace perfbench {
namespace {

namespace serve = sr::serve;
using sr::obs::NowNs;

constexpr int kTopN = 10;
// Quality samples use fixed seeds, never --seed, so ndcg_at_20 and
// recall_at_10 are identical in every run of the same code.
constexpr uint64_t kQualitySeed = 20220411;
constexpr uint64_t kCorpusSeed = 404;
constexpr uint64_t kStreamSeed = 1234;
constexpr uint64_t kProfileSeed = 99;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".";
};

/// Fixed shape of one workload; see README.md for why each exists.
struct WorkloadSpec {
  bool retrain = false;
  serve::RetrievalMode retrieval = serve::RetrievalMode::kFiltered;
  /// Result-cache entries (0 disables the cache).
  size_t cache_capacity = 4096;
  /// 0 draws users uniformly; otherwise the Zipf exponent.
  double zipf = 0.0;
  /// Share of --seconds spent in the closed loop (the rest, if any, is
  /// the open loop), in this many alternating slices.
  double closed_share = 1.0;
  double open_rate = 0.0;
  int slices = 1;
  /// Reloads beside the closed loop every this share of --seconds.
  double reload_share = 0.0;
  /// Reload, with no traffic running, before each slice. Each slice then
  /// serves from freshly allocated state, so the median over slices also
  /// averages over memory placement.
  bool reload_before_slices = false;
  int setup_reps = 3;
};

bool LookupSpec(const std::string& name, WorkloadSpec* spec) {
  if (name == "refresh") {
    // The kSmall generation has about 200 servable users, all of which
    // fit in the cache; with it on, the traffic would time only hits.
    spec->retrain = true;
    spec->cache_capacity = 0;
    spec->closed_share = 0.6;
    spec->reload_share = 0.05;
    return true;
  }
  if (name == "serve_scan") {
    spec->closed_share = 0.6;
    spec->open_rate = 500.0;
    spec->slices = 3;
    spec->reload_before_slices = true;
    spec->setup_reps = 5;
    return true;
  }
  if (name == "serve_ann_reload") {
    // At Zipf 1.0 the hit ratio sits at 0.50, so p50 flips between a hit
    // (~1 us) and a miss (~30 us) from run to run; at 0.8 it is ~0.25.
    spec->retrieval = serve::RetrievalMode::kAnnEmbedding;
    spec->zipf = 0.8;
    spec->reload_share = 0.25;
    spec->setup_reps = 5;
    return true;
  }
  return false;
}

// --- Process facts ----------------------------------------------------------

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double LoadAverage1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

int64_t CounterValue(const char* name) {
  return sr::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// --- Results ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  bool AllFinite() const {
    for (const Metric& m : metrics_)
      if (!std::isfinite(m.value)) return false;
    return true;
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Output checks: each mismatch is recorded and fails the run.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_;
      if (failed_ <= 5) std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  bool passed() const { return failed_ == 0; }

 private:
  int64_t failed_ = 0;
};

// --- Oracles ----------------------------------------------------------------

/// Ranks `candidates` by (score desc, id asc) and keeps the first `n`.
std::vector<serve::ScoredPaper> RankTop(const std::vector<int32_t>& candidates,
                                        const std::vector<double>& scores,
                                        size_t n) {
  std::vector<serve::ScoredPaper> ranked(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i)
    ranked[i] = {candidates[i], scores[i]};
  std::sort(ranked.begin(), ranked.end(),
            [](const serve::ScoredPaper& a, const serve::ScoredPaper& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.paper < b.paper;
            });
  if (ranked.size() > n) ranked.resize(n);
  return ranked;
}

bool SameRanking(const std::vector<serve::ScoredPaper>& a,
                 const std::vector<serve::ScoredPaper>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].paper != b[i].paper || a[i].score != b[i].score) return false;
  }
  return true;
}

/// Served top-10 of each user equals the per-pair oracle
/// (FrozenScorer::Score) ranking of the same candidate list.
void CheckServedAgainstOracle(serve::RecommendService* service,
                              const std::vector<int32_t>& users,
                              const char* generation, Checks* checks) {
  const auto state = service->state();
  for (const int32_t user : users) {
    const serve::RecResponse response = service->TopN(user, kTopN);
    const auto& profile = state->profiles[static_cast<size_t>(user)];
    const auto& candidates = state->index.CandidatesFor(user);
    const auto oracle =
        RankTop(candidates, state->scorer.Score(profile, candidates), kTopN);
    checks->Expect(response.status.ok() && SameRanking(response.items, oracle),
                   std::string(generation) + " generation: served top-10 of "
                   "user " + std::to_string(user) + " != per-pair oracle");
  }
}

/// recall@10 and nDCG@20 of the served lists against the exact ranking
/// of each user's whole in-window new-paper pool.
void ServedVsExact(serve::RecommendService* service,
                   const std::vector<int32_t>& users, double* recall_at_10,
                   double* ndcg_at_20) {
  const auto state = service->state();
  const auto& pool = state->index.AllNewPapers();
  double recall = 0.0, ndcg = 0.0;
  for (const int32_t user : users) {
    const auto& profile = state->profiles[static_cast<size_t>(user)];
    const auto exact = RankTop(pool, state->scorer.Score(profile, pool), 20);
    const auto served10 = service->TopN(user, 10).items;
    const auto served20 = service->TopN(user, 20).items;
    auto in_exact = [&exact](int32_t paper, size_t depth) {
      for (size_t i = 0; i < std::min(depth, exact.size()); ++i)
        if (exact[i].paper == paper) return true;
      return false;
    };
    size_t hits10 = 0;
    for (const auto& s : served10) hits10 += in_exact(s.paper, 10) ? 1 : 0;
    recall += exact.empty() ? 1.0
                            : static_cast<double>(hits10) /
                                  static_cast<double>(std::min<size_t>(
                                      10, exact.size()));
    // Served order first; exact top-20 papers the service missed trail
    // after position 20, so they count toward the ideal DCG only.
    std::vector<bool> relevant;
    size_t hits20 = 0;
    for (const auto& s : served20) {
      relevant.push_back(in_exact(s.paper, 20));
      hits20 += relevant.back() ? 1 : 0;
    }
    while (relevant.size() < 20) relevant.push_back(false);
    for (size_t i = hits20; i < exact.size(); ++i) relevant.push_back(true);
    ndcg += sr::eval::NdcgAtK(relevant, 20);
  }
  *recall_at_10 = recall / static_cast<double>(users.size());
  *ndcg_at_20 = ndcg / static_cast<double>(users.size());
}

/// `count` users drawn uniformly with replacement.
std::vector<int32_t> SampleUsers(const std::vector<int32_t>& users,
                                 size_t count, uint64_t seed) {
  sr::Rng rng(seed);
  std::vector<int32_t> out;
  for (size_t i = 0; i < count; ++i)
    out.push_back(users[rng.UniformInt(users.size())]);
  return out;
}

// --- Traced extras ----------------------------------------------------------

struct LoadBreakdown {
  double state_mb = 0.0;
  int64_t ann_queries = 0;
  int64_t ann_nodes_visited = 0;
  int64_t ann_distance_evals = 0;
};

/// ServingState::FromSnapshot + Swap, decomposed through public calls so
/// each inner layer gets its own span.
LoadBreakdown DecomposedLoad(serve::RecommendService* service,
                             const std::string& path) {
  LoadBreakdown out;
  // Hand freed heap back to the kernel first, so the RSS growth counts the
  // new state rather than reuse of memory earlier reloads released.
  malloc_trim(0);
  const double rss_before = ProcStatusMb("VmRSS");
  serve::SnapshotData data;
  {
    ScopedSpan span("serve.decode");
    auto read = serve::SnapshotReader::ReadFile(path);
    SUBREC_CHECK(read.ok()) << read.status().ToString();
    data = std::move(read).value();
  }
  std::unique_ptr<const sr::ann::HnswIndex> ann_index;
  if (!data.ann_index.empty()) {
    ScopedSpan span("ann.deserialize");
    auto decoded = sr::ann::HnswIndex::Deserialize(data.ann_index);
    SUBREC_CHECK(decoded.ok()) << decoded.status().ToString();
    ann_index = std::move(decoded).value();
    data.ann_index.clear();
    data.ann_index.shrink_to_fit();
  }
  serve::CandidateIndexOptions options = service->options().index;
  if (options.min_year == 0) options.min_year = data.split_year;
  const int64_t q0 = CounterValue("ann.queries");
  const int64_t v0 = CounterValue("ann.nodes_visited");
  const int64_t e0 = CounterValue("ann.distance_evals");
  std::unique_ptr<serve::CandidateIndex> index;
  {
    ScopedSpan span("serve.index_build");
    index = std::make_unique<serve::CandidateIndex>(data, options,
                                                    ann_index.get());
  }
  out.ann_queries = CounterValue("ann.queries") - q0;
  out.ann_nodes_visited = CounterValue("ann.nodes_visited") - v0;
  out.ann_distance_evals = CounterValue("ann.distance_evals") - e0;
  std::vector<std::vector<int32_t>> profiles = std::move(data.profiles);
  std::string model_name = std::move(data.model_name);
  std::string dataset = std::move(data.dataset);
  const int32_t split_year = data.split_year;
  std::shared_ptr<serve::ServingState> state;
  {
    ScopedSpan span("serve.scorer_build");
    state = std::make_shared<serve::ServingState>(serve::ServingState{
        serve::FrozenScorer(std::move(data)), std::move(*index),
        std::move(profiles), std::move(model_name), std::move(dataset),
        split_year, std::move(ann_index)});
  }
  out.state_mb = ProcStatusMb("VmRSS") - rss_before;
  ScopedSpan span("serve.swap");
  service->Swap(std::move(state));
  return out;
}

struct ReplayStats {
  double candidates_per_req = 0.0;
  double gather_us = 0.0;
  double gemm_us = 0.0;
  double epilogue_us = 0.0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

/// Replays `users` through CandidatesFor -> ScoreBatchInto -> TopNInto on
/// the live state, once untraced to warm up, once untraced timed, once
/// with one span per layer per request.
ReplayStats ReplayRequests(const serve::ServingState& state,
                           const std::vector<int32_t>& users) {
  ReplayStats out;
  std::vector<double> scores;
  std::vector<serve::ScoredPaper> items;
  serve::ScoreBatchStats stats;
  size_t candidates_total = 0;
  auto pass = [&](bool traced) {
    SpanLog::Global().set_enabled(traced);
    stats = {};
    candidates_total = 0;
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < users.size(); ++r) {
      const int64_t request = static_cast<int64_t>(r);
      ScopedSpan root("request", request);
      const auto& profile = state.profiles[static_cast<size_t>(users[r])];
      const std::vector<int32_t>* candidates = nullptr;
      {
        ScopedSpan span("serve.candidates", request);
        candidates = &state.index.CandidatesFor(users[r]);
      }
      {
        ScopedSpan span("serve.score", request);
        state.scorer.ScoreBatchInto(profile, *candidates, &scores, &stats);
      }
      {
        ScopedSpan span("serve.select", request);
        state.scorer.TopNInto(profile, *candidates, kTopN,
                              serve::ScorerMode::kGemm, nullptr, &scores,
                              &items);
      }
      candidates_total += candidates->size();
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  pass(false);
  out.untraced_s = pass(false);
  out.traced_s = pass(true);
  const double n = static_cast<double>(users.size());
  out.candidates_per_req = static_cast<double>(candidates_total) / n;
  out.gather_us = static_cast<double>(stats.gather_ns) / 1e3 / n;
  out.gemm_us = static_cast<double>(stats.gemm_ns) / 1e3 / n;
  out.epilogue_us = static_cast<double>(stats.epilogue_ns) / 1e3 / n;
  return out;
}

// --- The run ----------------------------------------------------------------

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!LookupSpec(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const double load_at_start = LoadAverage1m();
  sr::par::SetNumThreads(1);
  sr::obs::TraceRecorder::Global().Disable();
  SpanLog::Global().set_enabled(args.trace);
  Checks checks;
  const std::string snapshot_path = args.out_dir + "/snapshot_" +
                                    args.workload + "_" +
                                    std::to_string(getpid()) + ".bin";

  serve::ServeOptions serve_options;
  serve_options.num_threads = 1;
  serve_options.cache_capacity = spec.cache_capacity;
  serve_options.index.retrieval = spec.retrieval;
  serve::RecommendService service(serve_options);

  // Set-up, repeated; the last inputs are kept.
  std::vector<double> setup_times;
  std::unique_ptr<CorpusInputs> corpus_inputs;
  std::unique_ptr<StreamInputs> stream_inputs;
  const auto corpus_options = sr::datagen::ScopusLikeOptions(
      args.tiny ? sr::datagen::DatasetScale::kTiny
                : sr::datagen::DatasetScale::kSmall,
      kCorpusSeed);
  sr::datagen::StreamingCorpusOptions stream_options;
  stream_options.seed = kStreamSeed;
  stream_options.papers_per_year = args.tiny ? 300 : 10000;
  const size_t stream_users = args.tiny ? 300 : 10000;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    corpus_inputs.reset();
    stream_inputs.reset();
    const int64_t t0 = NowNs();
    if (spec.retrain) {
      corpus_inputs = SetupCorpus(corpus_options);
    } else {
      stream_inputs = SetupStream(stream_options, stream_users, 8,
                                  kProfileSeed);
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Refresh: corpus in hand -> new generation loaded and serving.
  const int64_t sem_triplets0 = CounterValue("sem.triplets_mined");
  const int64_t sem_steps0 = CounterValue("sem.trainer_steps");
  const int64_t tape_nodes0 = CounterValue("tape.nodes_built");
  const int64_t refresh_t0 = NowNs();
  std::unique_ptr<TrainedModel> trained;
  serve::SnapshotData data;
  if (spec.retrain) {
    trained = Retrain(*corpus_inputs, args.tiny);
    ScopedSpan span("serve.freeze");
    data = serve::FreezeNPRec(trained->ctx, *trained->model, "scopus-like");
  } else {
    data = FreezeStream(*stream_inputs);
  }
  size_t snapshot_bytes = 0;
  {
    std::unique_ptr<serve::SnapshotWriter> writer;
    {
      ScopedSpan span("serve.encode");
      writer = std::make_unique<serve::SnapshotWriter>(data);
    }
    snapshot_bytes = writer->bytes().size();
    ScopedSpan span("serve.write");
    const sr::Status status = writer->WriteFile(snapshot_path);
    SUBREC_CHECK(status.ok()) << status.ToString();
  }
  data = serve::SnapshotData();
  {
    ScopedSpan span("serve.load");
    const sr::Status status = service.LoadSnapshotFile(snapshot_path);
    SUBREC_CHECK(status.ok()) << status.ToString();
  }
  const double refresh_s = static_cast<double>(NowNs() - refresh_t0) / 1e9;
  const int64_t sem_triplets = CounterValue("sem.triplets_mined") - sem_triplets0;
  const int64_t sem_steps = CounterValue("sem.trainer_steps") - sem_steps0;
  const int64_t tape_nodes = CounterValue("tape.nodes_built") - tape_nodes0;
  stream_inputs.reset();

  // Untimed pass on the first generation: output checks and quality.
  std::vector<int32_t> servable;
  for (size_t u = 0; u < service.state()->profiles.size(); ++u) {
    if (!service.state()->profiles[u].empty())
      servable.push_back(static_cast<int32_t>(u));
  }
  SUBREC_CHECK(!servable.empty()) << "snapshot has no servable users";
  const std::vector<int32_t> check_users =
      SampleUsers(servable, 64, args.seed * 7919 + 1);
  CheckServedAgainstOracle(&service, check_users, "first", &checks);

  double ndcg_at_20 = 0.0, recall_at_10 = 0.0;
  ServedVsExact(&service, SampleUsers(servable, 64, kQualitySeed),
                &recall_at_10, &ndcg_at_20);
  if (spec.retrain) {
    const auto first = service.state();
    // Tab. IV protocol on the loaded FrozenScorer, averaged over three
    // candidate-set draws; the frozen ranking must equal live
    // NPRec::Score on every set.
    const auto& ctx = trained->ctx;
    std::vector<sr::corpus::AuthorId> users =
        sr::datagen::SelectUsers(*ctx.corpus, kSplitYear, 2);
    if (users.size() > 100) users.resize(100);
    double total = 0.0;
    for (uint64_t draw = 0; draw < 3; ++draw) {
      sr::Rng rng(kQualitySeed + draw);
      double ndcg = 0.0;
      int evaluated = 0;
      for (const sr::corpus::AuthorId u : users) {
        const sr::rec::CandidateSet set =
            sr::rec::BuildCandidateSet(ctx, u, 20, rng);
        if (set.papers.empty()) continue;
        const std::vector<int32_t> papers(set.papers.begin(),
                                          set.papers.end());
        const auto frozen =
            first->scorer.Score(first->profiles[static_cast<size_t>(u)],
                                papers);
        const sr::rec::UserQuery query{u, sr::rec::UserProfile(ctx, u)};
        const auto live = trained->model->Score(ctx, query, set.papers);
        checks.Expect(SameRanking(RankTop(papers, frozen, papers.size()),
                                  RankTop(papers, live, papers.size())),
                      "frozen ranking != live NPRec::Score for user " +
                          std::to_string(u));
        ndcg += sr::eval::NdcgAtK(
            sr::eval::ReorderByRanking(frozen, set.relevant), 20);
        ++evaluated;
      }
      total += evaluated > 0 ? ndcg / evaluated : 0.0;
    }
    ndcg_at_20 = total / 3.0;
  }
  const double rec_train_pairs =
      trained ? static_cast<double>(trained->model->train_stats().num_pairs)
              : 0.0;
  trained.reset();
  corpus_inputs.reset();

  // Timed traffic. Users are drawn from the seed.
  sr::Rng traffic_rng(args.seed);
  std::vector<int32_t> ranked_users = servable;
  for (size_t i = ranked_users.size(); i > 1; --i)
    std::swap(ranked_users[i - 1], ranked_users[traffic_rng.UniformInt(i)]);
  std::vector<double> zipf_cdf;
  if (spec.zipf > 0.0) {
    double acc = 0.0;
    for (size_t r = 0; r < ranked_users.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf);
      zipf_cdf.push_back(acc);
    }
    for (double& c : zipf_cdf) c /= acc;
  }
  const UserSampler next_user = [&]() -> int32_t {
    if (zipf_cdf.empty())
      return ranked_users[traffic_rng.UniformInt(ranked_users.size())];
    const double u = traffic_rng.UniformDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    return ranked_users[std::min(r, ranked_users.size() - 1)];
  };

  LoadGenerator traffic(&service, next_user, kTopN);
  std::vector<double> reload_times;
  int64_t reload_failures = 0;
  const double slice = args.seconds / spec.slices;
  const double closed_s = slice * spec.closed_share;
  for (int i = 0; i < spec.slices; ++i) {
    if (spec.reload_before_slices) {
      const int64_t t0 = NowNs();
      if (!service.LoadSnapshotFile(snapshot_path).ok()) ++reload_failures;
      reload_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    traffic.Closed(closed_s, std::max(1, static_cast<int>(closed_s + 0.5)),
                   args.seconds * spec.reload_share, snapshot_path);
    if (spec.open_rate > 0.0)
      traffic.Open(spec.open_rate, slice * (1.0 - spec.closed_share));
  }
  const TrafficStats& stats = traffic.stats();
  reload_times.insert(reload_times.end(), stats.reload_s.begin(),
                      stats.reload_s.end());
  reload_failures += stats.reload_failures;

  // Traced extras: the load decomposed by layer, then a replayed request
  // sample through the per-request layers.
  LoadBreakdown load;
  ReplayStats replay;
  if (args.trace) {
    load = DecomposedLoad(&service, snapshot_path);
    replay = ReplayRequests(*service.state(),
                            SampleUsers(servable, 2000, args.seed + 17));
  }
  CheckServedAgainstOracle(&service, check_users, "last", &checks);
  std::remove(snapshot_path.c_str());

  // Worker-side service time from the open loop where there is one.
  const std::vector<Window>& service_windows =
      stats.open.empty() ? stats.closed : stats.open;
  const int64_t reloads = static_cast<int64_t>(reload_times.size());
  const double closed_sent = static_cast<double>(std::max<int64_t>(
      stats.closed_sent, 1));
  const double hit_ratio = static_cast<double>(stats.hits) / closed_sent;
  const double overlap = static_cast<double>(stats.overlapped) / closed_sent;
  const double peak_rss_mb = ProcStatusMb("VmHWM");

  // Run hygiene and the cache-sharding picture, stamped on every result.
  char hygiene[1024];
  std::snprintf(
      hygiene, sizeof(hygiene),
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"scale\": \"%s\", \"tracing\": %s, \"par_threads\": %zu, "
      "\"service_workers\": %zu, \"nproc\": %u, \"loadavg_1m_at_start\": "
      "%.2f, \"loadgen_max_late_ms\": %.3f, \"cache_capacity\": %zu, "
      "\"cache_shards\": %zu, \"cache_shards_used\": %lld, "
      "\"cache_distinct_keys\": %lld, \"cache_hit_ratio\": %.4f, "
      "\"requests\": %lld, \"reloads\": %lld}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.tiny ? "tiny" : "full",
      args.trace ? "true" : "false", sr::par::NumThreads(),
      serve_options.num_threads, std::thread::hardware_concurrency(),
      load_at_start, static_cast<double>(stats.max_late_ns) / 1e6,
      serve_options.cache_capacity, serve_options.cache_shards,
      static_cast<long long>(traffic.shards_used()),
      static_cast<long long>(traffic.distinct_keys()), hit_ratio,
      static_cast<long long>(stats.sent), static_cast<long long>(reloads));

  MetricList metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_times), "s");
    metrics.Add("refresh_s", refresh_s, "s");
    metrics.Add("ndcg_at_20", ndcg_at_20, "ratio");
    metrics.Add("recall_at_10", recall_at_10, "ratio");
    metrics.Add("qps", MedianOf(stats.closed, &Window::qps), "1/s");
    metrics.Add("p50_ms", MedianOf(stats.closed, &Window::p50_ns) / 1e6, "ms");
    metrics.Add("p99_ms", MedianOf(stats.closed, &Window::p99_ns) / 1e6, "ms");
    metrics.Add("ok_rate",
                static_cast<double>(stats.ok) /
                    static_cast<double>(std::max<int64_t>(stats.sent, 1)),
                "ratio");
    metrics.Add("reload_s", Median(reload_times), "s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Add("snapshot_mb", static_cast<double>(snapshot_bytes) / 1e6, "MB");
  } else {
    const SpanLog& log = SpanLog::Global();
    for (const char* name :
         {"datagen.generate", "datagen.stream", "text.word2vec",
          "labeling.train", "labeling.label", "rules.features", "graph.build",
          "subspace.fit", "subspace.embed", "rec.fit", "serve.freeze",
          "serve.encode", "serve.write", "serve.decode", "serve.swap",
          "serve.scorer_build", "ann.build", "ann.serialize",
          "ann.deserialize", "serve.index_build"}) {
      metrics.Add(std::string(name) + "_s", log.MeanSeconds(name), "s");
    }
    metrics.Add("subspace.triplets", static_cast<double>(sem_triplets), "count");
    metrics.Add("subspace.steps", static_cast<double>(sem_steps), "count");
    metrics.Add("rec.train_pairs", rec_train_pairs, "count");
    metrics.Add("autodiff.tape_nodes", static_cast<double>(tape_nodes), "count");
    metrics.Add("ann.queries", static_cast<double>(load.ann_queries), "count");
    metrics.Add("ann.nodes_visited",
                static_cast<double>(load.ann_nodes_visited), "count");
    metrics.Add("ann.distance_evals",
                static_cast<double>(load.ann_distance_evals), "count");
    metrics.Add("serve.state_mb", load.state_mb, "MB");
    metrics.Add("serve.candidates_per_req", replay.candidates_per_req, "count");
    metrics.Add("serve.candidates_us", log.MeanSeconds("serve.candidates") * 1e6,
                "us");
    metrics.Add("serve.score_us", log.MeanSeconds("serve.score") * 1e6, "us");
    metrics.Add("serve.score_gather_us", replay.gather_us, "us");
    metrics.Add("serve.score_gemm_us", replay.gemm_us, "us");
    metrics.Add("serve.score_epilogue_us", replay.epilogue_us, "us");
    metrics.Add("serve.select_us", log.MeanSeconds("serve.select") * 1e6, "us");
    metrics.Add("serve.cache_hit_ratio", hit_ratio, "ratio");
    metrics.Add("serve.cache_distinct_keys",
                static_cast<double>(traffic.distinct_keys()), "count");
    metrics.Add("serve.cache_capacity",
                static_cast<double>(serve_options.cache_capacity), "count");
    metrics.Add("serve.cache_shards_used",
                static_cast<double>(traffic.shards_used()), "count");
    metrics.Add("serve.open_p50_ms", MedianOf(stats.open, &Window::p50_ns) / 1e6,
                "ms");
    metrics.Add("serve.open_p99_ms", MedianOf(stats.open, &Window::p99_ns) / 1e6,
                "ms");
    metrics.Add("serve.queue_wait_p50_ms",
                MedianOf(stats.open, &Window::queue_p50_ns) / 1e6, "ms");
    metrics.Add("serve.queue_wait_p99_ms",
                MedianOf(stats.open, &Window::queue_p99_ns) / 1e6, "ms");
    metrics.Add("serve.service_p50_ms",
                MedianOf(service_windows, &Window::service_p50_ns) / 1e6, "ms");
    metrics.Add("serve.service_p99_ms",
                MedianOf(service_windows, &Window::service_p99_ns) / 1e6, "ms");
    metrics.Add("serve.reload_overlap_ratio", overlap, "ratio");
    metrics.Add("loadgen.max_late_ms",
                static_cast<double>(stats.max_late_ns) / 1e6, "ms");
    metrics.Add("trace.overhead_ratio",
                replay.untraced_s > 0.0 ? replay.traced_s / replay.untraced_s
                                        : 0.0,
                "ratio");
    const std::string trace_path = args.out_dir + "/trace_" + args.workload +
                                   "_" + std::to_string(args.seed) + ".json";
    std::ofstream(trace_path, std::ios::trunc) << log.ToJson();
    std::fprintf(stderr, "spans: %s\n", trace_path.c_str());
  }

  checks.Expect(metrics.AllFinite(), "a metric is not finite");
  const int64_t failed = (stats.sent - stats.ok) + reload_failures;
  std::printf("%s\n", hygiene);
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      checks.passed() ? "true" : "false",
      static_cast<long long>(stats.sent + reloads + 1),
      static_cast<long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return checks.passed() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--scale full|tiny]\n");
    return 2;
  }
  return perfbench::Run(args);
}
