#include "serve/service.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace subrec::serve {
namespace {

/// Requests per SubmitBatch pool task.
constexpr size_t kChunkSize = 8;

obs::Histogram* LatencyHistogram() {
  static obs::Histogram* const h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.latency_us", {10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
                           10000, 25000, 50000, 100000});
  return h;
}

/// serve.candidates.source.<name>: how many scored (cache-missing)
/// requests drew their candidate list from each retrieval branch. The
/// whole family registers on first use so the statusz breakdown shows
/// every branch at zero rather than omitting the ones never hit.
obs::Counter* SourceCounter(CandidateSource source) {
  static const std::array<obs::Counter*, kNumCandidateSources> counters = [] {
    std::array<obs::Counter*, kNumCandidateSources> c{};
    for (int i = 0; i < kNumCandidateSources; ++i) {
      c[static_cast<size_t>(i)] = obs::MetricsRegistry::Global().GetCounter(
          std::string("serve.candidates.source.") +
          CandidateSourceName(static_cast<CandidateSource>(i)));
    }
    return c;
  }();
  const auto i = static_cast<size_t>(source);
  SUBREC_CHECK(i < counters.size());
  return counters[i];
}

}  // namespace

uint64_t ResultCacheKey(uint64_t generation, int32_t user, int n) {
  return ((generation & 0xFFFFu) << 48) |
         (static_cast<uint64_t>(static_cast<uint32_t>(user)) << 16) |
         (static_cast<uint64_t>(n) & 0xFFFFu);
}

Result<std::shared_ptr<const ServingState>> ServingState::FromSnapshot(
    SnapshotData data, CandidateIndexOptions index_options) {
  if (data.interest.rows() == 0)
    return Status::InvalidArgument("snapshot has no papers to serve");
  if (index_options.min_year == 0) index_options.min_year = data.split_year;
  // Decode the ANN section whenever present — a corrupt index should fail
  // the load, not lurk until a mode flip. Requesting embedding retrieval
  // without an index is an explicit error rather than a silent fallback:
  // the caller asked for sublinear candidates and would otherwise get a
  // pool scan with different results and a different cost model.
  std::unique_ptr<const ann::HnswIndex> ann_index;
  if (!data.ann_index.empty()) {
    SUBREC_TRACE_SPAN("serve/ann_deserialize");
    SUBREC_ASSIGN_OR_RETURN(std::unique_ptr<ann::HnswIndex> decoded,
                            ann::HnswIndex::Deserialize(data.ann_index));
    // Deserialize validates the index's internal structure only; its
    // external ids and dimensionality are opaque to it. Cross-check both
    // against this snapshot here so a well-formed-but-mismatched section
    // (the CRC is recomputable, not a security barrier) is a load error,
    // never an out-of-bounds read in the candidate pass or a CHECK-abort
    // inside its ParallelFor.
    if (decoded->dim() != data.interest.cols()) {
      return Status::InvalidArgument(
          "snapshot ANN index dim " + std::to_string(decoded->dim()) +
          " != embedding dim " + std::to_string(data.interest.cols()));
    }
    for (int32_t id : decoded->ids()) {
      if (id < 0 || static_cast<size_t>(id) >= data.years.size()) {
        return Status::InvalidArgument(
            "snapshot ANN index id " + std::to_string(id) +
            " outside paper range [0, " +
            std::to_string(data.years.size()) + ")");
      }
    }
    ann_index = std::move(decoded);
    data.ann_index.clear();
    data.ann_index.shrink_to_fit();
  }
  if (index_options.retrieval == RetrievalMode::kAnnEmbedding &&
      ann_index == nullptr) {
    return Status::InvalidArgument(
        "ann_embedding retrieval requested but the snapshot has no ANN "
        "index (freeze with build_ann_index)");
  }
  // Build the index first (it reads only the attribute arrays), pull the
  // small members out, then let FrozenScorer move the two big matrices it
  // reads instead of copying them — snapshot load never doubles peak
  // memory. The text slab, which serving never reads, dies with `data`.
  CandidateIndex index = [&] {
    SUBREC_TRACE_SPAN("serve/candidate_index");
    return CandidateIndex(data, index_options, ann_index.get());
  }();
  std::vector<std::vector<int32_t>> profiles = std::move(data.profiles);
  std::string model_name = std::move(data.model_name);
  std::string dataset = std::move(data.dataset);
  const int32_t split_year = data.split_year;
  std::shared_ptr<const ServingState> state;
  {
    SUBREC_TRACE_SPAN("serve/scorer");  // includes the influence row layout
    state = std::make_shared<ServingState>(ServingState{
        FrozenScorer(std::move(data)), std::move(index), std::move(profiles),
        std::move(model_name), std::move(dataset), split_year,
        std::move(ann_index)});
  }
  return state;
}

RecommendService::RecommendService(const ServeOptions& options)
    : options_(options),
      observer_(options.observer),
      pool_(options.num_threads) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(
        options_.cache_capacity, options_.cache_shards,
        obs::MetricsRegistry::Global().GetGauge("serve.cache.shards_used"));
  }
}

RecommendService::~RecommendService() { pool_.Shutdown(); }

Status RecommendService::LoadSnapshotFile(const std::string& path) {
  SnapshotData data;
  {
    SUBREC_TRACE_SPAN("serve/decode");
    SUBREC_ASSIGN_OR_RETURN(data, SnapshotReader::ReadFile(path));
  }
  SUBREC_ASSIGN_OR_RETURN(std::shared_ptr<const ServingState> state,
                          ServingState::FromSnapshot(std::move(data),
                                                     options_.index));
  Swap(std::move(state));
  return Status::Ok();
}

void RecommendService::Swap(std::shared_ptr<const ServingState> state) {
  SUBREC_TRACE_SPAN("serve/swap");
  SUBREC_CHECK(state != nullptr);
  static obs::Counter* const swaps =
      obs::MetricsRegistry::Global().GetCounter("serve.swaps");
  // Publish the state BEFORE bumping the generation: a request that reads
  // the new generation number is then guaranteed to also see the new state,
  // so a stale result can never be cached under the new generation. (The
  // benign converse — a fresh result under the old generation — only wastes
  // one cache slot.) The old generation leaves the lock in `old` and is
  // freed when this function returns (if no request still holds it), so
  // requests never wait on state_mu_ while its slabs are freed.
  std::shared_ptr<const ServingState> old;
  {
    common::MutexLock lock(&state_mu_);
    old = std::exchange(state_, std::move(state));
  }
  generation_.fetch_add(1);
  if (cache_) cache_->Clear();
  swaps->Increment();
}

std::shared_ptr<const ServingState> RecommendService::state() const {
  common::MutexLock lock(&state_mu_);
  return state_;
}

RecResponse RecommendService::TopN(int32_t user, int n) {
  return TopNInternal(user, n, /*submit_ns=*/-1);
}

RecResponse RecommendService::TopNInternal(int32_t user, int n,
                                           int64_t submit_ns) {
  static obs::Counter* const requests =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  static obs::Counter* const cache_hit_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.cache_hit");
  static obs::Counter* const cache_miss_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.cache_miss");

  // Generation first, then state — pairs with the store order in Swap.
  const uint64_t generation = generation_.load();
  const std::shared_ptr<const ServingState> state = this->state();
  RecResponse response;
  response.enqueue_ns = obs::NowNs();
  requests->Increment();

  // One relaxed load is the entire observability cost when disabled; the
  // trace below is plain stack data (no heap members), filled only for
  // sampled requests.
  const bool observing = observer_.enabled();
  obs::RequestTrace trace;
  obs::RequestTrace* t = nullptr;
  if (observing && observer_.SampleTrace()) {
    t = &trace;
    trace.user = user;
    trace.n = n;
    trace.start_ns = submit_ns >= 0 ? submit_ns : response.enqueue_ns;
    if (submit_ns >= 0) {
      // Queue time = SubmitBatch enqueue to worker pickup; synchronous
      // callers have no queue stage.
      trace.stage_ns[static_cast<int>(obs::Stage::kQueue)] =
          response.enqueue_ns - submit_ns;
    }
  }
  // Completes the response and fans it out to the observer. The lifetime
  // latency histogram keeps its original semantics: observed on cache hits
  // and successful scores, measured from TopN entry. The observer instead
  // sees every outcome (errors included), measured from the earliest known
  // submit time.
  auto finish = [&](bool observe_latency) {
    response.done_ns = obs::NowNs();
    if (observe_latency) {
      LatencyHistogram()->Observe(
          static_cast<double>(response.done_ns - response.enqueue_ns) / 1e3);
    }
    if (!observing) return;
    const int64_t start = submit_ns >= 0 ? submit_ns : response.enqueue_ns;
    const double latency_us =
        static_cast<double>(response.done_ns - start) / 1e3;
    if (t != nullptr) {
      t->total_ns = response.done_ns - start;
      t->cache_hit = response.cache_hit;
      t->error = !response.status.ok();
      t->result_count = static_cast<int32_t>(response.items.size());
    }
    observer_.OnComplete(response.done_ns, latency_us, !response.status.ok(),
                         response.cache_hit, /*shed=*/false, t);
  };

  if (state == nullptr) {
    response.status =
        Status::FailedPrecondition("RecommendService: no snapshot loaded");
    finish(/*observe_latency=*/false);
    return response;
  }
  if (n < 0 || user < 0 ||
      static_cast<size_t>(user) >= state->profiles.size()) {
    response.status = Status::InvalidArgument(
        "RecommendService: unknown user " + std::to_string(user));
    finish(/*observe_latency=*/false);
    return response;
  }
  // n gets 16 bits in the cache key, so larger values must be rejected in
  // every build mode — a masked key would alias distinct list lengths.
  if (n >= (1 << 16)) {
    response.status = Status::InvalidArgument(
        "RecommendService: n too large (" + std::to_string(n) +
        " >= 65536)");
    finish(/*observe_latency=*/false);
    return response;
  }
  if (t != nullptr) t->generation = generation;

  const uint64_t key = ResultCacheKey(generation, user, n);
  if (cache_) {
    bool hit = false;
    {
      obs::StageTimer timer(t, obs::Stage::kCacheLookup);
      if (auto cached = cache_->Get(key); cached.has_value()) {
        response.items = std::move(*cached);
        hit = true;
      }
    }
    if (hit) {
      cache_hit_counter->Increment();
      response.cache_hit = true;
      finish(/*observe_latency=*/true);
      return response;
    }
    cache_miss_counter->Increment();
  }

  {
    SUBREC_TRACE_SPAN("serve/score");
    const std::vector<int32_t>& profile =
        state->profiles[static_cast<size_t>(user)];
    const std::vector<int32_t>* candidates = nullptr;
    {
      obs::StageTimer timer(t, obs::Stage::kCandidates);
      candidates = &state->index.CandidatesFor(user);
    }
    const CandidateSource source = state->index.SourceFor(user);
    SourceCounter(source)->Increment();
    if (t != nullptr) {
      t->candidate_count = static_cast<int32_t>(candidates->size());
      t->candidate_source = CandidateSourceName(source);
    }
    state->scorer.TopNInto(profile, *candidates, n, ScorerMode::kGemm, t,
                           /*scores=*/nullptr, &response.items);
  }
  if (cache_) {
    obs::StageTimer timer(t, obs::Stage::kCacheInsert);
    cache_->Put(key, response.items);
  }
  finish(/*observe_latency=*/true);
  return response;
}

std::vector<RecResponse> RecommendService::RunChunk(
    const std::vector<RecRequest>& requests, int64_t submit_ns) {
  std::vector<RecResponse> out;
  out.reserve(requests.size());
  for (const RecRequest& r : requests)
    out.push_back(TopNInternal(r.user, r.n, submit_ns));
  return out;
}

std::future<std::vector<RecResponse>> RecommendService::SubmitBatch(
    std::vector<RecRequest> requests) {
  const size_t num_chunks = (requests.size() + kChunkSize - 1) / kChunkSize;
  // Captured so sampled traces can attribute enqueue-to-pickup time to the
  // queue stage.
  const int64_t submit_ns = obs::NowNs();
  if (num_chunks <= 1) {
    return pool_.SubmitWithResult(
        [this, submit_ns, requests = std::move(requests)]() {
          return RunChunk(requests, submit_ns);
        });
  }
  // Fan the chunks out across workers; aggregation is a deferred task that
  // runs on whichever thread calls get(), so no worker (and no extra
  // thread) ever blocks waiting on chunk futures.
  auto chunk_futures = std::make_shared<
      std::vector<std::future<std::vector<RecResponse>>>>();
  chunk_futures->reserve(num_chunks);
  for (size_t start = 0; start < requests.size(); start += kChunkSize) {
    const size_t end = std::min(requests.size(), start + kChunkSize);
    std::vector<RecRequest> chunk(
        requests.begin() + static_cast<ptrdiff_t>(start),
        requests.begin() + static_cast<ptrdiff_t>(end));
    chunk_futures->push_back(pool_.SubmitWithResult(
        [this, submit_ns, chunk = std::move(chunk)]() {
          return RunChunk(chunk, submit_ns);
        }));
  }
  return std::async(std::launch::deferred, [chunk_futures]() {
    std::vector<RecResponse> all;
    for (auto& f : *chunk_futures) {
      std::vector<RecResponse> part = f.get();
      for (RecResponse& r : part) all.push_back(std::move(r));
    }
    return all;
  });
}

std::vector<RecResponse> RecommendService::TopNBatch(
    const std::vector<RecRequest>& requests) {
  return SubmitBatch(requests).get();
}

}  // namespace subrec::serve
