#ifndef SUBREC_SERVE_SERVICE_H_
#define SUBREC_SERVE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "ann/hnsw_index.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/serve_observer.h"
#include "par/thread_pool.h"
#include "serve/candidate_index.h"
#include "serve/frozen_scorer.h"
#include "serve/lru_cache.h"
#include "serve/snapshot.h"

namespace subrec::serve {

/// One immutable generation of serving data: scorer + candidate index +
/// user profiles, built from one snapshot. Shared read-only across worker
/// threads; replaced wholesale on hot reload.
struct ServingState {
  FrozenScorer scorer;
  CandidateIndex index;
  std::vector<std::vector<int32_t>> profiles;
  std::string model_name;
  std::string dataset;
  int32_t split_year = 0;
  /// The deserialized embedding index from the snapshot's ANN section, or
  /// null when the snapshot carried none. Kept alive for the generation so
  /// diagnostics (and future online re-query paths) can reach it.
  std::unique_ptr<const ann::HnswIndex> ann_index;

  /// Builds a state from parsed snapshot data. `index_options.min_year`
  /// of 0 is auto-filled with the snapshot's split year. Fails with
  /// InvalidArgument when RetrievalMode::kAnnEmbedding is requested but
  /// the snapshot has no ANN section — never a silent fallback — and
  /// propagates decode errors from a corrupt ANN section.
  static Result<std::shared_ptr<const ServingState>> FromSnapshot(
      SnapshotData data, CandidateIndexOptions index_options);
};

struct ServeOptions {
  size_t num_threads = 4;
  /// Total entries across all cache shards; 0 disables the result cache.
  size_t cache_capacity = 4096;
  size_t cache_shards = 16;
  /// Requests grouped into one pool task by SubmitBatch/TopNBatch. A chunk
  /// coalesces its requests that share a candidate list into one stacked
  /// scoring pass.
  size_t batch_size = 8;
  CandidateIndexOptions index;
  /// Serving-path observability (rolling windows, flight recorder, stage
  /// traces). Disabled by default: the only per-request cost is then one
  /// relaxed atomic load and zero allocations.
  obs::ServeObserverOptions observer;
};

struct RecRequest {
  int32_t user = -1;
  int n = 10;
};

/// The result cache's key: generation << 48 | user << 16 | n. The service
/// range-checks user and n first (n < 2^16), so distinct requests within
/// one generation never alias to the same slot.
uint64_t ResultCacheKey(uint64_t generation, int32_t user, int n);

struct RecResponse {
  Status status;
  std::vector<ScoredPaper> items;
  bool cache_hit = false;
  /// Monotonic timestamps for load-generator latency accounting:
  /// enqueue (SubmitBatch call / TopN entry) and completion.
  int64_t enqueue_ns = 0;
  int64_t done_ns = 0;
};

/// Online top-N recommendation front end: a bounded thread pool executes
/// batched requests against the current ServingState, memoizing per-user
/// result lists in a sharded LRU cache. Snapshot swap is one shared_ptr
/// store under a light mutex — in-flight requests finish on the old
/// generation, new requests see the new one, and the cache is invalidated
/// explicitly. Metrics flow through the global obs registry ("serve.*").
class RecommendService {
 public:
  explicit RecommendService(const ServeOptions& options);

  /// Shuts the pool down first so queued SubmitBatch tasks finish while
  /// cache_ and state_ are still alive.
  ~RecommendService();

  /// Reads, parses, and swaps in the snapshot at `path`.
  Status LoadSnapshotFile(const std::string& path);

  /// Hot reload: publishes `state` in one step and invalidates the cache.
  void Swap(std::shared_ptr<const ServingState> state);

  /// The current generation's state (nullptr before the first swap).
  std::shared_ptr<const ServingState> state() const;

  /// Scores one request synchronously on the calling thread. Thread-safe.
  RecResponse TopN(int32_t user, int n);

  /// Enqueues `requests` on the pool as batch_size-grouped tasks; the
  /// future resolves when the whole batch is done, responses in order.
  std::future<std::vector<RecResponse>> SubmitBatch(
      std::vector<RecRequest> requests);

  /// SubmitBatch + wait.
  std::vector<RecResponse> TopNBatch(const std::vector<RecRequest>& requests);

  int64_t cache_hits() const { return cache_ ? cache_->hits() : 0; }
  int64_t cache_misses() const { return cache_ ? cache_->misses() : 0; }
  uint64_t generation() const { return generation_.load(); }
  const ServeOptions& options() const { return options_; }

  /// The serving-path observation hub (windows, flight recorder, stage
  /// stats). Always present; inert when observability was not enabled.
  obs::ServeObserver& observer() { return observer_; }
  const obs::ServeObserver& observer() const { return observer_; }

 private:
  using ResultCache = ShardedLruCache<uint64_t, std::vector<ScoredPaper>>;

  /// Shared request path. `submit_ns` is the SubmitBatch enqueue time for
  /// queue-stage attribution, or -1 when the caller ran synchronously.
  /// Captures the current generation + state and delegates to TopNOnState.
  RecResponse TopNInternal(int32_t user, int n, int64_t submit_ns);

  /// Request path against an already-captured generation + state pair (the
  /// capture order — generation first — pairs with the store order in
  /// Swap, so results are never cached under a newer generation than they
  /// were computed from). `prescored`, when non-null, holds this user's
  /// scores from a stacked coalesced pass over the SAME state; the scoring
  /// stage is then skipped and only selection runs.
  RecResponse TopNOnState(int32_t user, int n, int64_t submit_ns,
                          uint64_t generation,
                          const std::shared_ptr<const ServingState>& state,
                          const std::vector<double>* prescored);

  /// Executes one SubmitBatch chunk: a coalescing pre-pass stacks the
  /// chunk's cache-key-distinct requests that share a candidate list into
  /// one ScoreStackedInto pass, then every request runs the normal path
  /// with its prescored slice.
  std::vector<RecResponse> RunChunk(const std::vector<RecRequest>& requests,
                                    int64_t submit_ns);

  ServeOptions options_ SUBREC_UNGUARDED("set in the constructor, read-only");
  // Null when caching is disabled; the pointer itself is fixed after the
  // constructor and the cache locks its own shards.
  std::unique_ptr<ResultCache> cache_
      SUBREC_UNGUARDED("pointer fixed after construction; cache is "
                       "internally synchronized");
  // A plain mutex-guarded pointer rather than an atomic shared_ptr:
  // libstdc++'s atomic specialization spins on a hidden lock bit anyway (it
  // is not lock-free) and its internals trip TSan, so the explicit mutex is
  // equally cheap and sanitizer-clean. Readers only copy the pointer
  // under the lock — scoring never holds it.
  mutable common::Mutex state_mu_;
  std::shared_ptr<const ServingState> state_ SUBREC_GUARDED_BY(state_mu_);
  std::atomic<uint64_t> generation_{0};
  obs::ServeObserver observer_
      SUBREC_UNGUARDED("constructed once; internally synchronized");
  // Declared last: the pool's destructor drains queued tasks that call
  // TopN, which must still see a live cache_ and state_.
  par::ThreadPool pool_ SUBREC_UNGUARDED("internally synchronized");
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_SERVICE_H_
