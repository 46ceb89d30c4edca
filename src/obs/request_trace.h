#ifndef SUBREC_OBS_REQUEST_TRACE_H_
#define SUBREC_OBS_REQUEST_TRACE_H_

#include <cstdint>

#include "obs/trace.h"

namespace subrec::obs {

class JsonWriter;

/// Stages of one online recommendation request, in hot-path order.
/// Reports, traces and statusz name a stage by StageName, never by index.
enum class Stage : int {
  /// Time between SubmitBatch enqueue and the worker picking the request up.
  kQueue = 0,
  /// Result-cache probe (sharded LRU lookup).
  kCacheLookup,
  /// Candidate retrieval (CandidateIndex lookup).
  kCandidates,
  /// Pairwise scoring of every candidate against the profile.
  kScore,
  /// Top-N selection over the scored candidates.
  kSelect,
  /// Result-cache insert after a miss.
  kCacheInsert,
  /// Batched-scorer breakdown (sub-stages of kScore, recorded only on the
  /// gemm path): the scoring kernel over candidate rows in place, and the
  /// fused sigmoid-mean epilogue.
  kScoreGemm,
  kScoreEpilogue,
  kNumStages,
};

inline constexpr int kNumStages = static_cast<int>(Stage::kNumStages);

/// Stable short name ("queue", "cache_lookup", ...) used for report scalars
/// and statusz rows.
const char* StageName(Stage stage);

/// Per-request record of one pass through the serving path: identity tags,
/// outcome flags, and per-stage monotonic timings. Plain data with no heap
/// members — constructing one on the request stack never allocates, so the
/// sampling-off fast path stays allocation-free. String fields are
/// `const char*` pointing at static storage for the same reason.
struct RequestTrace {
  /// Assigned by the observer when the completed trace is recorded;
  /// 0 = never recorded.
  int64_t id = 0;
  int32_t user = -1;
  int32_t n = 0;
  uint64_t generation = 0;
  /// Monotonic submit time (NowNs clock) and total submit-to-done wall.
  int64_t start_ns = 0;
  int64_t total_ns = 0;
  int32_t candidate_count = 0;
  int32_t result_count = 0;
  bool cache_hit = false;
  bool error = false;
  /// Reserved for admission control: request rejected by load shedding.
  bool shed = false;
  /// Static-storage name of the candidate source (serve::CandidateSourceName)
  /// or null when unknown.
  const char* candidate_source = nullptr;
  int64_t stage_ns[kNumStages] = {};

  /// Emits the trace as one JSON object (caller positions the writer).
  /// Stages with zero recorded time are omitted.
  void WriteJson(JsonWriter* w) const;
};

/// RAII stage timer: adds the scope's wall time to `trace->stage_ns[stage]`.
/// A null trace makes construction and destruction complete no-ops, so call
/// sites stay branch-cheap on unsampled requests.
class StageTimer {
 public:
  StageTimer(RequestTrace* trace, Stage stage) : trace_(trace) {
    if (trace_ != nullptr) {
      stage_ = stage;
      begin_ns_ = NowNs();
    }
  }
  ~StageTimer() {
    if (trace_ != nullptr) {
      trace_->stage_ns[static_cast<int>(stage_)] += NowNs() - begin_ns_;
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  RequestTrace* trace_ = nullptr;
  Stage stage_ = Stage::kQueue;
  int64_t begin_ns_ = 0;
};

}  // namespace subrec::obs

#endif  // SUBREC_OBS_REQUEST_TRACE_H_
