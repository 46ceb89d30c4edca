#ifndef SUBREC_SERVE_FROZEN_SCORER_H_
#define SUBREC_SERVE_FROZEN_SCORER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "obs/request_trace.h"
#include "serve/snapshot.h"

namespace subrec::serve {

/// One ranked recommendation.
struct ScoredPaper {
  int32_t paper = -1;
  double score = 0.0;
};

/// Which scoring engine ranks a request. Both produce bit-identical
/// scores (asserted by tests on every preset); they differ only in cost:
/// kGemm, what RecommendService serves with, scores each request as one
/// dense profile x candidate product (la::ServeScoreRows over candidate
/// tiles) with a fused sigmoid-mean epilogue; kPairwise walks
/// (profile x candidate) pairs one la::Dot at a time and is the per-pair
/// reference ranking the tests compare against.
enum class ScorerMode : int {
  kPairwise = 0,
  kGemm,
};

/// Wall-time attribution of one batched scoring pass, accumulated across
/// its tiles: the scoring kernel (gemm_ns) and the sigmoid-mean epilogue.
struct ScoreBatchStats {
  /// Always 0: the kernel reads candidate rows in place, so there is no
  /// gather stage any more. Kept because benchmark reports still read it.
  int64_t gather_ns = 0;
  int64_t gemm_ns = 0;
  int64_t epilogue_ns = 0;
};

/// Immutable forward-only scorer over frozen NPRec vectors, stored as
/// contiguous row-major slabs (one row per paper). PairScore and Score
/// reproduce the live model's post-fit math operation-for-operation
/// (sigmoid of the interest/influence dot product, mean over the profile),
/// so frozen top-N lists are bit-exact against NPRec::Score on the same
/// candidates. ScoreBatch reorganizes the same arithmetic into one dense
/// product per candidate tile without changing any element's operation
/// order, so the batched path is bit-exact against Score in turn. Thread-safe by
/// construction: all state is const after build; scratch is per-thread.
///
/// The influence rows are laid out by (discipline, topic) at construction,
/// ascending paper id within each group, so a filtered candidate list (the
/// union of a few topics' postings, walked in ascending id order) reads a
/// few ascending runs of rows instead of rows scattered over the slab.
/// Every influence read goes through the paper-id -> row map; paper ids
/// in and out of the API are unchanged.
class FrozenScorer {
 public:
  /// Copies the vector slabs from `data`, which stays intact, then lays
  /// the influence copy out in place.
  explicit FrozenScorer(const SnapshotData& data);

  /// Moves the vector slabs out of `data`, avoiding a transient second
  /// copy of the largest allocations in the model, and lays the influence
  /// slab out in place: the layout allocates one row, one bit per paper
  /// and the map, never a second slab. The text slab, which serving never
  /// reads, and the attribute arrays (years/disciplines/topics/profiles)
  /// are left untouched for the caller — CandidateIndex consumes the
  /// latter.
  explicit FrozenScorer(SnapshotData&& data);

  size_t num_papers() const { return interest_.rows(); }
  size_t dim() const { return interest_.cols(); }

  /// Pairwise correlation score y_hat(p,q) (Eq. 22): sigmoid of the
  /// interest(p) . influence(q) dot product.
  double PairScore(int32_t p, int32_t q) const;

  /// Mean PairScore of each candidate against the profile — exactly
  /// NPRec::Score. Zeros when the profile is empty. This is the per-pair
  /// oracle the batched path is tested against.
  std::vector<double> Score(const std::vector<int32_t>& profile,
                            const std::vector<int32_t>& candidates) const;

  /// Score via the batched engine: the profile's interest rows are packed
  /// once into a transposed block, la::ServeScoreRows multiplies it with
  /// each tile's candidate influence rows where they live in the slab, and
  /// a fused sigmoid + ascending-profile-order column-mean epilogue
  /// reduces the tile's logits. Bit-exact against Score().
  std::vector<double> ScoreBatch(const std::vector<int32_t>& profile,
                                 const std::vector<int32_t>& candidates) const;

  /// ScoreBatch writing into `scores` (resized capacity-preservingly):
  /// with warm per-thread scratch and sufficient `scores` capacity the
  /// call performs zero heap allocations. `stats` (nullable) accumulates
  /// per-stage wall time.
  void ScoreBatchInto(const std::vector<int32_t>& profile,
                      const std::vector<int32_t>& candidates,
                      std::vector<double>* scores,
                      ScoreBatchStats* stats) const;

  /// One user's slice of a stacked multi-request scoring pass.
  struct StackedRequest {
    /// The user's profile (interest row ids). May be empty: scores zero.
    const std::vector<int32_t>* profile = nullptr;
    /// Output, resized to candidates.size() capacity-preservingly.
    std::vector<double>* scores = nullptr;
  };

  /// Scores several profiles against ONE shared candidate list in a
  /// single pass: all profiles stack into one packed block, each
  /// candidate row is read once per tile for all of them, and the
  /// epilogue reduces each user's row segment independently (ascending
  /// profile order within the segment). Each user's scores are bit-exact
  /// against their solo Score()/ScoreBatch(). This is the coalesced path
  /// RecommendService::TopNBatch takes when queued requests share a
  /// candidate list.
  void ScoreStackedInto(const std::vector<StackedRequest>& requests,
                        const std::vector<int32_t>& candidates,
                        ScoreBatchStats* stats) const;

  /// The top `n` candidates by score, descending; ties break toward the
  /// lower paper id so rankings are deterministic across runs.
  std::vector<ScoredPaper> TopN(const std::vector<int32_t>& profile,
                                const std::vector<int32_t>& candidates,
                                int n) const;

  /// Same ranking, attributing scoring and selection wall time to the
  /// trace's kScore / kSelect stages (plus the kScoreGemm/kScoreEpilogue
  /// breakdown on the gemm path). `trace` may be null.
  std::vector<ScoredPaper> TopN(const std::vector<int32_t>& profile,
                                const std::vector<int32_t>& candidates, int n,
                                obs::RequestTrace* trace,
                                ScorerMode mode = ScorerMode::kGemm) const;

  /// TopN writing into `out` (cleared, capacity kept). With warm
  /// per-thread scratch, precomputed `scores` == nullptr and sufficient
  /// `out` capacity, the steady-state call performs zero heap allocations
  /// (asserted by the counting-allocator probe in tests). When `scores`
  /// is non-null it must hold candidates.size() precomputed scores (the
  /// stacked path) and the scoring stage is skipped.
  void TopNInto(const std::vector<int32_t>& profile,
                const std::vector<int32_t>& candidates, int n,
                ScorerMode mode, obs::RequestTrace* trace,
                const std::vector<double>* scores,
                std::vector<ScoredPaper>* out) const;

 private:
  void ScoreInto(const std::vector<int32_t>& profile,
                 const std::vector<int32_t>& candidates,
                 std::vector<double>* scores) const;

  /// Shared tile pipeline behind ScoreBatchInto (count == 1) and
  /// ScoreStackedInto. Raw span so the single-request path needs no
  /// transient container.
  void ScoreStackedCore(const StackedRequest* requests, size_t count,
                        const std::vector<int32_t>& candidates,
                        ScoreBatchStats* stats) const;

  /// Heap-based top-`keep` selection over (candidates[i], scores[i])
  /// preserving the (score desc, id asc) tie contract — same output as
  /// materialize + partial_sort, without holding the full ranked array
  /// when keep << |candidates|.
  void SelectTopN(const std::vector<int32_t>& candidates,
                  const std::vector<double>& scores, size_t keep,
                  std::vector<ScoredPaper>* out) const;

  /// Checks the slabs' shapes, then lays influence_ out by (discipline,
  /// topic) and fills row_of_. Papers fall into one group, keeping their
  /// rows, unless both attribute arrays hold one entry per paper.
  void LayOutInfluenceRows(const std::vector<int32_t>& disciplines,
                           const std::vector<int32_t>& topics);

  la::Matrix interest_;
  /// Influence rows grouped by (discipline, topic), groups in order of
  /// first appearance, ascending paper id within a group.
  la::Matrix influence_;
  /// row_of_[paper] is the paper's row in influence_.
  std::vector<int32_t> row_of_;
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_FROZEN_SCORER_H_
