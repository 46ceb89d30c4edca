#include "serve/frozen_scorer.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "la/exact_kernel.h"
#include "la/ops.h"
#include "la/score_math.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace subrec::serve {
namespace {

/// Candidate-tile bounds for the batched path. The kernel reads candidate
/// rows in place, so the tile bounds only the logits block (stacked profile
/// rows x tile doubles) that the kernel writes and the epilogue reads back:
/// ScoreTileWidth keeps it within kLogitsTileBytes, L1-sized. The floor
/// keeps the vectorized epilogue's rows long enough to amortize its
/// exp-table gathers.
constexpr size_t kScoreTileMax = 128;
constexpr size_t kScoreTileMin = 32;
constexpr size_t kLogitsTileBytes = 32 * 1024;

/// Widest multiple-of-16 tile (clamped to [kScoreTileMin, kScoreTileMax])
/// whose rows x tile logits block fits in kLogitsTileBytes. Tiling splits
/// only the candidate axis — every logit's dot product and every column's
/// epilogue order is unchanged — so the width is purely a locality
/// decision and any value produces bit-identical scores.
size_t ScoreTileWidth(size_t rows) {
  const size_t fit = kLogitsTileBytes / (rows * sizeof(double)) / 16 * 16;
  return std::clamp(fit, kScoreTileMin, kScoreTileMax);
}

/// Per-thread reusable buffers for the batched scoring pipeline. Growing
/// only (never shrunk), so after the first request of a given shape the
/// steady-state scoring loop performs zero heap allocations — asserted by
/// the counting-allocator probe in the observability tests.
struct ServeScratch {
  std::vector<double> packed;  // stacked profile interest rows, transposed
  std::vector<int32_t> rows;   // the candidate list mapped to slab rows
  std::vector<double> logits;  // kernel output block, one tile wide
  std::vector<double> scores;  // per-request scores (TopN convenience path)
};

ServeScratch& Scratch() {
  thread_local ServeScratch scratch;
  return scratch;
}

/// Grow-only resize: std::vector::resize never shrinks capacity, and we
/// track live extents separately, so warm scratch allocates nothing.
template <typename T>
void Ensure(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

/// The row of each of n papers once they are grouped by (discipline,
/// topic): groups in order of first appearance, ascending paper id within
/// a group. The ids are snapshot data, so they key an ordered map and
/// never size an array, and no choice of values can make the bucketing
/// cost more than O(n log groups) (a hash map of crafted colliding keys
/// could). Unless both arrays hold one entry per paper, every paper falls
/// into one group and keeps its row.
std::vector<int32_t> GroupedRows(const std::vector<int32_t>& disciplines,
                                 const std::vector<int32_t>& topics,
                                 size_t n) {
  const bool keyed = disciplines.size() == n && topics.size() == n;
  // First pass: each paper's group, written where its row will go, and
  // each group's size.
  std::vector<int32_t> row_of(n);
  std::map<std::pair<int32_t, int32_t>, int32_t> groups;
  std::vector<size_t> next;  // group sizes, then each group's next row
  for (size_t i = 0; i < n; ++i) {
    const auto key = keyed ? std::make_pair(disciplines[i], topics[i])
                           : std::make_pair(0, 0);
    const auto [it, fresh] =
        groups.try_emplace(key, static_cast<int32_t>(next.size()));
    if (fresh) next.push_back(0);
    row_of[i] = it->second;
    ++next[static_cast<size_t>(it->second)];
  }
  size_t first = 0;
  for (size_t& group_next : next) {
    const size_t size = group_next;
    group_next = first;
    first += size;
  }
  // Ascending ids take ascending rows within their group.
  for (size_t i = 0; i < n; ++i)
    row_of[i] = static_cast<int32_t>(next[static_cast<size_t>(row_of[i])]++);
  return row_of;
}

/// Moves row i of `m` to row row_of[i], in place: each cycle of the
/// permutation is walked once, carrying one row in a buffer, and one bit
/// per row marks the rows already placed.
void PermuteRows(const std::vector<int32_t>& row_of, la::Matrix* m) {
  // The walk visits rows in random order, so the row this many steps
  // ahead on the cycle is prefetched. At 1e5 x 48 rows in 24 groups on a
  // 4-vCPU Xeon (model 143) the permute took 35-40 ms without the
  // prefetch, 17-19 ms one step ahead and medians of 15-18 ms at 2 to 16.
  constexpr size_t kPrefetchSteps = 8;
  const size_t k = m->cols();
  if (k == 0) return;
  std::vector<bool> placed(m->rows(), false);
  std::vector<double> carry(k);
  for (size_t start = 0; start < m->rows(); ++start) {
    if (placed[start] || static_cast<size_t>(row_of[start]) == start)
      continue;
    std::copy_n(m->row_data(start), k, carry.data());
    size_t at = start, ahead = start;
    for (size_t j = 0; j < kPrefetchSteps; ++j)
      ahead = static_cast<size_t>(row_of[ahead]);
    do {
      // `carry` holds paper `at`'s row; its target still holds its own
      // paper's row, which is carried on.
      at = static_cast<size_t>(row_of[at]);
      ahead = static_cast<size_t>(row_of[ahead]);
#if defined(__GNUC__) || defined(__clang__)
      const char* row = reinterpret_cast<const char*>(m->row_data(ahead));
      const size_t bytes = k * sizeof(double);
      for (size_t off = 0; off < bytes; off += 64)
        __builtin_prefetch(row + off, 1);
      __builtin_prefetch(row + bytes - 1, 1);  // an unaligned row's last line
#endif
      std::swap_ranges(carry.begin(), carry.end(), m->row_data(at));
      placed[at] = true;
    } while (at != start);
  }
}

/// The ranking order: score descending, ties toward the lower paper id.
/// Used directly as the heap comparator — under it the heap front is the
/// WORST element kept so far, which is exactly the eviction candidate.
bool Better(const ScoredPaper& a, const ScoredPaper& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.paper < b.paper;
}

}  // namespace

FrozenScorer::FrozenScorer(const SnapshotData& data)
    : interest_(data.interest), influence_(data.influence) {
  LayOutInfluenceRows(data.disciplines, data.topics);
}

FrozenScorer::FrozenScorer(SnapshotData&& data)
    : interest_(std::move(data.interest)),
      influence_(std::move(data.influence)) {
  LayOutInfluenceRows(data.disciplines, data.topics);
}

void FrozenScorer::LayOutInfluenceRows(const std::vector<int32_t>& disciplines,
                                       const std::vector<int32_t>& topics) {
  SUBREC_CHECK_EQ(interest_.rows(), influence_.rows());
  SUBREC_CHECK(interest_.rows() == 0 ||
               interest_.cols() == influence_.cols());
  row_of_ = GroupedRows(disciplines, topics, influence_.rows());
  PermuteRows(row_of_, &influence_);
}

double FrozenScorer::PairScore(int32_t p, int32_t q) const {
  SUBREC_DCHECK_GE(p, 0);
  SUBREC_DCHECK_LT(static_cast<size_t>(p), interest_.rows());
  SUBREC_DCHECK_GE(q, 0);
  SUBREC_DCHECK_LT(static_cast<size_t>(q), influence_.rows());
  const double logit = la::Dot(
      interest_.row_data(static_cast<size_t>(p)),
      influence_.row_data(static_cast<size_t>(row_of_[static_cast<size_t>(q)])),
      interest_.cols());
  return la::ScoreSigmoid(logit);
}

void FrozenScorer::ScoreInto(const std::vector<int32_t>& profile,
                             const std::vector<int32_t>& candidates,
                             std::vector<double>* scores) const {
  scores->assign(candidates.size(), 0.0);
  if (profile.empty()) return;
  for (size_t c = 0; c < candidates.size(); ++c) {
    double total = 0.0;
    for (int32_t p : profile) total += PairScore(p, candidates[c]);
    (*scores)[c] = total / static_cast<double>(profile.size());
  }
}

std::vector<double> FrozenScorer::Score(
    const std::vector<int32_t>& profile,
    const std::vector<int32_t>& candidates) const {
  std::vector<double> scores;
  ScoreInto(profile, candidates, &scores);
  return scores;
}

std::vector<double> FrozenScorer::ScoreBatch(
    const std::vector<int32_t>& profile,
    const std::vector<int32_t>& candidates) const {
  std::vector<double> scores;
  ScoreBatchInto(profile, candidates, &scores, nullptr);
  return scores;
}

void FrozenScorer::ScoreBatchInto(const std::vector<int32_t>& profile,
                                  const std::vector<int32_t>& candidates,
                                  std::vector<double>* scores,
                                  ScoreBatchStats* stats) const {
  const StackedRequest one{&profile, scores};
  ScoreStackedCore(&one, 1, candidates, stats);
}

void FrozenScorer::ScoreStackedInto(const std::vector<StackedRequest>& requests,
                                    const std::vector<int32_t>& candidates,
                                    ScoreBatchStats* stats) const {
  ScoreStackedCore(requests.data(), requests.size(), candidates, stats);
}

void FrozenScorer::ScoreStackedCore(const StackedRequest* requests,
                                    size_t count,
                                    const std::vector<int32_t>& candidates,
                                    ScoreBatchStats* stats) const {
  const size_t n = candidates.size();
  const size_t k = dim();
  size_t m_total = 0;
  for (size_t r = 0; r < count; ++r) {
    SUBREC_DCHECK(requests[r].profile != nullptr);
    SUBREC_DCHECK(requests[r].scores != nullptr);
    // Empty-profile segments stay at the zeros written here — same as the
    // oracle's empty-profile contract.
    requests[r].scores->assign(n, 0.0);
    m_total += requests[r].profile->size();
  }
  if (n == 0 || m_total == 0) return;
  // NOTE: k == 0 is NOT an early-out. The oracle scores a degenerate
  // zero-dim model as sigmoid(0) = 0.5 per pair, and the pipeline below
  // reproduces that (the kernel writes +0.0 logits, the epilogue maps them
  // through the same sigmoid and mean).

  const size_t tile = ScoreTileWidth(m_total);
  const size_t stride = la::ServeProfileStride(m_total);
  ServeScratch& s = Scratch();
  Ensure(&s.packed, k * stride);
  Ensure(&s.logits, m_total * tile);

  // Pack every profile's interest rows into one transposed block, column
  // p = stacked row p, in request order then ascending profile order — the
  // epilogue's per-segment mean walks rows in exactly the order the oracle
  // walks the profile. The padding columns up to the stride are zero.
  double* packed = s.packed.data();
  size_t row = 0;
  for (size_t r = 0; r < count; ++r) {
    for (int32_t pid : *requests[r].profile) {
      SUBREC_DCHECK_GE(pid, 0);
      SUBREC_DCHECK_LT(static_cast<size_t>(pid), interest_.rows());
      const double* v = interest_.row_data(static_cast<size_t>(pid));
      for (size_t d = 0; d < k; ++d) packed[d * stride + row] = v[d];
      ++row;
    }
  }
  for (size_t d = 0; d < k; ++d)
    for (size_t p = m_total; p < stride; ++p) packed[d * stride + p] = 0.0;

  // Map the whole list to slab rows once, so the kernel's prefetch
  // across tile boundaries reads mapped rows too.
  Ensure(&s.rows, n);
  int32_t* rows = s.rows.data();
  for (size_t j = 0; j < n; ++j) {
    SUBREC_DCHECK_GE(candidates[j], 0);
    SUBREC_DCHECK_LT(static_cast<size_t>(candidates[j]), row_of_.size());
    rows[j] = row_of_[static_cast<size_t>(candidates[j])];
  }

  const bool timed = stats != nullptr;
  for (size_t j0 = 0; j0 < n; j0 += tile) {
    const size_t tw = std::min(tile, n - j0);
    const int64_t t0 = timed ? obs::NowNs() : 0;
    // The rest of the list past this tile is readable: the kernel
    // prefetches across the tile boundary.
    la::ServeScoreRows(packed, m_total, influence_.data(), k, rows + j0, tw,
                       n - j0, s.logits.data(), tw);
    const int64_t t1 = timed ? obs::NowNs() : 0;
    size_t row0 = 0;
    for (size_t r = 0; r < count; ++r) {
      const size_t m = requests[r].profile->size();
      if (m > 0) {
        la::ServeSigmoidMeanColumns(s.logits.data() + row0 * tw, tw, m, tw,
                                    static_cast<double>(m),
                                    requests[r].scores->data() + j0);
      }
      row0 += m;
    }
    if (timed) {
      const int64_t t2 = obs::NowNs();
      stats->gemm_ns += t1 - t0;
      stats->epilogue_ns += t2 - t1;
    }
  }
}

void FrozenScorer::SelectTopN(const std::vector<int32_t>& candidates,
                              const std::vector<double>& scores, size_t keep,
                              std::vector<ScoredPaper>* out) const {
  SUBREC_DCHECK_EQ(candidates.size(), scores.size());
  out->clear();
  if (keep == 0) return;
  const size_t n = candidates.size();
  if (keep >= n) {
    out->resize(n);
    for (size_t i = 0; i < n; ++i) (*out)[i] = {candidates[i], scores[i]};
    std::sort(out->begin(), out->end(), Better);
    return;
  }
  // Heap of the best `keep` seen so far. Under the Better comparator the
  // front is the worst kept element, so each remaining candidate needs one
  // comparison against the front and (rarely) a log(keep) sift. Same output
  // as materialize-all + partial_sort — Better is a strict total order
  // (paper id breaks every score tie) so the selected set and its final
  // sorted order are both unique — without the O(n) ScoredPaper array.
  out->resize(keep);
  for (size_t i = 0; i < keep; ++i) (*out)[i] = {candidates[i], scores[i]};
  std::make_heap(out->begin(), out->end(), Better);
  for (size_t i = keep; i < n; ++i) {
    const ScoredPaper cand{candidates[i], scores[i]};
    if (Better(cand, out->front())) {
      std::pop_heap(out->begin(), out->end(), Better);
      out->back() = cand;
      std::push_heap(out->begin(), out->end(), Better);
    }
  }
  std::sort_heap(out->begin(), out->end(), Better);
}

std::vector<ScoredPaper> FrozenScorer::TopN(
    const std::vector<int32_t>& profile,
    const std::vector<int32_t>& candidates, int n) const {
  return TopN(profile, candidates, n, nullptr);
}

std::vector<ScoredPaper> FrozenScorer::TopN(
    const std::vector<int32_t>& profile,
    const std::vector<int32_t>& candidates, int n, obs::RequestTrace* trace,
    ScorerMode mode) const {
  std::vector<ScoredPaper> ranked;
  TopNInto(profile, candidates, n, mode, trace, nullptr, &ranked);
  return ranked;
}

void FrozenScorer::TopNInto(const std::vector<int32_t>& profile,
                            const std::vector<int32_t>& candidates, int n,
                            ScorerMode mode, obs::RequestTrace* trace,
                            const std::vector<double>* scores,
                            std::vector<ScoredPaper>* out) const {
  // Function-local statics: the registry lookups (which may allocate)
  // happen once per process, not per request.
  static obs::Counter* const pairwise_requests =
      obs::MetricsRegistry::Global().GetCounter("serve.score.requests.pairwise");
  static obs::Counter* const gemm_requests =
      obs::MetricsRegistry::Global().GetCounter("serve.score.requests.gemm");
  static obs::Counter* const prescored_requests =
      obs::MetricsRegistry::Global().GetCounter("serve.score.requests.stacked");
  static obs::Counter* const pairs_scored =
      obs::MetricsRegistry::Global().GetCounter("serve.score.pairs");

  if (scores == nullptr) {
    ServeScratch& s = Scratch();
    obs::StageTimer timer(trace, obs::Stage::kScore);
    pairs_scored->Increment(
        static_cast<int64_t>(profile.size() * candidates.size()));
    if (mode == ScorerMode::kPairwise) {
      pairwise_requests->Increment();
      ScoreInto(profile, candidates, &s.scores);
    } else {
      gemm_requests->Increment();
      ScoreBatchStats stats;
      ScoreBatchInto(profile, candidates, &s.scores,
                     trace != nullptr ? &stats : nullptr);
      if (trace != nullptr) {
        trace->stage_ns[static_cast<int>(obs::Stage::kScoreGemm)] +=
            stats.gemm_ns;
        trace->stage_ns[static_cast<int>(obs::Stage::kScoreEpilogue)] +=
            stats.epilogue_ns;
      }
    }
    scores = &s.scores;
  } else {
    // Stacked path: scoring already happened (and was counted) in
    // RecommendService::TopNBatch; only selection remains.
    prescored_requests->Increment();
    SUBREC_DCHECK_EQ(scores->size(), candidates.size());
  }
  obs::StageTimer timer(trace, obs::Stage::kSelect);
  const size_t keep =
      std::min(candidates.size(), static_cast<size_t>(n < 0 ? 0 : n));
  SelectTopN(candidates, *scores, keep, out);
}

}  // namespace subrec::serve
