#ifndef SUBREC_SERVE_CANDIDATE_INDEX_H_
#define SUBREC_SERVE_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ann/index.h"
#include "serve/snapshot.h"

namespace subrec::serve {

/// How per-user candidate lists are assembled at index-build time.
enum class RetrievalMode : int {
  /// Attribute filtering: year window + discipline filter + inverted-topic
  /// pruning. O(new-paper pool) per user.
  kFiltered = 0,
  /// Embedding retrieval: query the frozen ann::Index with the user's mean
  /// profile interest vector, then apply the year window. O(graph walk)
  /// per user — the only mode that scales past ~1e4-paper pools.
  kAnnEmbedding,
};

struct CandidateIndexOptions {
  /// Candidates are "new" papers: year strictly greater than this (the
  /// snapshot's split year by convention). INT32_MIN disables the floor.
  int32_t min_year = 0;
  /// Inclusive upper year bound — the serving-time recency window.
  int32_t max_year = INT32_MAX;
  /// Keep only candidates whose discipline appears in the user's profile.
  bool filter_disciplines = true;
  /// Prune via the inverted topic index: keep only candidates sharing a
  /// topic with the user's profile. Users whose pruned set would be empty
  /// fall back to the discipline-filtered set.
  bool prune_topics = true;
  RetrievalMode retrieval = RetrievalMode::kFiltered;
  /// kAnnEmbedding: neighbors requested per user (before year filtering).
  int ann_candidates = 256;
  /// kAnnEmbedding: search beam width (clamped up to ann_candidates).
  int ann_ef = 128;
};

/// Which retrieval branch produced a user's candidate list. Recorded at
/// build time and surfaced per request so traces can attribute candidate
/// cost to the branch that actually ran.
enum class CandidateSource : int {
  /// Empty profile: the full new-paper pool, unfiltered.
  kFullPool = 0,
  /// Inverted-topic-index union, discipline-filtered.
  kTopicPruned,
  /// Topic pruning off or empty: discipline-filtered pool scan.
  kDisciplineFiltered,
  /// Every filter came back empty: unfiltered pool as a last resort.
  kFallbackPool,
  /// User id outside the profile table (served the full pool).
  kUnknownUser,
  /// ANN graph walk over the embedding index, year-window filtered.
  kAnnEmbedding,
};

/// Number of CandidateSource values — sized for per-source counter arrays.
inline constexpr int kNumCandidateSources =
    static_cast<int>(CandidateSource::kAnnEmbedding) + 1;

/// Stable static-storage name ("full_pool", "topic_pruned", ...) — safe to
/// stash in a RequestTrace without allocating.
const char* CandidateSourceName(CandidateSource source);

/// Precomputed per-user candidate sets over the frozen corpus — the online
/// analogue of what rec::BuildCandidateSet assembles offline per eval run.
/// A coarse inverted topic index drives pruning; users with no usable
/// profile fall back to the full new-paper pool. Immutable after build.
///
/// A filtered list depends only on the profile's distinct topic and
/// discipline ids, so each distinct set is built once and every user
/// holding it shares the one list (the same address, which lets the
/// service stack their requests into one scoring pass). Empty-profile,
/// fallback and unknown users all share the full new-paper pool; ANN
/// users keep one list each.
class CandidateIndex {
 public:
  /// `ann_index` is the frozen embedding index (nullable). Checked
  /// programmer error to request RetrievalMode::kAnnEmbedding without one
  /// — ServingState::FromSnapshot turns that into a Status first. Under
  /// kAnnEmbedding the per-user queries run through par::ParallelFor;
  /// results are deterministic for any SUBREC_NUM_THREADS because each
  /// user's query is independent and lands in its own slot.
  CandidateIndex(const SnapshotData& data,
                 const CandidateIndexOptions& options,
                 const ann::Index* ann_index = nullptr);

  /// The precomputed candidate list of `user` (ascending paper ids).
  /// Unknown users get the full new-paper pool. Users with the same list
  /// get the same reference.
  const std::vector<int32_t>& CandidatesFor(int32_t user) const;

  /// The retrieval branch that built `user`'s list (kUnknownUser for ids
  /// outside the profile table).
  CandidateSource SourceFor(int32_t user) const;

  /// All in-window new papers, ascending.
  const std::vector<int32_t>& AllNewPapers() const { return lists_[0]; }

  /// Inverted index: in-window new papers of one topic, ascending.
  const std::vector<int32_t>& PapersForTopic(int32_t topic) const;

  size_t num_users() const { return per_user_list_.size(); }
  size_t num_new_papers() const { return lists_[0].size(); }

 private:
  /// Every distinct candidate list; lists_[0] is the full new-paper pool.
  std::vector<std::vector<int32_t>> lists_;
  /// Per user: the index of its list in lists_, and the branch that built
  /// it.
  std::vector<uint32_t> per_user_list_;
  std::vector<CandidateSource> per_user_source_;
  /// In-window new papers per topic id, up to the largest such topic.
  std::vector<std::vector<int32_t>> by_topic_;
  std::vector<int32_t> empty_;
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_CANDIDATE_INDEX_H_
