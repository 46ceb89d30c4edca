#include "serve/candidate_index.h"

#include <algorithm>
#include <atomic>
#include <compare>
#include <map>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "par/parallel.h"

namespace subrec::serve {

const char* CandidateSourceName(CandidateSource source) {
  switch (source) {
    case CandidateSource::kFullPool:
      return "full_pool";
    case CandidateSource::kTopicPruned:
      return "topic_pruned";
    case CandidateSource::kDisciplineFiltered:
      return "discipline_filtered";
    case CandidateSource::kFallbackPool:
      return "fallback_pool";
    case CandidateSource::kUnknownUser:
      return "unknown_user";
    case CandidateSource::kAnnEmbedding:
      return "ann_embedding";
  }
  return "unknown";
}

namespace {

/// Builds one user's ANN candidate list: mean profile interest vector as
/// the query, year-window filter on the hits, ascending paper ids — the
/// same output contract as the filtered branches. Returns false (leaving
/// `out` empty) for users ANN cannot serve: empty profiles and queries
/// whose every hit fell outside the year window.
///
/// ServingState::FromSnapshot validates the deserialized index against the
/// snapshot before any query runs — every external id in [0, years.size())
/// and index dim == embedding dim — so hit ids index `data.years` safely
/// here and the Search status CHECK below guards programmer errors only.
bool AnnCandidatesForUser(const SnapshotData& data,
                          const CandidateIndexOptions& options,
                          const ann::Index& ann_index,
                          const std::vector<int32_t>& profile,
                          std::vector<int32_t>* out,
                          ann::SearchStats* stats,
                          int64_t* hits_returned) {
  if (profile.empty() || data.interest.rows() == 0) return false;
  const size_t dim = data.interest.cols();
  std::vector<double> query(dim, 0.0);
  for (int32_t pid : profile) {
    const double* v = data.interest.row_data(static_cast<size_t>(pid));
    for (size_t d = 0; d < dim; ++d) query[d] += v[d];
  }
  const double inv = 1.0 / static_cast<double>(profile.size());
  for (double& q : query) q *= inv;
  std::vector<ann::Neighbor> hits;
  const Status status =
      ann_index.Search(query, options.ann_candidates,
                       std::max(options.ann_ef, options.ann_candidates),
                       &hits, stats);
  SUBREC_CHECK(status.ok()) << status.ToString();
  *hits_returned += static_cast<int64_t>(hits.size());
  out->clear();
  out->reserve(hits.size());
  for (const ann::Neighbor& hit : hits) {
    const auto p = static_cast<size_t>(hit.id);
    if (data.years[p] > options.min_year && data.years[p] <= options.max_year)
      out->push_back(hit.id);
  }
  std::sort(out->begin(), out->end());
  return !out->empty();
}

/// What a filtered candidate list depends on: the profile's distinct
/// topic ids (untopiced papers excluded) and discipline ids, each sorted.
/// A filter that is switched off leaves its half empty, so every user it
/// would have told apart shares one list.
struct ListKey {
  std::vector<int32_t> topics;
  std::vector<int32_t> disciplines;
  auto operator<=>(const ListKey&) const = default;
};

ListKey KeyForProfile(const SnapshotData& data,
                      const CandidateIndexOptions& options,
                      const std::vector<int32_t>& profile) {
  ListKey key;
  for (int32_t pid : profile) {
    const auto p = static_cast<size_t>(pid);
    if (options.prune_topics && data.topics[p] >= 0)
      key.topics.push_back(data.topics[p]);
    if (options.filter_disciplines)
      key.disciplines.push_back(data.disciplines[p]);
  }
  for (std::vector<int32_t>* ids : {&key.topics, &key.disciplines}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
  return key;
}

/// Builds the filtered list of `key` into `out` (ascending paper ids) and
/// returns the branch that produced it. kFallbackPool leaves `out` empty:
/// every filter came back empty and the caller serves the full pool.
CandidateSource BuildFilteredList(const SnapshotData& data,
                                  const CandidateIndexOptions& options,
                                  const ListKey& key,
                                  const CandidateIndex& index,
                                  std::vector<int32_t>* out) {
  auto discipline_ok = [&](int32_t p) {
    return !options.filter_disciplines ||
           std::binary_search(key.disciplines.begin(), key.disciplines.end(),
                              data.disciplines[static_cast<size_t>(p)]);
  };
  // Union of the key's topic postings, discipline-filtered. Each paper has
  // one topic, so distinct topics' postings are disjoint; each is already
  // sorted and year-windowed, so the union is a plain merge.
  for (int32_t t : key.topics) {
    const auto mid = static_cast<std::ptrdiff_t>(out->size());
    for (int32_t p : index.PapersForTopic(t))
      if (discipline_ok(p)) out->push_back(p);
    std::inplace_merge(out->begin(), out->begin() + mid, out->end());
  }
  if (!out->empty()) return CandidateSource::kTopicPruned;
  for (int32_t p : index.AllNewPapers())
    if (discipline_ok(p)) out->push_back(p);
  if (!out->empty()) return CandidateSource::kDisciplineFiltered;
  // A profile whose disciplines vanished from the window still needs
  // something to rank.
  return CandidateSource::kFallbackPool;
}

}  // namespace

CandidateIndex::CandidateIndex(const SnapshotData& data,
                               const CandidateIndexOptions& options,
                               const ann::Index* ann_index) {
  const size_t n = data.years.size();
  SUBREC_CHECK_EQ(data.disciplines.size(), n);
  SUBREC_CHECK_EQ(data.topics.size(), n);
  const bool use_ann = options.retrieval == RetrievalMode::kAnnEmbedding;
  SUBREC_CHECK(!use_ann || ann_index != nullptr)
      << "kAnnEmbedding retrieval requested without an ann::Index";

  std::vector<int32_t> pool;
  for (size_t p = 0; p < n; ++p) {
    if (data.years[p] > options.min_year && data.years[p] <= options.max_year) {
      pool.push_back(static_cast<int32_t>(p));
      if (data.topics[p] >= 0)
        by_topic_[data.topics[p]].push_back(static_cast<int32_t>(p));
    }
  }
  lists_.push_back(std::move(pool));

  const size_t users = data.profiles.size();
  per_user_list_.assign(users, 0);
  per_user_source_.assign(users, CandidateSource::kFullPool);

  // ANN pass first: per-user graph queries fan out over the pool (each
  // user's list lands in its own slot, so the result is independent of
  // SUBREC_NUM_THREADS); users ANN could not serve fall through to the
  // filtered branches below exactly as in kFiltered mode.
  if (use_ann && users > 0) {
    std::vector<std::vector<int32_t>> ann_lists(users);
    std::atomic<int64_t> queries{0}, nodes{0}, evals{0}, returned{0}, kept{0};
    par::ParallelFor(users, 8, [&](size_t begin, size_t end) {
      ann::SearchStats stats;
      int64_t local_queries = 0, local_returned = 0, local_kept = 0;
      for (size_t u = begin; u < end; ++u) {
        if (data.profiles[u].empty()) continue;
        ++local_queries;
        if (AnnCandidatesForUser(data, options, *ann_index, data.profiles[u],
                                 &ann_lists[u], &stats, &local_returned))
          local_kept += static_cast<int64_t>(ann_lists[u].size());
      }
      queries.fetch_add(local_queries, std::memory_order_relaxed);
      nodes.fetch_add(stats.nodes_visited, std::memory_order_relaxed);
      evals.fetch_add(stats.distance_evals, std::memory_order_relaxed);
      returned.fetch_add(local_returned, std::memory_order_relaxed);
      kept.fetch_add(local_kept, std::memory_order_relaxed);
    });
    // The ann.* family: build-time retrieval work plus a recall proxy —
    // the fraction of returned neighbors that survived the year window
    // (low values mean the graph keeps surfacing out-of-window papers).
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("ann.queries")->Increment(queries.load());
    registry.GetCounter("ann.nodes_visited")->Increment(nodes.load());
    registry.GetCounter("ann.distance_evals")->Increment(evals.load());
    registry.GetGauge("ann.ef")->Set(static_cast<double>(
        std::max(options.ann_ef, options.ann_candidates)));
    registry.GetGauge("ann.window_hit_rate")
        ->Set(returned.load() > 0
                  ? static_cast<double>(kept.load()) /
                        static_cast<double>(returned.load())
                  : 0.0);
    for (size_t u = 0; u < users; ++u) {
      if (ann_lists[u].empty()) continue;  // not served: filtered below
      per_user_list_[u] = static_cast<uint32_t>(lists_.size());
      per_user_source_[u] = CandidateSource::kAnnEmbedding;
      lists_.push_back(std::move(ann_lists[u]));
    }
  }

  // Filtered pass: one list per distinct key, built when a user first
  // needs it. Empty profiles keep list 0, the full pool.
  std::map<ListKey, std::pair<uint32_t, CandidateSource>> list_of_key;
  for (size_t u = 0; u < users; ++u) {
    const std::vector<int32_t>& profile = data.profiles[u];
    if (per_user_source_[u] == CandidateSource::kAnnEmbedding ||
        profile.empty())
      continue;
    auto [it, inserted] =
        list_of_key.try_emplace(KeyForProfile(data, options, profile));
    if (inserted) {
      std::vector<int32_t> list;
      const CandidateSource source =
          BuildFilteredList(data, options, it->first, *this, &list);
      uint32_t index = 0;  // the fallback shares the full pool
      if (source != CandidateSource::kFallbackPool) {
        index = static_cast<uint32_t>(lists_.size());
        lists_.push_back(std::move(list));
      }
      it->second = {index, source};
    }
    per_user_list_[u] = it->second.first;
    per_user_source_[u] = it->second.second;
  }
}

const std::vector<int32_t>& CandidateIndex::CandidatesFor(
    int32_t user) const {
  if (user < 0 || static_cast<size_t>(user) >= per_user_list_.size())
    return lists_[0];
  return lists_[per_user_list_[static_cast<size_t>(user)]];
}

CandidateSource CandidateIndex::SourceFor(int32_t user) const {
  if (user < 0 || static_cast<size_t>(user) >= per_user_source_.size())
    return CandidateSource::kUnknownUser;
  return per_user_source_[static_cast<size_t>(user)];
}

const std::vector<int32_t>& CandidateIndex::PapersForTopic(
    int32_t topic) const {
  const auto it = by_topic_.find(topic);
  return it == by_topic_.end() ? empty_ : it->second;
}

}  // namespace subrec::serve
