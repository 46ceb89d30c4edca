#include "ann/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "common/rng.h"
#include "common/wire.h"
#include "la/exact_kernel.h"
#include "par/parallel.h"

// Beam search is memory-latency bound: each expansion gathers up to 2M
// link rows and vectors scattered across the arena. Hinting the next
// frontier candidate's row while the current one is scored hides a good
// part of that latency; on non-GNU compilers the hint just disappears.
#if defined(__GNUC__) || defined(__clang__)
#define SUBREC_ANN_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define SUBREC_ANN_PREFETCH(addr)
#endif

namespace subrec::ann {
namespace {

// "SUBRANN1" read as a little-endian u64.
constexpr uint64_t kMagic = 0x314E4E4152425553ULL;
constexpr uint32_t kVersion = 1;
// Geometric levels rarely exceed ~log_M(n); the cap only bounds adversarial
// deserialized input and the (astronomically unlikely) long random tail.
constexpr int32_t kMaxLevelCap = 30;
// Insertion batches double in size up to this cap. Within a batch nodes
// plan against the pre-batch graph only, so the cap bounds how much of the
// corpus any insertion is blind to once the graph is large.
constexpr size_t kMaxBatch = 1024;
// Insertions per ParallelFor chunk: amortizes one scratch allocation per
// chunk without starving the pool on mid-sized batches.
constexpr size_t kBuildGrain = 16;
// Upper bound on ef_construction, enforced identically by Build and
// Deserialize so every index that can be built can also be loaded.
constexpr uint32_t kMaxEfConstruction = uint32_t{1} << 20;

/// Level for node `i`: geometric with ratio 1/M, from a hash of (seed, i)
/// alone — independent of thread count, insertion order, and batch shape.
int32_t LevelForNode(uint64_t seed, size_t i, double mult) {
  const uint64_t h = SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(i)));
  // (0, 1]: +1 keeps log() finite; >> 11 keeps the 53-bit double mantissa.
  const double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
  const auto level = static_cast<int32_t>(-std::log(u) * mult);
  return std::min(level, kMaxLevelCap);
}

/// 4-ary heap primitives over a reused vector; `top_before(a, b)` says a
/// belongs above b (std::less -> min-heap, std::greater -> max-heap). The
/// top element and pop order are value-determined, and every DistNode in a
/// layer search is distinct (one entry per node, ids break distance ties),
/// so replacing the binary std::push_heap/pop_heap with a shallower 4-ary
/// tree changes no traversal decision — only the constant factor on the
/// tens of millions of sift steps a bulk build performs.
template <typename T, typename Cmp>
void HeapPush(std::vector<T>* heap, const T item, Cmp top_before) {
  auto& v = *heap;
  size_t i = v.size();
  v.push_back(item);
  while (i > 0) {
    const size_t p = (i - 1) >> 2;
    if (!top_before(item, v[p])) break;
    v[i] = v[p];
    i = p;
  }
  v[i] = item;
}

/// Puts `item` into hole `i` of the heap and sifts it down: the one
/// sift-down loop behind HeapReplaceTop, HeapPop and Heapify.
template <typename T, typename Cmp>
void SiftDown(std::vector<T>* heap, size_t i, const T item, Cmp top_before) {
  auto& v = *heap;
  const size_t n = v.size();
  for (;;) {
    const size_t c0 = 4 * i + 1;
    if (c0 >= n) break;
    size_t m = c0;
    const size_t end = c0 + 4 < n ? c0 + 4 : n;
    for (size_t c = c0 + 1; c < end; ++c)
      if (top_before(v[c], v[m])) m = c;
    if (!top_before(v[m], item)) break;
    v[i] = v[m];
    i = m;
  }
  v[i] = item;
}

/// Replaces the top element and restores the heap in one sift-down. For a
/// full bounded heap this is the same resulting set as push-then-pop when
/// the new item beats the top (the displaced element is exactly the old
/// top), at roughly half the sift work.
template <typename T, typename Cmp>
void HeapReplaceTop(std::vector<T>* heap, const T item, Cmp top_before) {
  SiftDown(heap, 0, item, top_before);
}

template <typename T, typename Cmp>
void HeapPop(std::vector<T>* heap, Cmp top_before) {
  const T item = heap->back();
  heap->pop_back();
  if (!heap->empty()) SiftDown(heap, 0, item, top_before);
}

/// Floyd bottom-up heapify: O(n) sift-downs, against the O(n log n) full
/// sort it replaces on the SearchLayer result. Consumers pop lazily and
/// the neighbor selection usually stops well before draining the heap, so
/// most of the ordering work the sort used to do is never needed. Popping
/// distinct elements ascending is exactly the sorted order, so nothing
/// downstream can tell the difference decision-wise.
template <typename T, typename Cmp>
void Heapify(std::vector<T>* heap, Cmp top_before) {
  const size_t n = heap->size();
  if (n < 2) return;
  for (size_t i = ((n - 2) >> 2) + 1; i-- > 0;)
    SiftDown(heap, i, (*heap)[i], top_before);
}

}  // namespace

void HnswIndex::SearchScratch::NextEpoch(size_t n) {
  if (stamp.size() < n) stamp.assign(n, 0);
  ++epoch;
  if (epoch == 0) {  // uint8 wrapped: stale stamps could alias, clear.
    std::fill(stamp.begin(), stamp.end(), uint8_t{0});
    epoch = 1;
  }
}

int32_t* HnswIndex::LinkRow(size_t node, int32_t level) {
  if (level == 0) return level0_.data() + node * (1 + cap0_);
  return upper_.data() + (upper_row_[node] + static_cast<size_t>(level) - 1) *
                             (1 + cap_upper_);
}

const int32_t* HnswIndex::LinkRow(size_t node, int32_t level) const {
  if (level == 0) return level0_.data() + node * (1 + cap0_);
  return upper_.data() + (upper_row_[node] + static_cast<size_t>(level) - 1) *
                             (1 + cap_upper_);
}

void HnswIndex::AllocateArena() {
  const size_t n = ids_.size();
  level0_.assign(n * (1 + cap0_), 0);
  upper_row_.resize(n);
  size_t rows = 0;
  for (size_t i = 0; i < n; ++i) {
    upper_row_[i] = rows;
    rows += static_cast<size_t>(levels_[i]);
  }
  upper_.assign(rows * (1 + cap_upper_), 0);
}

double HnswIndex::Dist(int32_t node, const double* query) const {
  const double* v = vectors_.data() + static_cast<size_t>(node) * dim_;
  double dot = 0.0;
  for (size_t d = 0; d < dim_; ++d) dot += query[d] * v[d];
  return -dot;  // Max inner product as min distance.
}

void HnswIndex::GreedyStep(const double* query, int32_t level, int32_t* cur,
                           double* cur_dist, SearchScratch* scratch,
                           SearchStats* stats) const {
  if (scratch->batch_dots.size() < MaxRowCapacity())
    scratch->batch_dots.resize(MaxRowCapacity());
  bool improved = true;
  while (improved) {
    improved = false;
    if (stats != nullptr) ++stats->nodes_visited;
    const int32_t* row = LinkRow(static_cast<size_t>(*cur), level);
    const auto count = static_cast<size_t>(row[0]);
    if (count == 0) break;
    // Link rows are contiguous, so the row feeds the batched kernel
    // directly. The dots are a pure function of the graph, so evaluating
    // them up front and scanning sequentially takes the exact decisions
    // the one-at-a-time loop took.
    la::AnnDotBatch(query, vectors_.data(), dim_, row + 1, count,
                    scratch->batch_dots.data());
    if (stats != nullptr) stats->distance_evals += static_cast<int64_t>(count);
    for (size_t t = 0; t < count; ++t) {
      const int32_t nb = row[1 + t];
      const double d = -scratch->batch_dots[t];
      // Strict improvement, node id as tiebreak: a total order, so the
      // walk can neither cycle nor depend on evaluation timing.
      if (d < *cur_dist || (d == *cur_dist && nb < *cur)) {
        *cur_dist = d;
        *cur = nb;
        improved = true;
      }
    }
  }
}

void HnswIndex::SearchLayer(const double* query, int32_t entry, size_t ef,
                            int32_t level, SearchScratch* scratch,
                            std::vector<DistNode>* out,
                            SearchStats* stats) const {
  scratch->NextEpoch(ids_.size());
  // `frontier` pops closest-first; `best` tracks the ef closest seen so
  // far with its worst member on top. Pair order ties on node id, so the
  // expansion sequence is a pure function of the graph. Both heaps live
  // on reused scratch vectors so a warmed search never allocates.
  auto& frontier = scratch->frontier;
  auto& best = scratch->best;
  frontier.clear();
  best.clear();
  auto& batch = scratch->batch_ids;
  if (batch.size() < MaxRowCapacity()) {
    batch.resize(MaxRowCapacity());
    scratch->batch_dots.resize(MaxRowCapacity());
  }
  const double entry_dist = Dist(entry, query);
  if (stats != nullptr) ++stats->distance_evals;
  frontier.emplace_back(entry_dist, entry);
  best.emplace_back(entry_dist, entry);
  scratch->Mark(entry);
  while (!frontier.empty()) {
    const DistNode cand = frontier.front();
    if (best.size() >= ef && cand > best.front()) break;
    HeapPop(&frontier, std::less<DistNode>{});
    if (!frontier.empty()) {
      const auto next = static_cast<size_t>(frontier.front().second);
      SUBREC_ANN_PREFETCH(vectors_.data() + next * dim_);
      SUBREC_ANN_PREFETCH(LinkRow(next, level));
    }
    if (stats != nullptr) ++stats->nodes_visited;
    const int32_t* row = LinkRow(static_cast<size_t>(cand.second), level);
    const auto count = static_cast<size_t>(row[0]);
    // Gather the unvisited neighbors in link order, then score the whole
    // batch in one kernel call. Marking before scoring is equivalent to
    // the interleaved loop: links within a row are distinct, and the heap
    // pushes below neither read nor write the visited stamps.
    int32_t* bp = batch.data();
    size_t bn = 0;
    // Branchless compaction: the fresh/visited split is data-dependent
    // 50/50 noise the branch predictor can't learn, so write every link
    // and advance the cursor by the freshness flag instead. Re-stamping a
    // visited node is a no-op, and slots past `bn` are dead by contract.
    const uint8_t epoch = scratch->epoch;
    uint8_t* stamp = scratch->stamp.data();
    for (size_t t = 0; t < count; ++t) {
      const int32_t nb = row[1 + t];
      const uint8_t fresh = stamp[nb] != epoch;
      stamp[nb] = epoch;
      bp[bn] = nb;
      bn += fresh;
    }
    if (bn == 0) continue;
    // Hint every other cache line of the fresh rows before the kernel (the
    // adjacent-line prefetcher pairs the rest): one line is not enough for
    // a dim~48 row spanning six lines, and the kernel touches all of them
    // within a few hundred cycles. Filtering first halves the hints issued
    // — roughly every other link was already visited.
    for (size_t t = 0; t < bn; ++t) {
      const double* v = vectors_.data() + static_cast<size_t>(bp[t]) * dim_;
      for (size_t d = 0; d < dim_; d += 16) SUBREC_ANN_PREFETCH(v + d);
    }
    la::AnnDotBatch(query, vectors_.data(), dim_, bp, bn,
                    scratch->batch_dots.data());
    if (stats != nullptr) stats->distance_evals += bn;
    for (size_t t = 0; t < bn; ++t) {
      const int32_t nb = bp[t];
      const double d = -scratch->batch_dots[t];
      if (best.size() < ef) {
        HeapPush(&frontier, DistNode(d, nb), std::less<DistNode>{});
        HeapPush(&best, DistNode(d, nb), std::greater<DistNode>{});
      } else if (DistNode(d, nb) < best.front()) {
        HeapPush(&frontier, DistNode(d, nb), std::less<DistNode>{});
        HeapReplaceTop(&best, DistNode(d, nb), std::greater<DistNode>{});
      }
    }
  }
  out->assign(best.begin(), best.end());
  Heapify(out, std::less<DistNode>{});
}

void HnswIndex::SelectNeighbors(std::vector<DistNode>* candidates,
                                size_t max_links, SearchScratch* scratch,
                                std::vector<int32_t>* out) const {
  // Closest-first diversity heuristic: keep a candidate only if it is
  // closer to the target than to every neighbor already kept, so the kept
  // set spreads across directions instead of clumping in one cluster.
  //
  // `candidates` arrives as a min-heap and is consumed by lazy pops:
  // selection usually saturates max_links long before the heap is empty,
  // so candidates past that point are never even ordered — that is the
  // other half of the sort SearchLayer no longer pays for. Each popped
  // candidate is checked against the kept list in kernel-batched chunks;
  // the chunk may score a few positions past the first violation, but
  // whether ANY kept neighbor violates is order-independent, the dot is
  // commutative bit-for-bit, and distinct-element pops reproduce sorted
  // order exactly, so the kept set matches the classic nested scalar loop
  // byte for byte. Unlike the search-layer batches the kept rows (at most
  // max_links of them, re-read for every candidate) are L1-resident, which
  // is what makes small-batch kernel calls worth it here.
  auto& heap = *candidates;
  auto& selected = *out;
  selected.clear();
  auto& dots = scratch->sel_dots;
  constexpr size_t kChunk = 8;
  if (dots.size() < kChunk) dots.resize(kChunk);
  while (!heap.empty() && selected.size() < max_links) {
    const DistNode cand = heap.front();
    HeapPop(&heap, std::less<DistNode>{});
    const double* cand_vec =
        vectors_.data() + static_cast<size_t>(cand.second) * dim_;
    const size_t kept = selected.size();
    bool keep = true;
    for (size_t j = 0; j < kept && keep; j += kChunk) {
      const size_t m = kept - j < kChunk ? kept - j : kChunk;
      la::AnnDotBatch(cand_vec, vectors_.data(), dim_, selected.data() + j, m,
                      dots.data());
      for (size_t q = 0; q < m; ++q) {
        if (-dots[q] < cand.first) {  // Clumps behind a kept neighbor: drop.
          keep = false;
          break;
        }
      }
    }
    if (keep) selected.push_back(cand.second);
  }
  // Deliberately NO backfill of pruned candidates ("keepPrunedConnections"):
  // measured on the 1e5 bench/ann_recall preset, saturating neighbor sets
  // with near-duplicates drops recall@10 from 0.97 to ~0.75-0.80 at ef=128.
  // The cost is that very small graphs can leave a node with in-degree 0;
  // callers needing exhaustive retrieval at that scale should use
  // ExactIndex (the serving path only builds HNSW over real pools).
}

HnswIndex::InsertPlan HnswIndex::PlanInsert(size_t node,
                                            SearchScratch* scratch) const {
  const double* query = vectors_.data() + node * dim_;
  const int32_t node_level = levels_[node];
  const size_t stride = 1 + static_cast<size_t>(M_);
  InsertPlan plan;
  plan.flat.assign((static_cast<size_t>(node_level) + 1) * stride, 0);
  int32_t cur = entry_;
  double cur_dist = Dist(cur, query);
  for (int32_t lev = max_level_; lev > node_level; --lev)
    GreedyStep(query, lev, &cur, &cur_dist, scratch, nullptr);
  for (int32_t lev = std::min(node_level, max_level_); lev >= 0; --lev) {
    SearchLayer(query, cur, static_cast<size_t>(ef_construction_), lev,
                scratch, &scratch->found, nullptr);
    // Heap top = closest found, the entry for the next level down. Read it
    // before SelectNeighbors consumes the heap.
    cur = scratch->found.front().second;
    cur_dist = scratch->found.front().first;
    SelectNeighbors(&scratch->found, static_cast<size_t>(M_), scratch,
                    &scratch->selected);
    int32_t* row = plan.flat.data() + static_cast<size_t>(lev) * stride;
    row[0] = static_cast<int32_t>(scratch->selected.size());
    std::copy(scratch->selected.begin(), scratch->selected.end(), row + 1);
  }
  return plan;
}

void HnswIndex::CommitBatch(size_t start, size_t count,
                            std::vector<InsertPlan>* plans,
                            SearchScratch* scratch) {
  const size_t stride = 1 + static_cast<size_t>(M_);
  // Phase 1: forward rows, ascending node order. Plans only reference
  // pre-batch nodes (they were computed against the frozen graph), so
  // these writes can never alias the back-link rows phase 2 touches.
  int32_t batch_top = 0;
  for (size_t j = 0; j < count; ++j) {
    const size_t node = start + j;
    const int32_t node_level = levels_[node];
    batch_top = std::max(batch_top, std::min(node_level, max_level_));
    for (int32_t lev = 0; lev <= node_level; ++lev) {
      const int32_t* src =
          (*plans)[j].flat.data() + static_cast<size_t>(lev) * stride;
      int32_t* dst = LinkRow(node, lev);
      std::copy(src, src + 1 + src[0], dst);
    }
  }
  // Phase 2: back-links, grouped by level. Grouping is a pure reordering:
  // a row (neighbor, level) is only ever mutated by its own back-link
  // appends, each append event carries the same (inserting node, link)
  // order the per-node commit sequence used, and rows never read each
  // other — so replaying the events grouped by level, then by neighbor,
  // yields the exact link structure (and Serialize() bytes) the per-node
  // schedule produced, while touching each arena row once per batch
  // instead of scattering writes across the whole level every insertion.
  // A once-per-node union re-selection was measured here too: it commits
  // faster still, but the diversity heuristic is not associative — the
  // graphs drifted from the pre-refactor snapshots and recall on small
  // graphs moved. Replay keeps the bytes pinned.
  std::vector<std::pair<int32_t, int32_t>> backlinks;  // (neighbor, new node)
  for (int32_t lev = 0; lev <= batch_top; ++lev) {
    const size_t cap = RowCapacity(lev);
    backlinks.clear();
    for (size_t j = 0; j < count; ++j) {
      const size_t node = start + j;
      if (lev > levels_[node]) continue;
      const int32_t* row =
          (*plans)[j].flat.data() + static_cast<size_t>(lev) * stride;
      const auto self = static_cast<int32_t>(node);
      for (int32_t t = 0; t < row[0]; ++t)
        backlinks.emplace_back(row[1 + t], self);
    }
    if (backlinks.empty()) continue;
    // Pairs were pushed in ascending (batch node, link) order and are
    // distinct (a plan links each neighbor at most once per level), so a
    // plain sort groups by neighbor while keeping each group's back-links
    // in the order the per-node commits appended them.
    std::sort(backlinks.begin(), backlinks.end());
    size_t g = 0;
    while (g < backlinks.size()) {
      const int32_t nb = backlinks[g].first;
      size_t h = g;
      while (h < backlinks.size() && backlinks[h].first == nb) ++h;
      int32_t* back = LinkRow(static_cast<size_t>(nb), lev);
      const double* nb_vec = vectors_.data() + static_cast<size_t>(nb) * dim_;
      for (size_t q = g; q < h; ++q) {
        const int32_t self = backlinks[q].second;
        if (static_cast<size_t>(back[0]) < cap) {
          back[1 + back[0]] = self;
          ++back[0];
          continue;
        }
        // Over-degree: re-select the neighbor's links with the same
        // diversity heuristic, from its own vantage point. The freshly
        // added back-link competes on equal terms and may be dropped.
        auto& cand_ids = scratch->batch_ids;
        cand_ids.clear();
        for (int32_t t = 0; t < back[0]; ++t) cand_ids.push_back(back[1 + t]);
        cand_ids.push_back(self);
        if (scratch->batch_dots.size() < cand_ids.size())
          scratch->batch_dots.resize(cand_ids.size());
        la::AnnDotBatch(nb_vec, vectors_.data(), dim_, cand_ids.data(),
                        cand_ids.size(), scratch->batch_dots.data());
        auto& resort = scratch->resort;
        resort.clear();
        for (size_t t = 0; t < cand_ids.size(); ++t)
          resort.emplace_back(-scratch->batch_dots[t], cand_ids[t]);
        Heapify(&resort, std::less<DistNode>{});
        SelectNeighbors(&resort, cap, scratch, &scratch->selected);
        back[0] = static_cast<int32_t>(scratch->selected.size());
        std::copy(scratch->selected.begin(), scratch->selected.end(),
                  back + 1);
      }
      g = h;
    }
  }
  // Phase 3: entry point, ascending node order — the same winner the
  // per-node commit sequence would have crowned.
  for (size_t j = 0; j < count; ++j) {
    const int32_t node_level = levels_[start + j];
    if (node_level > max_level_) {
      max_level_ = node_level;
      entry_ = static_cast<int32_t>(start + j);
    }
  }
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Build(
    std::vector<int32_t> ids, std::vector<double> vectors, size_t dim,
    const HnswOptions& options) {
  if (dim == 0) return Status::InvalidArgument("hnsw: dim must be positive");
  if (vectors.size() != ids.size() * dim)
    return Status::InvalidArgument(
        "hnsw: " + std::to_string(ids.size()) + " ids x dim " +
        std::to_string(dim) + " != " + std::to_string(vectors.size()) +
        " vector values");
  if (options.M < 2 || options.M > 256)
    return Status::InvalidArgument("hnsw: M out of range [2, 256]");
  if (options.ef_construction < options.M ||
      static_cast<uint32_t>(options.ef_construction) > kMaxEfConstruction)
    return Status::InvalidArgument("hnsw: ef_construction out of range [M, " +
                                   std::to_string(kMaxEfConstruction) + "]");

  auto index = std::unique_ptr<HnswIndex>(new HnswIndex());
  index->dim_ = dim;
  index->M_ = options.M;
  index->cap0_ = 2 * static_cast<size_t>(options.M);
  index->cap_upper_ = static_cast<size_t>(options.M);
  index->ef_construction_ = options.ef_construction;
  index->seed_ = options.seed;
  index->ids_ = std::move(ids);
  index->vectors_ = std::move(vectors);
  const size_t n = index->ids_.size();
  const double mult = 1.0 / std::log(static_cast<double>(options.M));
  index->levels_.resize(n);
  for (size_t i = 0; i < n; ++i)
    index->levels_[i] = LevelForNode(options.seed, i, mult);
  index->AllocateArena();
  if (n == 0) return index;

  index->entry_ = 0;
  index->max_level_ = index->levels_[0];
  // Doubling batches: plan all insertions of a batch in parallel against
  // the frozen pre-batch graph, then commit the batch serially. Each batch
  // at most doubles the graph (and is capped), so every node still links
  // into a graph holding at least half the corpus below it, while the plan
  // phase — all the distance work — parallelizes.
  size_t start = 1;
  std::vector<InsertPlan> plans;
  SearchScratch commit_scratch;
  while (start < n) {
    const size_t batch = std::min({start, kMaxBatch, n - start});
    plans.clear();
    plans.resize(batch);
    const HnswIndex* frozen = index.get();
    par::ParallelFor(batch, kBuildGrain,
                     [frozen, &plans, start](size_t begin, size_t end) {
                       SearchScratch scratch;
                       for (size_t j = begin; j < end; ++j)
                         plans[j] = frozen->PlanInsert(start + j, &scratch);
                     });
    index->CommitBatch(start, batch, &plans, &commit_scratch);
    start += batch;
  }
  return index;
}

Status HnswIndex::Search(const std::vector<double>& query, int k, int ef,
                         std::vector<Neighbor>* out,
                         SearchStats* stats) const {
  if (k <= 0) return Status::InvalidArgument("ann: k must be positive");
  if (query.size() != dim_)
    return Status::InvalidArgument("ann: query dim " +
                                   std::to_string(query.size()) +
                                   " != index dim " + std::to_string(dim_));
  out->clear();
  if (ids_.empty()) return Status::Ok();
  // One scratch pool per serving thread, shared across every HnswIndex:
  // grow-only buffers plus epoch-stamped visited markers (each SearchLayer
  // bumps the epoch, so stamps left by other indexes can never read as
  // visited). After one warm query per thread the whole search path stops
  // allocating — the zero-allocation probe in tests/obs_serving_test.cc
  // holds this path to that.
  static thread_local SearchScratch scratch;
  const size_t beam = static_cast<size_t>(std::max(ef, k));
  int32_t cur = entry_;
  double cur_dist = Dist(cur, query.data());
  if (stats != nullptr) ++stats->distance_evals;
  for (int32_t lev = max_level_; lev >= 1; --lev)
    GreedyStep(query.data(), lev, &cur, &cur_dist, &scratch, stats);
  SearchLayer(query.data(), cur, beam, 0, &scratch, &scratch.found, stats);
  const auto& found = scratch.found;
  out->reserve(std::min(found.size(), static_cast<size_t>(k)));
  for (const DistNode& f : found)
    out->push_back(Neighbor{ids_[static_cast<size_t>(f.second)], -f.first});
  // Graph order ties on internal node; callers are promised external-id
  // tie order, identical to ExactIndex.
  std::sort(out->begin(), out->end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (out->size() > static_cast<size_t>(k))
    out->resize(static_cast<size_t>(k));
  return Status::Ok();
}

std::string HnswIndex::Serialize() const {
  const size_t n = ids_.size();
  size_t link_words = 0;
  for (size_t i = 0; i < n; ++i)
    for (int32_t lev = 0; lev <= levels_[i]; ++lev)
      link_words += 1 + static_cast<size_t>(LinkRow(i, lev)[0]);
  std::string out;
  out.reserve(48 + 8 * n + 8 * vectors_.size() + 4 * link_words);
  wire::AppendU64(&out, kMagic);
  wire::AppendU32(&out, kVersion);
  wire::AppendU32(&out, static_cast<uint32_t>(dim_));
  wire::AppendU64(&out, n);
  wire::AppendU32(&out, static_cast<uint32_t>(M_));
  wire::AppendU32(&out, static_cast<uint32_t>(ef_construction_));
  wire::AppendU64(&out, seed_);
  wire::AppendI32(&out, max_level_);
  wire::AppendI32(&out, entry_);
  wire::AppendArray(&out, levels_.data(), levels_.size());
  wire::AppendArray(&out, ids_.data(), ids_.size());
  wire::AppendArray(&out, vectors_.data(), vectors_.size());
  // Arena rows print as the same nested count-prefixed lists the pre-arena
  // encoder wrote: the capacity padding never reaches the wire.
  for (size_t i = 0; i < n; ++i) {
    for (int32_t lev = 0; lev <= levels_[i]; ++lev) {
      const int32_t* row = LinkRow(i, lev);
      wire::AppendU32(&out, static_cast<uint32_t>(row[0]));
      wire::AppendArray(&out, row + 1, static_cast<size_t>(row[0]));
    }
  }
  return out;
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Deserialize(
    std::string_view bytes) {
  wire::Cursor c(bytes);
  uint64_t magic = 0, n = 0, seed = 0;
  uint32_t version = 0, dim = 0, m = 0, ef_construction = 0;
  SUBREC_RETURN_NOT_OK(c.ReadU64(&magic));
  if (magic != kMagic)
    return Status::InvalidArgument("hnsw: bad magic (not an ann index?)");
  SUBREC_RETURN_NOT_OK(c.ReadU32(&version));
  if (version != kVersion)
    return Status::InvalidArgument("hnsw: unsupported version " +
                                   std::to_string(version));
  SUBREC_RETURN_NOT_OK(c.ReadU32(&dim));
  SUBREC_RETURN_NOT_OK(c.ReadU64(&n));
  SUBREC_RETURN_NOT_OK(c.ReadU32(&m));
  SUBREC_RETURN_NOT_OK(c.ReadU32(&ef_construction));
  SUBREC_RETURN_NOT_OK(c.ReadU64(&seed));
  // Re-validate like Build would, then bound every count by the bytes
  // actually present BEFORE allocating — a crafted header must not be able
  // to reserve gigabytes or index out of range.
  if (dim == 0) return Status::InvalidArgument("hnsw: dim must be positive");
  if (m < 2 || m > 256)
    return Status::InvalidArgument("hnsw: M out of range [2, 256]");
  if (ef_construction < m || ef_construction > kMaxEfConstruction)
    return Status::InvalidArgument("hnsw: ef_construction out of range");
  if (n > c.remaining() / 4)
    return Status::OutOfRange("hnsw: node count larger than its payload");
  if (n > 0 && dim > c.remaining() / 8)
    return Status::OutOfRange("hnsw: dim larger than its payload");

  auto index = std::unique_ptr<HnswIndex>(new HnswIndex());
  index->dim_ = dim;
  index->M_ = static_cast<int>(m);
  index->seed_ = seed;
  SUBREC_RETURN_NOT_OK(c.ReadI32(&index->max_level_));
  SUBREC_RETURN_NOT_OK(c.ReadI32(&index->entry_));
  if (n > 0 && (index->entry_ < 0 || static_cast<uint64_t>(index->entry_) >= n))
    return Status::InvalidArgument("hnsw: entry point out of range");
  if (n == 0 && (index->entry_ != -1 || index->max_level_ != -1))
    return Status::InvalidArgument("hnsw: empty index with entry point");
  if (index->max_level_ > kMaxLevelCap || index->max_level_ < -1)
    return Status::InvalidArgument("hnsw: max level out of range");

  index->levels_.resize(static_cast<size_t>(n));
  SUBREC_RETURN_NOT_OK(c.ReadArray(index->levels_.data(), n));
  for (int32_t level : index->levels_) {
    if (level < 0 || level > index->max_level_)
      return Status::InvalidArgument("hnsw: node level out of range");
  }
  if (n > 0 &&
      index->levels_[static_cast<size_t>(index->entry_)] != index->max_level_)
    return Status::InvalidArgument("hnsw: entry point level skew");
  index->ids_.resize(static_cast<size_t>(n));
  SUBREC_RETURN_NOT_OK(c.ReadArray(index->ids_.data(), n));
  if (static_cast<uint64_t>(dim) * n > c.remaining() / 8)
    return Status::OutOfRange("hnsw: vectors larger than their payload");
  index->vectors_.resize(static_cast<size_t>(n) * dim);
  SUBREC_RETURN_NOT_OK(
      c.ReadArray(index->vectors_.data(), index->vectors_.size()));
  // First pass over the link lists: check every count against the M/2M
  // degree bound and the bytes left, and find the widest row of each band.
  // The arena is sized from those widths, not from the header's M, so a
  // corrupt M cannot make it outgrow the link bytes that fill it.
  wire::Cursor scan = c;
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    for (int32_t lev = 0; lev <= index->levels_[i]; ++lev) {
      uint32_t count = 0;
      SUBREC_RETURN_NOT_OK(scan.ReadU32(&count));
      // No well-formed encoder could exceed the degree bound: Build never
      // links a node past M (2M at level 0).
      const size_t bound = lev == 0 ? 2 * static_cast<size_t>(m) : m;
      if (count > bound)
        return Status::InvalidArgument(
            "hnsw: link count exceeds level capacity");
      std::string_view links;
      if (count > scan.remaining() / 4)
        return Status::OutOfRange("hnsw: link list larger than its payload");
      SUBREC_RETURN_NOT_OK(scan.ReadView(uint64_t{count} * 4, &links));
      size_t& cap = lev == 0 ? index->cap0_ : index->cap_upper_;
      cap = std::max(cap, static_cast<size_t>(count));
    }
  }
  if (scan.remaining() != 0)
    return Status::InvalidArgument("hnsw: trailing bytes after index");
  index->AllocateArena();
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    for (int32_t lev = 0; lev <= index->levels_[i]; ++lev) {
      uint32_t count = 0;
      SUBREC_RETURN_NOT_OK(c.ReadU32(&count));
      int32_t* row = index->LinkRow(i, lev);
      row[0] = static_cast<int32_t>(count);
      SUBREC_RETURN_NOT_OK(c.ReadArray(row + 1, count));
      for (uint32_t t = 0; t < count; ++t) {
        const int32_t nb = row[1 + t];
        if (nb < 0 || static_cast<uint64_t>(nb) >= n)
          return Status::InvalidArgument("hnsw: neighbor out of range");
        // A link at level L to a node that does not reach level L would
        // send Search indexing past that node's link rows.
        if (index->levels_[static_cast<size_t>(nb)] < lev)
          return Status::InvalidArgument("hnsw: neighbor level skew");
      }
    }
  }
  index->ef_construction_ = static_cast<int>(ef_construction);
  return index;
}

}  // namespace subrec::ann
