#ifndef SUBREC_ANN_HNSW_INDEX_H_
#define SUBREC_ANN_HNSW_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ann/index.h"
#include "common/result.h"
#include "common/status.h"

namespace subrec::ann {

/// Build parameters for HnswIndex. The defaults are the bench/ann_recall
/// sweet spot for the repo's 32–64-dim embedding matrices: recall@10 well
/// above 0.95 at search ef ~128 on 1e5 items.
struct HnswOptions {
  /// Max out-degree per node on levels >= 1; level 0 allows 2*M. More
  /// links -> better recall, bigger index, slower build.
  int M = 16;
  /// Beam width while constructing: how many candidates each insertion
  /// examines per level before the M-way neighbor selection.
  int ef_construction = 200;
  /// Seed for the per-node level assignment. Two builds over the same
  /// vectors with the same options and seed are byte-identical.
  uint64_t seed = 0x5EEDF00DULL;
};

/// Hierarchical navigable small world graph over frozen item vectors,
/// searched by maximum inner product (the quantity NPRec's pair score is
/// monotone in). Approximate: Search walks the graph greedily and can miss
/// true neighbors; ExactIndex is the oracle it is measured against.
///
/// Determinism contract (same as src/par): the built graph — and therefore
/// Serialize() — is a pure function of (ids, vectors, options). The bulk
/// build parallelizes over geometrically growing insertion batches; within
/// a batch every insertion plans its links against the frozen pre-batch
/// graph (read-only, safe to race), and plans are committed serially —
/// back-link writes grouped by level and neighbor, replaying each row's
/// append/re-select events in ascending node order, which reproduces the
/// per-node commit sequence's link structure exactly. Chunk boundaries
/// come from par::ParallelFor's thread-count-independent grid, so
/// SUBREC_NUM_THREADS never changes the result, only the wall clock.
///
/// Hot-structure layout (the 1e6-corpus redesign): links live in flat
/// CSR-style arenas with fixed per-row capacity — one slab for the level-0
/// band (rows of 1 + 2M int32, count-prefixed) and one for all upper
/// levels (rows of 1 + M, a node's levels 1..L packed consecutively) — so
/// a traversal step is one indexed load instead of three pointer chases,
/// and distance evaluations run through the batched SIMD kernel
/// la::AnnDotBatch (bit-identical to the scalar loop by construction).
class HnswIndex : public Index {
 public:
  /// Builds the graph over `ids`/`vectors` (row-major, ids.size() * dim
  /// values). InvalidArgument on shape mismatch or nonsensical options.
  static Result<std::unique_ptr<HnswIndex>> Build(std::vector<int32_t> ids,
                                                  std::vector<double> vectors,
                                                  size_t dim,
                                                  const HnswOptions& options);

  /// Reconstructs an index from Serialize() output. Every malformed input
  /// — truncation, bad magic/version, out-of-range neighbors, level skew,
  /// link counts above the M/2M row capacity — returns an error Status;
  /// this path never aborts on untrusted bytes.
  static Result<std::unique_ptr<HnswIndex>> Deserialize(
      std::string_view bytes);

  /// Self-contained little-endian encoding of the full index (options,
  /// ids, vectors, graph). Deterministic: byte-identical for equal builds,
  /// and the wire format is unchanged from the pre-arena layout (nested
  /// count-prefixed link lists) — old bytes load, new bytes are readable
  /// by old readers.
  std::string Serialize() const;

  size_t size() const override { return ids_.size(); }
  size_t dim() const override { return dim_; }
  /// External ids, one per indexed item. Deserialize treats them as opaque
  /// — callers embedding the index in a larger structure (the serving
  /// snapshot) must validate them against their own id space.
  const std::vector<int32_t>& ids() const { return ids_; }
  int M() const { return M_; }
  int ef_construction() const { return ef_construction_; }
  uint64_t seed() const { return seed_; }
  /// Top graph level (-1 when the index is empty).
  int32_t max_level() const { return max_level_; }

  /// Allocation-free in the steady state: per-thread search scratch
  /// (visited stamps, heaps, distance batches) lives in a thread-local
  /// pool and only grows, and `out` is reused as the caller provides it —
  /// after one warm call per thread, queries never touch the heap.
  Status Search(const std::vector<double>& query, int k, int ef,
                std::vector<Neighbor>* out,
                SearchStats* stats = nullptr) const override;

 private:
  /// (distance, internal node) — distance is the negated inner product, so
  /// lexicographic pair order means "closer first, lower node on ties",
  /// which is what makes every traversal decision a total order.
  using DistNode = std::pair<double, int32_t>;

  /// Per-search working memory, pooled thread-locally for serve-time
  /// queries and per-chunk for build-time planning. Everything is
  /// grow-only; the visited markers are epoch-stamped so reuse across
  /// layers and consecutive searches costs one counter bump instead of a
  /// clear.
  struct SearchScratch {
    std::vector<uint8_t> stamp;
    uint8_t epoch = 0;
    /// Min-heap of unexpanded candidates (closest on top).
    std::vector<DistNode> frontier;
    /// Max-heap of the ef best seen so far (worst on top).
    std::vector<DistNode> best;
    /// SearchLayer output: the ef best as a 4-ary min-heap (closest on
    /// top). Heapified in O(n) instead of sorted — SelectNeighbors pops
    /// lazily and rarely needs the full order.
    std::vector<DistNode> found;
    /// Unvisited neighbors of the node being expanded + their inner
    /// products, the batch fed to la::AnnDotBatch.
    std::vector<int32_t> batch_ids;
    std::vector<double> batch_dots;
    /// SelectNeighbors output, the commit path's re-selection candidate
    /// heap, and the per-chunk distance slots of the diversity check.
    std::vector<int32_t> selected;
    std::vector<DistNode> resort;
    std::vector<double> sel_dots;
    void NextEpoch(size_t n);
    void Mark(int32_t node) { stamp[static_cast<size_t>(node)] = epoch; }
  };

  /// Links selected for one pending insertion, computed against the frozen
  /// pre-batch graph. Fixed-stride rows (level L at L * (1 + M), count
  /// first) so CommitBatch can address any level directly — one allocation
  /// per plan instead of one per level.
  struct InsertPlan {
    std::vector<int32_t> flat;
  };

  HnswIndex() = default;

  /// Arena row for (node, level): row[0] = link count, row[1..] = links.
  /// Level 0 rows live in level0_ (capacity cap0_); levels >= 1 live in
  /// upper_ at (upper_row_[node] + level - 1) rows in (capacity cap_upper_).
  int32_t* LinkRow(size_t node, int32_t level);
  const int32_t* LinkRow(size_t node, int32_t level) const;
  size_t RowCapacity(int32_t level) const {
    return level == 0 ? cap0_ : cap_upper_;
  }
  /// Widest row of either band: sizes the per-row distance batches.
  size_t MaxRowCapacity() const { return std::max(cap0_, cap_upper_); }
  /// Sizes the arenas for the already-populated levels_ array and the
  /// row capacities cap0_ / cap_upper_.
  void AllocateArena();

  double Dist(int32_t node, const double* query) const;
  /// Greedy best-first descent within one level (ef=1 search).
  void GreedyStep(const double* query, int32_t level, int32_t* cur,
                  double* cur_dist, SearchScratch* scratch,
                  SearchStats* stats) const;
  /// Beam search within one level; `out` is a min-heap, closest on top.
  void SearchLayer(const double* query, int32_t entry, size_t ef,
                   int32_t level, SearchScratch* scratch,
                   std::vector<DistNode>* out, SearchStats* stats) const;
  /// The HNSW diversity heuristic: walks `candidates` closest-first and
  /// keeps those closer to the target than to anything already kept,
  /// writing the survivors into `out` (grow-only scratch). Consumes the
  /// candidate min-heap by lazy pops and checks each pop against the kept
  /// list in kernel-batched chunks — same kept set as the nested scalar
  /// loop, without ordering candidates the walk never reaches.
  void SelectNeighbors(std::vector<DistNode>* candidates, size_t max_links,
                       SearchScratch* scratch,
                       std::vector<int32_t>* out) const;
  InsertPlan PlanInsert(size_t node, SearchScratch* scratch) const;
  /// Applies one batch of plans serially: forward rows first (ascending
  /// node), then back-links grouped by level and neighbor — replaying
  /// each row's appends and over-degree re-selections in ascending node
  /// order, so the result matches the per-node commit sequence byte for
  /// byte — then the entry/max-level update in ascending node order.
  void CommitBatch(size_t start, size_t count, std::vector<InsertPlan>* plans,
                   SearchScratch* scratch);

  size_t dim_ = 0;
  int M_ = 0;
  int ef_construction_ = 0;
  uint64_t seed_ = 0;
  int32_t max_level_ = -1;
  int32_t entry_ = -1;
  std::vector<int32_t> ids_;
  std::vector<double> vectors_;
  std::vector<int32_t> levels_;
  /// Link slots per row of the level-0 and upper bands. Build reserves the
  /// degree bounds (2M and M); Deserialize sizes them from the widest row
  /// actually on the wire, so a header M can never inflate the arena past
  /// what the link bytes justify.
  size_t cap0_ = 0;
  size_t cap_upper_ = 0;
  /// Level-0 band: node's row at node * (1 + cap0_).
  std::vector<int32_t> level0_;
  /// Upper bands: node's rows for levels 1..levels_[node] packed
  /// consecutively starting at row upper_row_[node], stride 1 + cap_upper_.
  std::vector<int32_t> upper_;
  std::vector<size_t> upper_row_;
};

}  // namespace subrec::ann

#endif  // SUBREC_ANN_HNSW_INDEX_H_
