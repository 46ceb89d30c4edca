#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ann/exact_index.h"
#include "ann/hnsw_index.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/wire.h"

namespace subrec::ann {
namespace {

/// Clustered test vectors: `clusters` Gaussian blobs, lognormal-ish norm
/// spread so maximum-inner-product order differs from cosine order.
struct TestVectors {
  std::vector<int32_t> ids;
  std::vector<double> vectors;
  size_t dim = 0;
};

TestVectors MakeClustered(size_t n, size_t dim, int clusters, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centers(
      static_cast<size_t>(clusters), std::vector<double>(dim));
  for (auto& c : centers)
    for (double& v : c) v = rng.Gaussian(0.0, 1.0);
  TestVectors out;
  out.dim = dim;
  out.ids.reserve(n);
  out.vectors.reserve(n * dim);
  for (size_t i = 0; i < n; ++i) {
    // Non-contiguous external ids so tests catch internal/external mixups.
    out.ids.push_back(static_cast<int32_t>(i * 3 + 7));
    const auto& c = centers[i % static_cast<size_t>(clusters)];
    const double scale = 0.5 + rng.UniformDouble();
    for (size_t d = 0; d < dim; ++d)
      out.vectors.push_back(scale * (c[d] + rng.Gaussian(0.0, 0.3)));
  }
  return out;
}

std::vector<double> MakeQuery(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> q(dim);
  for (double& v : q) v = rng.Gaussian(0.0, 1.0);
  return q;
}

std::unique_ptr<HnswIndex> BuildOrDie(const TestVectors& tv,
                                      const HnswOptions& options = {}) {
  auto built = HnswIndex::Build(tv.ids, tv.vectors, tv.dim, options);
  SUBREC_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// --- ExactIndex -----------------------------------------------------------

TEST(ExactIndex, ReturnsDescendingScoresWithAscendingIdTies) {
  // Two items with identical vectors force a score tie.
  const std::vector<int32_t> ids = {9, 4, 1};
  const std::vector<double> vectors = {1.0, 0.0, 1.0, 0.0, 0.0, 1.0};
  ExactIndex index(ids, vectors, 2);
  std::vector<Neighbor> out;
  ASSERT_TRUE(index.Search({1.0, 0.0}, 3, 0, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 4);  // tie with 9 broken by ascending id
  EXPECT_EQ(out[1].id, 9);
  EXPECT_EQ(out[2].id, 1);
  EXPECT_DOUBLE_EQ(out[0].score, 1.0);
  EXPECT_DOUBLE_EQ(out[2].score, 0.0);
}

TEST(ExactIndex, ClampsKAndValidatesQuery) {
  const TestVectors tv = MakeClustered(10, 4, 2, 11);
  ExactIndex index(tv.ids, tv.vectors, tv.dim);
  std::vector<Neighbor> out;
  ASSERT_TRUE(index.Search(MakeQuery(4, 1), 50, 0, &out).ok());
  EXPECT_EQ(out.size(), 10u);  // k > n returns everything
  EXPECT_FALSE(index.Search(MakeQuery(3, 1), 5, 0, &out).ok());
  EXPECT_FALSE(index.Search(MakeQuery(4, 1), 0, 0, &out).ok());
}

TEST(ExactIndex, PopulatesSearchStats) {
  const TestVectors tv = MakeClustered(32, 4, 2, 13);
  ExactIndex index(tv.ids, tv.vectors, tv.dim);
  std::vector<Neighbor> out;
  SearchStats stats;
  ASSERT_TRUE(index.Search(MakeQuery(4, 2), 5, 0, &out, &stats).ok());
  EXPECT_EQ(stats.distance_evals, 32);
  EXPECT_EQ(stats.nodes_visited, 32);
}

// --- HnswIndex: search quality against the oracle -------------------------

TEST(HnswIndex, MatchesExactOracleOnHighEf) {
  const TestVectors tv = MakeClustered(500, 8, 5, 21);
  ExactIndex exact(tv.ids, tv.vectors, tv.dim);
  const auto hnsw = BuildOrDie(tv);

  double recall_sum = 0.0;
  constexpr int kQueries = 20;
  constexpr int kTopK = 10;
  for (int q = 0; q < kQueries; ++q) {
    const auto query = MakeQuery(tv.dim, 100 + static_cast<uint64_t>(q));
    std::vector<Neighbor> truth, approx;
    ASSERT_TRUE(exact.Search(query, kTopK, 0, &truth).ok());
    ASSERT_TRUE(hnsw->Search(query, kTopK, 128, &approx).ok());
    ASSERT_EQ(truth.size(), approx.size());
    // Contract: descending score, ties ascending id.
    for (size_t i = 1; i < approx.size(); ++i) {
      EXPECT_TRUE(approx[i - 1].score > approx[i].score ||
                  (approx[i - 1].score == approx[i].score &&
                   approx[i - 1].id < approx[i].id));
    }
    size_t hit = 0;
    for (const Neighbor& t : truth)
      for (const Neighbor& a : approx)
        if (a.id == t.id) {
          ++hit;
          break;
        }
    recall_sum += static_cast<double>(hit) / kTopK;
  }
  // Deterministic build + deterministic queries: this is an equality-like
  // gate on graph quality, not a flaky statistical bound.
  EXPECT_GE(recall_sum / kQueries, 0.95);
}

TEST(HnswIndex, TinyIndexIsExhaustive) {
  // n <= beam width AND the level-0 degree cap (2*M = 16) exceeds the 15
  // possible back-links, so diversity pruning never fires and every node
  // stays reachable: results must equal the exact scan item for item.
  const TestVectors tv = MakeClustered(16, 4, 2, 31);
  ExactIndex exact(tv.ids, tv.vectors, tv.dim);
  const auto hnsw = BuildOrDie(tv, HnswOptions{8, 16, 1});
  const auto query = MakeQuery(tv.dim, 3);
  std::vector<Neighbor> truth, approx;
  ASSERT_TRUE(exact.Search(query, 16, 0, &truth).ok());
  ASSERT_TRUE(hnsw->Search(query, 16, 32, &approx).ok());
  ASSERT_EQ(truth.size(), approx.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(truth[i].id, approx[i].id) << i;
    EXPECT_EQ(truth[i].score, approx[i].score) << i;
  }
}

TEST(HnswIndex, EmptyIndexSearchesCleanly) {
  auto built = HnswIndex::Build({}, {}, 4, HnswOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto& index = built.value();
  EXPECT_EQ(index->size(), 0u);
  EXPECT_EQ(index->max_level(), -1);
  std::vector<Neighbor> out = {Neighbor{1, 2.0}};
  ASSERT_TRUE(index->Search(MakeQuery(4, 5), 3, 16, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(HnswIndex, BuildRejectsBadShapesAndOptions) {
  EXPECT_FALSE(HnswIndex::Build({1}, {1.0, 2.0}, 0, {}).ok());
  EXPECT_FALSE(HnswIndex::Build({1, 2}, {1.0, 2.0}, 2, {}).ok());  // 2x2 != 2
  HnswOptions bad_m;
  bad_m.M = 1;
  EXPECT_FALSE(HnswIndex::Build({1}, {1.0}, 1, bad_m).ok());
  HnswOptions bad_ef;
  bad_ef.ef_construction = bad_ef.M - 1;
  EXPECT_FALSE(HnswIndex::Build({1}, {1.0}, 1, bad_ef).ok());
  // Build must enforce the same ef_construction ceiling Deserialize does;
  // otherwise an index could be built and serialized but never loaded.
  HnswOptions huge_ef;
  huge_ef.ef_construction = (1 << 20) + 1;
  EXPECT_FALSE(HnswIndex::Build({1}, {1.0}, 1, huge_ef).ok());
  HnswOptions max_ef;
  max_ef.ef_construction = 1 << 20;
  const auto at_cap = HnswIndex::Build({1}, {1.0}, 1, max_ef);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_TRUE(HnswIndex::Deserialize(at_cap.value()->Serialize()).ok());
}

TEST(HnswIndex, SearchValidatesArguments) {
  const TestVectors tv = MakeClustered(20, 4, 2, 41);
  const auto hnsw = BuildOrDie(tv);
  std::vector<Neighbor> out;
  EXPECT_FALSE(hnsw->Search(MakeQuery(3, 1), 5, 16, &out).ok());
  EXPECT_FALSE(hnsw->Search(MakeQuery(4, 1), 0, 16, &out).ok());
  SearchStats stats;
  ASSERT_TRUE(hnsw->Search(MakeQuery(4, 1), 5, 16, &out, &stats).ok());
  EXPECT_GT(stats.nodes_visited, 0);
  EXPECT_GT(stats.distance_evals, 0);
}

// --- Serialization --------------------------------------------------------

TEST(HnswIndex, SerializeRoundTripsExactly) {
  const TestVectors tv = MakeClustered(200, 6, 3, 51);
  const auto original = BuildOrDie(tv);
  const std::string bytes = original->Serialize();
  auto restored = HnswIndex::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const auto& copy = restored.value();
  EXPECT_EQ(copy->size(), original->size());
  EXPECT_EQ(copy->dim(), original->dim());
  EXPECT_EQ(copy->M(), original->M());
  EXPECT_EQ(copy->ef_construction(), original->ef_construction());
  EXPECT_EQ(copy->seed(), original->seed());
  EXPECT_EQ(copy->max_level(), original->max_level());
  // Byte-for-byte re-serialization is the strongest round-trip check.
  EXPECT_EQ(copy->Serialize(), bytes);
  // And identical search behavior.
  const auto query = MakeQuery(tv.dim, 7);
  std::vector<Neighbor> a, b;
  ASSERT_TRUE(original->Search(query, 10, 64, &a).ok());
  ASSERT_TRUE(copy->Search(query, 10, 64, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST(HnswIndex, EmptyIndexRoundTrips) {
  auto built = HnswIndex::Build({}, {}, 3, HnswOptions{});
  ASSERT_TRUE(built.ok());
  const std::string bytes = built.value()->Serialize();
  auto restored = HnswIndex::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->size(), 0u);
  EXPECT_EQ(restored.value()->Serialize(), bytes);
}

TEST(HnswIndex, DeserializeRejectsMalformedInputWithoutCrashing) {
  const TestVectors tv = MakeClustered(64, 4, 2, 61);
  const std::string good = BuildOrDie(tv)->Serialize();

  EXPECT_FALSE(HnswIndex::Deserialize("").ok());
  EXPECT_FALSE(HnswIndex::Deserialize("SUBRANN1").ok());

  // Every truncation point must come back as a Status, never a crash.
  for (size_t len = 0; len < good.size(); len += 13)
    EXPECT_FALSE(HnswIndex::Deserialize(good.substr(0, len)).ok())
        << "truncated to " << len;

  // Trailing garbage is rejected, not silently ignored.
  EXPECT_FALSE(HnswIndex::Deserialize(good + "x").ok());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(HnswIndex::Deserialize(bad_magic).ok());

  std::string bad_version = good;
  bad_version[8] = 99;
  const auto version_result = HnswIndex::Deserialize(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Entry node out of range: i32 at offset 8+4+4+8+4+4+8+4 = 44.
  std::string bad_entry = good;
  bad_entry[44] = static_cast<char>(0xFF);
  bad_entry[45] = static_cast<char>(0xFF);
  bad_entry[46] = static_cast<char>(0x7F);
  bad_entry[47] = static_cast<char>(0x7F);
  EXPECT_FALSE(HnswIndex::Deserialize(bad_entry).ok());

  // Single-byte corruption sweep: any byte may flip. Parses may succeed
  // (vector payload bytes are all valid doubles) but must never crash,
  // and whatever parses must still serialize to the same length.
  for (size_t pos = 0; pos < good.size(); pos += 31) {
    std::string corrupt = good;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    auto result = HnswIndex::Deserialize(corrupt);
    if (result.ok()) {
      EXPECT_GT(result.value()->Serialize().size(), 0u);
    }
  }
}

// --- Wire format: golden snapshot + capacity boundaries -------------------

std::string ReadGoldenOrDie(const std::string& name) {
  const std::string path = std::string(SUBREC_TEST_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  SUBREC_CHECK(in.good()) << "missing golden fixture " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Link-count census parsed straight off Serialize() bytes, independently
/// of the arena accessors — the capacity-boundary tests cross-check the
/// encoder against the documented v1 layout rather than against itself.
struct WireCensus {
  size_t n = 0;
  uint32_t m = 0;
  std::vector<int32_t> levels;
  /// Byte offset of the first link count (node 0, level 0).
  size_t graph_offset = 0;
  size_t level0_full_rows = 0;  // rows at the 2M capacity
  size_t level0_empty_rows = 0;
  size_t level0_only_nodes = 0;  // nodes with no upper-level rows
  uint32_t max_upper_count = 0;
  size_t multi_level_nodes = 0;
};

WireCensus ScanWire(const std::string& bytes) {
  wire::Cursor c(bytes);
  WireCensus w;
  uint64_t magic = 0, n = 0, seed = 0;
  uint32_t version = 0, dim = 0, ef = 0;
  int32_t max_level = 0, entry = 0, skip = 0;
  std::string_view vectors;
  SUBREC_CHECK(c.ReadU64(&magic).ok());
  SUBREC_CHECK(c.ReadU32(&version).ok());
  SUBREC_CHECK(c.ReadU32(&dim).ok());
  SUBREC_CHECK(c.ReadU64(&n).ok());
  SUBREC_CHECK(c.ReadU32(&w.m).ok());
  SUBREC_CHECK(c.ReadU32(&ef).ok());
  SUBREC_CHECK(c.ReadU64(&seed).ok());
  SUBREC_CHECK(c.ReadI32(&max_level).ok());
  SUBREC_CHECK(c.ReadI32(&entry).ok());
  w.n = static_cast<size_t>(n);
  w.levels.resize(w.n);
  for (int32_t& level : w.levels) SUBREC_CHECK(c.ReadI32(&level).ok());
  for (size_t i = 0; i < w.n; ++i) SUBREC_CHECK(c.ReadI32(&skip).ok());
  SUBREC_CHECK(c.ReadView(w.n * dim * 8, &vectors).ok());
  // Header (48 bytes) + levels + ids + vector slab.
  w.graph_offset = 48 + w.n * 8 + w.n * static_cast<size_t>(dim) * 8;
  for (size_t i = 0; i < w.n; ++i) {
    if (w.levels[i] == 0)
      ++w.level0_only_nodes;
    else
      ++w.multi_level_nodes;
    for (int32_t lev = 0; lev <= w.levels[i]; ++lev) {
      uint32_t count = 0;
      SUBREC_CHECK(c.ReadU32(&count).ok());
      if (lev == 0 && count == 2 * w.m) ++w.level0_full_rows;
      if (lev == 0 && count == 0) ++w.level0_empty_rows;
      if (lev > 0) w.max_upper_count = std::max(w.max_upper_count, count);
      for (uint32_t t = 0; t < count; ++t)
        SUBREC_CHECK(c.ReadI32(&skip).ok());
    }
  }
  SUBREC_CHECK(c.remaining() == 0);
  return w;
}

TEST(HnswIndex, SerializeMatchesPreRefactorGolden) {
  // The checked-in fixture is the Serialize() output of the pre-arena
  // implementation over this exact corpus and options. The arena/SIMD
  // build must still reproduce it byte for byte: the refactor changed the
  // data structures and kernels, never the graph or the wire format.
  const TestVectors tv = MakeClustered(240, 8, 4, 97);
  HnswOptions options;
  options.M = 8;
  options.ef_construction = 64;
  options.seed = 0x60D1DEA5ULL;
  const std::string golden = ReadGoldenOrDie("hnsw_v1_prerefactor.bin");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(BuildOrDie(tv, options)->Serialize(), golden);

  // And the pre-refactor bytes still load and re-serialize unchanged.
  auto restored = HnswIndex::Deserialize(golden);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->Serialize(), golden);
}

TEST(HnswIndex, WireRoundTripsAtRowCapacityBoundaries) {
  // Zero-link boundary: a single node has nothing to point at, so every
  // row it serializes is an empty count.
  {
    auto single = HnswIndex::Build({42}, {1.0, 2.0}, 2, HnswOptions{});
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const std::string bytes = single.value()->Serialize();
    const WireCensus w = ScanWire(bytes);
    EXPECT_EQ(w.n, 1u);
    EXPECT_GE(w.level0_empty_rows, 1u);
    EXPECT_EQ(w.max_upper_count, 0u);
    auto restored = HnswIndex::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->Serialize(), bytes);
  }

  // Full-row boundary: the smallest legal M over a dense corpus drives
  // level-0 rows to the 2M cap and upper rows to M, while plenty of nodes
  // stay level-0-only — every arena row shape crosses the wire at once.
  {
    const TestVectors tv = MakeClustered(160, 4, 2, 91);
    HnswOptions options;
    options.M = 2;
    options.ef_construction = 32;
    const auto index = BuildOrDie(tv, options);
    const std::string bytes = index->Serialize();
    const WireCensus w = ScanWire(bytes);
    EXPECT_GT(w.level0_full_rows, 0u) << "no level-0 row hit the 2M cap";
    EXPECT_GT(w.level0_only_nodes, 0u);
    EXPECT_GT(w.multi_level_nodes, 0u);
    EXPECT_EQ(w.max_upper_count, 2u) << "no upper row hit the M cap";

    auto restored = HnswIndex::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored.value()->Serialize(), bytes);

    // Identical search behavior through the round trip.
    const auto query = MakeQuery(tv.dim, 9);
    std::vector<Neighbor> a, b;
    ASSERT_TRUE(index->Search(query, 8, 32, &a).ok());
    ASSERT_TRUE(restored.value()->Search(query, 8, 32, &b).ok());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
}

TEST(HnswIndex, DeserializeRejectsLinkCountAboveRowCapacity) {
  const TestVectors tv = MakeClustered(48, 4, 2, 87);
  HnswOptions options;
  options.M = 4;
  options.ef_construction = 32;
  std::string bytes = BuildOrDie(tv, options)->Serialize();
  const WireCensus w = ScanWire(bytes);

  // Patch node 0's level-0 link count to one past the 2M row capacity.
  // The capacity check must fire on the count alone — before any link is
  // read — so no compensating payload edit can smuggle an oversized row
  // into the fixed-capacity arena.
  const uint32_t bad = 2 * w.m + 1;
  for (int b = 0; b < 4; ++b)
    bytes[w.graph_offset + static_cast<size_t>(b)] =
        static_cast<char>((bad >> (8 * b)) & 0xFF);
  const auto result = HnswIndex::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("capacity"), std::string::npos)
      << result.status().ToString();
}

// --- Determinism ----------------------------------------------------------

TEST(HnswIndex, SameSeedBuildsAreByteIdentical) {
  const TestVectors tv = MakeClustered(300, 6, 3, 71);
  const auto a = BuildOrDie(tv);
  const auto b = BuildOrDie(tv);
  EXPECT_EQ(a->Serialize(), b->Serialize());

  HnswOptions other_seed;
  other_seed.seed = 0xABCDEF;
  const auto c = BuildOrDie(tv, other_seed);
  EXPECT_NE(a->Serialize(), c->Serialize());
}

}  // namespace
}  // namespace subrec::ann
