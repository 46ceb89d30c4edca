#include <gtest/gtest.h>
#include <unistd.h>  // getpid

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_probe.h"
#include "ann/hnsw_index.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/corpus_generator.h"
#include "datagen/datasets.h"
#include "datagen/split.h"
#include "graph/academic_graph.h"
#include "la/ops.h"
#include "la/score_math.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "par/thread_pool.h"
#include "rec/nprec.h"
#include "rec/recommender.h"
#include "serve/candidate_index.h"
#include "serve/freeze.h"
#include "serve/frozen_scorer.h"
#include "serve/lru_cache.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "text/hashed_ngram_encoder.h"

namespace subrec::serve {
namespace {

constexpr int kSplitYear = 2014;

/// A tiny trained world: corpus, graph, naive frozen-encoder subspace
/// embeddings (as in rec_test), and a fitted fast NPRec — everything
/// FreezeNPRec needs, for any dataset preset.
struct TestWorld {
  datagen::GeneratedDataset dataset;
  graph::GraphIndex graph;
  rec::SubspaceEmbeddings subspace;
  std::vector<std::vector<double>> text;
  rec::RecContext ctx;
  std::unique_ptr<rec::NPRec> model;
};

std::unique_ptr<TestWorld> BuildWorld(
    const datagen::CorpusGeneratorOptions& corpus_options) {
  auto world = std::make_unique<TestWorld>();
  auto generated = datagen::GenerateCorpus(corpus_options);
  SUBREC_CHECK(generated.ok()) << generated.status().ToString();
  world->dataset = std::move(generated).value();
  const corpus::Corpus& corpus = world->dataset.corpus;
  const auto split = datagen::SplitByYear(corpus, kSplitYear);
  SUBREC_CHECK(!split.train.empty());
  SUBREC_CHECK(!split.test.empty());

  graph::GraphBuildOptions graph_options;
  graph_options.citation_year_cutoff = kSplitYear;
  world->graph = graph::BuildAcademicGraph(corpus, graph_options);

  text::HashedNgramEncoderOptions enc_options;
  enc_options.dim = 16;
  text::HashedNgramEncoder encoder(enc_options);
  for (const auto& p : corpus.papers) {
    std::vector<std::vector<double>> subs(3, std::vector<double>(16, 0.0));
    std::vector<int> counts(3, 0);
    for (const auto& s : p.abstract_sentences) {
      const size_t role =
          s.role >= 0 && s.role < 3 ? static_cast<size_t>(s.role) : 0;
      const auto v = encoder.Encode(s.text);
      for (size_t j = 0; j < v.size(); ++j) subs[role][j] += v[j];
      ++counts[role];
    }
    std::vector<double> fused(16, 0.0);
    for (size_t k = 0; k < 3; ++k) {
      if (counts[k] > 0)
        for (double& x : subs[k]) x /= counts[k];
      for (size_t j = 0; j < 16; ++j) fused[j] += subs[k][j] / 3.0;
    }
    world->subspace.push_back(std::move(subs));
    world->text.push_back(std::move(fused));
  }

  world->ctx.corpus = &corpus;
  world->ctx.graph = &world->graph;
  world->ctx.split_year = kSplitYear;
  world->ctx.train_papers = split.train;
  world->ctx.test_papers = split.test;
  world->ctx.paper_text = &world->text;

  rec::NPRecOptions options;
  options.embed_dim = 12;
  options.neighbor_samples = 4;
  options.epochs = 1;
  options.sampler.max_positives = 120;
  options.sampler.negatives_per_positive = 3;
  world->model = std::make_unique<rec::NPRec>(options, &world->subspace);
  const Status fit = world->model->Fit(world->ctx);
  SUBREC_CHECK(fit.ok()) << fit.ToString();
  return world;
}

/// A handcrafted 4-paper, 2-user snapshot for format/index tests.
SnapshotData TinyData() {
  SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "tiny";
  d.split_year = 2014;
  d.interest = {{1.0, 0.0}, {0.5, 0.5}, {0.0, 1.0}, {0.25, -0.75}};
  d.influence = {{0.2, 0.1}, {-0.5, 1.0}, {1.0, 1.0}, {0.0, 0.0}};
  d.text = {{0.1}, {0.2}, {0.3}, {0.4}};
  d.years = {2012, 2013, 2015, 2016};
  d.disciplines = {0, 1, 0, 1};
  d.topics = {0, 1, 0, 1};
  d.profiles = {{0}, {1, 0}};
  return d;
}

// --- CRC and file I/O -----------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

/// The reference CRC-32: the plain bytewise table loop (reflected, poly
/// 0xEDB88320), one table lookup per byte.
uint32_t BytewiseCrc32(std::string_view data) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBytewiseOracleOnEveryShortLengthAndOffset) {
  // Every length 0-64 from every start offset 0-7 covers each split
  // between the eight-byte steps and the byte tail, and every alignment.
  Rng rng(0xC3C32ULL);
  std::string buffer(64 + 8, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng.UniformInt(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view slice =
          std::string_view(buffer).substr(offset, len);
      EXPECT_EQ(Crc32(slice), BytewiseCrc32(slice))
          << "offset " << offset << " length " << len;
    }
  }
  std::string big(size_t{1} << 20, '\0');
  for (char& ch : big) ch = static_cast<char>(rng.UniformInt(256));
  EXPECT_EQ(Crc32(big), BytewiseCrc32(big));
}

TEST(Crc32, IncrementalUpdatesMatchOneShotAtEverySplit) {
  // Buffers just around the fold's 16-byte block and 64-byte step (and two
  // steps), split at every point: the fold takes whole blocks of one piece
  // and the tables its tail, so each split moves that boundary.
  Rng rng(0x1C2C3ULL);
  for (size_t len : {15u, 16u, 17u, 63u, 64u, 65u, 79u, 80u, 81u, 127u, 128u,
                     129u, 143u, 144u, 200u}) {
    std::string buffer(len, '\0');
    for (char& ch : buffer) ch = static_cast<char>(rng.UniformInt(256));
    const uint32_t oracle = BytewiseCrc32(buffer);
    ASSERT_EQ(Crc32(buffer), oracle) << "length " << len;
    for (size_t split = 0; split <= len; ++split) {
      const std::string_view view(buffer);
      EXPECT_EQ(Crc32Update(Crc32(view.substr(0, split)), view.substr(split)),
                oracle)
          << "length " << len << " split " << split;
    }
  }
  EXPECT_EQ(Crc32Update(0, ""), 0u);
  EXPECT_EQ(Crc32Update(Crc32("1234"), "56789"), 0xCBF43926u);
}

TEST(Crc32, FoldKernelMatchesTableKernelWhereTheHostHasPclmul) {
  const internal::Crc32FoldFn fold = internal::Crc32FoldKernel();
  if (fold == nullptr)
    GTEST_SKIP() << "no PCLMULQDQ in this build or on this CPU";
  Rng rng(0xF01DULL);
  std::string buffer(4096 + 15, '\0');
  for (char& ch : buffer) ch = static_cast<char>(rng.UniformInt(256));
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer.data());
  // Every 16-byte multiple from the minimum 64 up, from aligned and
  // unaligned starts, from the initial register and a running one.
  for (size_t offset : {0u, 1u, 7u, 15u}) {
    for (size_t n = 64; n <= 4096; n += 16) {
      for (uint32_t reg : {0xFFFFFFFFu, 0x12345678u}) {
        ASSERT_EQ(fold(reg, bytes + offset, n),
                  internal::Crc32Tables(reg, bytes + offset, n))
            << "offset " << offset << " length " << n;
      }
    }
  }
}

TEST(FileUtil, RoundTripsBinaryContent) {
  const std::string path = ::testing::TempDir() + "/subrec_file_util_test.bin";
  std::string content = "hello";
  content.push_back('\0');
  content += "\n\r binary \x01\xff tail";
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  const auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), content);
}

TEST(FileUtil, MissingFileIsNotFound) {
  const auto read = ReadFileToString("/nonexistent/subrec/nope.bin");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(FileUtil, ReadsEmptyFilesAndRejectsDirectories) {
  const std::string path = ::testing::TempDir() + "/subrec_file_util_empty";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  const auto empty = ReadFileToString(path);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().empty());
  // A directory has no size to read: an error Status, not a huge buffer.
  EXPECT_FALSE(ReadFileToString(::testing::TempDir()).ok());
}

// --- ShardedLruCache ------------------------------------------------------

TEST(LruCache, PutGetOverwrite) {
  obs::Gauge shards_used;
  ShardedLruCache<int, std::string> cache(8, 2, &shards_used);
  EXPECT_FALSE(cache.Get(1).has_value());
  cache.Put(1, "a");
  cache.Put(2, "b");
  EXPECT_EQ(cache.Get(1).value(), "a");
  cache.Put(1, "a2");
  EXPECT_EQ(cache.Get(1).value(), "a2");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  // One shard so the recency order is global and deterministic.
  obs::Gauge shards_used;
  ShardedLruCache<int, int> cache(2, 1, &shards_used);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_TRUE(cache.Get(1).has_value());  // refresh 1; 2 is now oldest
  cache.Put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(LruCache, ClearInvalidatesEverything) {
  obs::Gauge shards_used;
  ShardedLruCache<int, int> cache(64, 4, &shards_used);
  for (int i = 0; i < 32; ++i) cache.Put(i, i);
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(5).has_value());
}

/// ThreadPool + cache hammer: concurrent Get/Put/Clear across shards, with
/// the shards-used gauge attached. Run under the tsan preset this is the
/// serving-path race detector.
TEST(LruCache, ConcurrentHammer) {
  obs::Gauge shards_used;
  ShardedLruCache<uint64_t, std::vector<int>> cache(256, 8, &shards_used);
  par::ThreadPool pool(8);
  std::atomic<int> done{0};
  for (int t = 0; t < 16; ++t) {
    pool.Submit([&cache, &done, t] {
      for (uint64_t i = 0; i < 500; ++i) {
        const uint64_t key = (static_cast<uint64_t>(t) << 32) | (i % 97);
        if (i % 3 == 0) cache.Put(key, std::vector<int>{t, static_cast<int>(i)});
        auto hit = cache.Get(key);
        if (hit.has_value()) {
          ASSERT_EQ(hit->size(), 2u);
          ASSERT_EQ((*hit)[0], t);
        }
        if (i % 251 == 0) cache.Clear();
      }
      done.fetch_add(1);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(done.load(), 16);
  EXPECT_GT(cache.hits() + cache.misses(), 0);
  // Quiescent now: the count must be exact, so one more Clear lands on 0
  // unless a transition was lost or counted twice under contention.
  EXPECT_LE(shards_used.value(), 8.0);
  cache.Clear();
  EXPECT_EQ(shards_used.value(), 0.0);
}

/// The service's key layout in the service's default cache shape (4,096
/// entries over 16 shards): 4,096 users at n = 10 must nearly all stay
/// resident. If the key's low bits picked the shard, every one of these
/// keys would share a single 256-entry shard.
TEST(LruCache, ServiceKeysFillTheWholeCache) {
  obs::Gauge shards_used;
  ShardedLruCache<uint64_t, int32_t> cache(4096, 16, &shards_used);
  for (int32_t user = 0; user < 4096; ++user)
    cache.Put(ResultCacheKey(/*generation=*/1, user, /*n=*/10), user);
  EXPECT_GE(cache.size(), 4096u * 9 / 10);
}

/// Keys that differ only in `user` reach all 16 shards. The gauge follows
/// each shard's first insert and its emptying by Clear or by the cache's
/// destruction, so two caches on one gauge read as their total.
TEST(LruCache, ShardsUsedGaugeFollowsFirstInsertAndClear) {
  obs::Gauge gauge;
  {
    ShardedLruCache<uint64_t, int32_t> cache(64, 16, &gauge);
    for (int32_t user = 0; user < 256; ++user)
      cache.Put(ResultCacheKey(/*generation=*/1, user, /*n=*/10), user);
    EXPECT_EQ(gauge.value(), 16.0);
    cache.Clear();
    EXPECT_EQ(gauge.value(), 0.0);
    const uint64_t key = ResultCacheKey(/*generation=*/2, 0, /*n=*/10);
    cache.Put(key, 0);
    cache.Put(key, 1);  // overwrite
    EXPECT_EQ(gauge.value(), 1.0);
    {
      ShardedLruCache<uint64_t, int32_t> other(64, 16, &gauge);
      other.Put(key, 0);
      EXPECT_EQ(gauge.value(), 2.0);
    }
    EXPECT_EQ(gauge.value(), 1.0);
  }
  EXPECT_EQ(gauge.value(), 0.0);
}

// --- Snapshot format ------------------------------------------------------

TEST(Snapshot, RoundTripsTinyDataExactly) {
  const SnapshotData data = TinyData();
  SnapshotWriter writer(data);
  const auto parsed = SnapshotReader::Parse(writer.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SnapshotData& out = parsed.value();
  EXPECT_EQ(out.model_name, data.model_name);
  EXPECT_EQ(out.dataset, data.dataset);
  EXPECT_EQ(out.split_year, data.split_year);
  EXPECT_EQ(out.interest, data.interest);  // bit-exact doubles
  EXPECT_EQ(out.influence, data.influence);
  EXPECT_EQ(out.text, data.text);
  EXPECT_EQ(out.years, data.years);
  EXPECT_EQ(out.disciplines, data.disciplines);
  EXPECT_EQ(out.topics, data.topics);
  EXPECT_EQ(out.profiles, data.profiles);
}

TEST(Snapshot, RoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "/subrec_snapshot_test.snap";
  SnapshotWriter writer(TinyData());
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const auto parsed = SnapshotReader::ReadFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().interest, TinyData().interest);
}

TEST(Snapshot, RejectsCorruptInputWithoutCrashing) {
  SnapshotWriter writer(TinyData());
  const std::string& good = writer.bytes();

  EXPECT_FALSE(SnapshotReader::Parse("").ok());
  EXPECT_FALSE(SnapshotReader::Parse("short").ok());
  // Truncated mid-header and mid-payload.
  EXPECT_FALSE(SnapshotReader::Parse(good.substr(0, 10)).ok());
  EXPECT_FALSE(SnapshotReader::Parse(good.substr(0, good.size() - 3)).ok());

  // Bad magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(SnapshotReader::Parse(bad_magic).ok());

  // Unsupported version (byte 8 is the version LSB).
  std::string bad_version = good;
  bad_version[8] = 99;
  const auto version_result = SnapshotReader::Parse(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Every single-byte payload corruption must trip the checksum.
  const size_t header_size = 24;
  for (size_t pos = header_size; pos < good.size() - 4; pos += 37) {
    std::string corrupt = good;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    EXPECT_FALSE(SnapshotReader::Parse(corrupt).ok()) << "at byte " << pos;
  }
}

TEST(Snapshot, RejectsLyingSectionLengths) {
  // Hand-assemble a snapshot whose (checksummed) payload declares a section
  // far larger than the payload: the CRC passes, the cursor must not.
  auto append_u32 = [](std::string* s, uint32_t v) {
    for (int i = 0; i < 4; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  auto append_u64 = [](std::string* s, uint64_t v) {
    for (int i = 0; i < 8; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  std::string payload;
  append_u32(&payload, 2);                    // interest section tag
  append_u64(&payload, 1ULL << 40);           // absurd section size
  std::string bytes;
  append_u64(&bytes, 0x31504E5352425553ULL);  // magic
  append_u32(&bytes, 1);                      // version
  append_u32(&bytes, 1);                      // section count
  append_u64(&bytes, payload.size());
  bytes += payload;
  append_u32(&bytes, Crc32(payload));
  const auto parsed = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kOutOfRange);
}

TEST(Snapshot, RejectsCraftedMatrixDimensionsWithoutCrashing) {
  // Valid-CRC snapshots whose interest-matrix header lies about its
  // dimensions. Each must come back as an error Status — not a SIGFPE
  // from 8*cols wrapping to zero, not a bad_alloc from a giant fill.
  auto append_u32 = [](std::string* s, uint32_t v) {
    for (int i = 0; i < 4; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  auto append_u64 = [](std::string* s, uint64_t v) {
    for (int i = 0; i < 8; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  auto craft = [&](uint64_t rows, uint64_t cols) {
    std::string payload;
    append_u32(&payload, 2);  // interest section tag
    append_u64(&payload, 16);  // section body: just the two dimension words
    append_u64(&payload, rows);
    append_u64(&payload, cols);
    std::string bytes;
    append_u64(&bytes, 0x31504E5352425553ULL);  // magic
    append_u32(&bytes, 1);                      // version
    append_u32(&bytes, 1);                      // section count
    append_u64(&bytes, payload.size());
    bytes += payload;
    append_u32(&bytes, Crc32(payload));
    return bytes;
  };

  // cols == 2^61 makes 8*cols wrap to 0 in a naive guard.
  auto r = SnapshotReader::Parse(craft(1, uint64_t{1} << 61));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // rows == 0 must not admit an arbitrary cols (fill-temporary alloc).
  r = SnapshotReader::Parse(craft(0, uint64_t{1} << 40));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // cols == 0 must not admit an arbitrary rows (empty-row flood).
  r = SnapshotReader::Parse(craft(uint64_t{1} << 50, 0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  // Plausible dimensions with no value bytes behind them: truncated.
  EXPECT_FALSE(SnapshotReader::Parse(craft(2, 2)).ok());
  // The degenerate-but-honest 0x0 matrix must still get past the
  // dimension guards (every other array is consistently empty too, so
  // the whole snapshot parses).
  r = SnapshotReader::Parse(craft(0, 0));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().interest.empty());
}

TEST(Snapshot, RejectsInconsistentArrays) {
  SnapshotData skew = TinyData();
  skew.years.pop_back();
  SnapshotWriter writer(skew);
  EXPECT_FALSE(SnapshotReader::Parse(writer.bytes()).ok());

  SnapshotData bad_profile = TinyData();
  bad_profile.profiles[0][0] = 99;  // paper id out of range
  SnapshotWriter writer2(bad_profile);
  EXPECT_FALSE(SnapshotReader::Parse(writer2.bytes()).ok());
}

// --- ANN section ----------------------------------------------------------

/// A real serialized HnswIndex over TinyData's influence rows.
std::string TinyAnnBytes() {
  const SnapshotData d = TinyData();
  std::vector<int32_t> ids;
  std::vector<double> flat;
  for (size_t i = 0; i < d.influence.rows(); ++i) {
    ids.push_back(static_cast<int32_t>(i));
    const double* row = d.influence.row_data(i);
    flat.insert(flat.end(), row, row + d.influence.cols());
  }
  auto built = ann::HnswIndex::Build(ids, flat, 2, ann::HnswOptions{});
  SUBREC_CHECK(built.ok()) << built.status().ToString();
  return built.value()->Serialize();
}

TEST(Snapshot, AnnSectionRoundTripsAndStaysOptional) {
  // Without an index the format is byte-identical to the pre-ANN layout:
  // no empty section is emitted, and parsing yields an empty ann_index.
  const std::string base = SnapshotWriter(TinyData()).bytes();
  auto base_parsed = SnapshotReader::Parse(base);
  ASSERT_TRUE(base_parsed.ok());
  EXPECT_TRUE(base_parsed.value().ann_index.empty());

  SnapshotData with_ann = TinyData();
  with_ann.ann_index = TinyAnnBytes();
  const std::string bytes = SnapshotWriter(with_ann).bytes();
  EXPECT_GT(bytes.size(), base.size());
  auto parsed = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().ann_index, with_ann.ann_index);
  EXPECT_EQ(parsed.value().interest, with_ann.interest);
}

/// A small snapshot that reaches every section: 40 papers, 5-dim slabs, a
/// text slab, untopiced papers, empty and multi-paper profiles, and an ANN
/// section over the post-split papers (freeze-time HNSW defaults).
SnapshotData GoldenAnnData() {
  constexpr size_t kPapers = 40;
  constexpr size_t kDim = 5;
  SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "golden";
  d.split_year = 2014;
  d.interest.ResizeOverwrite(kPapers, kDim);
  d.influence.ResizeOverwrite(kPapers, kDim);
  d.text.ResizeOverwrite(kPapers, 3);
  for (size_t p = 0; p < kPapers; ++p) {
    for (size_t j = 0; j < kDim; ++j) {
      d.interest(p, j) = static_cast<double>((p * 7 + j * 3) % 11) / 11.0 - 0.5;
      d.influence(p, j) = static_cast<double>((p * 5 + j * 13) % 17) / 17.0 - 0.25;
    }
    for (size_t j = 0; j < 3; ++j)
      d.text(p, j) = static_cast<double>(p + j) / 64.0;
    d.years.push_back(2010 + static_cast<int32_t>(p % 8));
    d.disciplines.push_back(static_cast<int32_t>(p % 3));
    d.topics.push_back(p % 9 == 0 ? -1 : static_cast<int32_t>(p % 5));
  }
  d.profiles = {{}, {3}, {1, 2, 6}, {}, {39, 0, 17, 22}, {5, 5}};
  std::vector<int32_t> ids;
  std::vector<double> flat;
  for (size_t p = 0; p < kPapers; ++p) {
    if (d.years[p] <= d.split_year) continue;
    ids.push_back(static_cast<int32_t>(p));
    flat.insert(flat.end(), d.influence.row_data(p),
                d.influence.row_data(p) + kDim);
  }
  auto built = ann::HnswIndex::Build(ids, flat, kDim, ann::HnswOptions{});
  SUBREC_CHECK(built.ok()) << built.status().ToString();
  d.ann_index = built.value()->Serialize();
  return d;
}

TEST(Snapshot, BytesMatchTheFormatGolden) {
  // FNV-1a of the full encoding, recorded before the bulk array codec:
  // the writer moves whole arrays at a time now, and the bytes on disk
  // (framing, order, byte order, checksum) must not move with it.
  const SnapshotData data = GoldenAnnData();
  const std::string bytes = SnapshotWriter(data).bytes();
  EXPECT_EQ(bytes.size(), 6075u);
  EXPECT_EQ(Fnv1aHash(data.ann_index), 0x12439c191aad3626ULL);
  EXPECT_EQ(Fnv1aHash(bytes), 0xf6b67e2a1645e077ULL);
  const auto parsed = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SnapshotWriter(parsed.value()).bytes(), bytes);
}

TEST(Snapshot, SkipsUnknownFutureSections) {
  // Forward compatibility: a reader at this version must skip sections
  // tagged by future writers and still decode everything it knows. Craft
  // such a snapshot by appending an unknown section and re-checksumming.
  auto append_u32 = [](std::string* s, uint32_t v) {
    for (int i = 0; i < 4; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  auto append_u64 = [](std::string* s, uint64_t v) {
    for (int i = 0; i < 8; ++i)
      s->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  };
  const std::string good = SnapshotWriter(TinyData()).bytes();
  constexpr size_t kHeaderSize = 24;  // magic + version + count + size
  std::string payload = good.substr(kHeaderSize, good.size() - kHeaderSize - 4);
  const std::string future_body = "opaque bytes from the future";
  append_u32(&payload, 777);  // tag no current reader knows
  append_u64(&payload, future_body.size());
  payload += future_body;

  std::string crafted = good.substr(0, 12);
  const uint32_t old_count = static_cast<uint8_t>(good[12]) |
                             static_cast<uint32_t>(
                                 static_cast<uint8_t>(good[13])) << 8;
  append_u32(&crafted, old_count + 1);
  append_u64(&crafted, payload.size());
  crafted += payload;
  append_u32(&crafted, Crc32(payload));

  const auto parsed = SnapshotReader::Parse(crafted);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const SnapshotData expected = TinyData();
  EXPECT_EQ(parsed.value().interest, expected.interest);
  EXPECT_EQ(parsed.value().influence, expected.influence);
  EXPECT_EQ(parsed.value().years, expected.years);
  EXPECT_EQ(parsed.value().profiles, expected.profiles);
  EXPECT_TRUE(parsed.value().ann_index.empty());
}

TEST(ServingState, RejectsCorruptAnnSection) {
  // Garbage in the ANN section survives the (opaque) snapshot layer but
  // must fail the load — not lurk until a retrieval-mode flip.
  SnapshotData garbage = TinyData();
  garbage.ann_index = "definitely not a serialized hnsw graph";
  auto round_trip = SnapshotReader::Parse(SnapshotWriter(garbage).bytes());
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_FALSE(
      ServingState::FromSnapshot(std::move(round_trip).value(), {}).ok());

  // Truncated real index bytes: same story.
  SnapshotData truncated = TinyData();
  const std::string ann = TinyAnnBytes();
  truncated.ann_index = ann.substr(0, ann.size() - 5);
  EXPECT_FALSE(ServingState::FromSnapshot(std::move(truncated), {}).ok());

  // The identical snapshot with intact bytes loads fine.
  SnapshotData intact = TinyData();
  intact.ann_index = ann;
  const auto loaded = ServingState::FromSnapshot(std::move(intact), {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value()->ann_index, nullptr);
  EXPECT_EQ(loaded.value()->ann_index->size(), 4u);
}

TEST(ServingState, RejectsAnnSectionWithOutOfRangePaperIds) {
  // A structurally valid index whose external ids exceed the snapshot's
  // paper count (Deserialize treats ids as opaque) must be a load error,
  // not an out-of-bounds read during the candidate pass.
  const SnapshotData d = TinyData();
  std::vector<int32_t> ids;
  std::vector<double> flat;
  for (size_t i = 0; i < d.influence.rows(); ++i) {
    ids.push_back(static_cast<int32_t>(i) + 40);  // 40..43, all out of range
    const double* row = d.influence.row_data(i);
    flat.insert(flat.end(), row, row + d.influence.cols());
  }
  auto built = ann::HnswIndex::Build(ids, flat, 2, ann::HnswOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  SnapshotData skewed = TinyData();
  skewed.ann_index = built.value()->Serialize();
  CandidateIndexOptions options;
  options.retrieval = RetrievalMode::kAnnEmbedding;
  const auto result = ServingState::FromSnapshot(std::move(skewed), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("outside paper range"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ServingState, RejectsAnnSectionWithDimMismatch) {
  // Two individually well-formed but mutually inconsistent sections: a
  // 3-dim index over a 2-dim embedding snapshot. Must be a load-time
  // Status, not a CHECK-abort when the first query hits Search.
  const SnapshotData d = TinyData();
  std::vector<int32_t> ids;
  std::vector<double> flat;
  for (size_t i = 0; i < d.influence.rows(); ++i) {
    ids.push_back(static_cast<int32_t>(i));
    const double* row = d.influence.row_data(i);
    flat.insert(flat.end(), row, row + d.influence.cols());
    flat.push_back(0.0);  // pad each row to dim 3
  }
  auto built = ann::HnswIndex::Build(ids, flat, 3, ann::HnswOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  SnapshotData skewed = TinyData();
  skewed.ann_index = built.value()->Serialize();
  CandidateIndexOptions options;
  options.retrieval = RetrievalMode::kAnnEmbedding;
  const auto result = ServingState::FromSnapshot(std::move(skewed), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("dim"), std::string::npos)
      << result.status().ToString();
}

TEST(ServingState, AnnModeWithoutIndexIsALoadError) {
  CandidateIndexOptions options;
  options.retrieval = RetrievalMode::kAnnEmbedding;
  const auto result = ServingState::FromSnapshot(TinyData(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ANN"), std::string::npos);
}

TEST(ServingState, TopicIdValuesDoNotSizeTheLoad) {
  // Topic ids come from the snapshot unbounded. One in-window paper of
  // topic 2^22 must cost what one of topic 3 costs: a table sized by the
  // largest id asked for ~100 MB here.
  SnapshotData data = TinyData();  // papers 2 and 3 are in the window
  data.topics = {3, int32_t{1} << 22, 3, int32_t{1} << 22};
  data.profiles = {{0}, {1}};
  CandidateIndexOptions options;
  options.min_year = kSplitYear;
  Result<std::shared_ptr<const ServingState>> state =
      Status(StatusCode::kInternal, "not loaded");
  const int64_t bytes = alloc_probe::CountAllocatedBytes([&] {
    state = ServingState::FromSnapshot(std::move(data), options);
  });
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_LT(bytes, int64_t{1} << 20);
  const CandidateIndex& index = state.value()->index;
  EXPECT_EQ(index.CandidatesFor(0), (std::vector<int32_t>{2}));
  EXPECT_EQ(index.CandidatesFor(1), (std::vector<int32_t>{3}));
  EXPECT_EQ(index.PapersForTopic(int32_t{1} << 22), (std::vector<int32_t>{3}));
  EXPECT_TRUE(index.PapersForTopic((int32_t{1} << 22) - 1).empty());
}

TEST(ServingState, OneLoadRecordsEachLoadStageSpanOnce) {
  // Decode (and within it each section), ANN deserialize, candidate index,
  // scorer (which holds the influence row layout) and the swap each record
  // one span per load.
  const std::string path = ::testing::TempDir() + "/subrec_load_spans." +
                           std::to_string(getpid()) + ".snap";
  ASSERT_TRUE(SnapshotWriter(GoldenAnnData()).WriteFile(path).ok());
  RecommendService service(ServeOptions{});
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable();
  const Status loaded = service.LoadSnapshotFile(path);
  const std::vector<obs::SpanTotal> totals = recorder.AggregateTotals();
  const std::vector<obs::TraceEvent> events = recorder.Events();
  recorder.Disable();
  recorder.Clear();
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  std::map<std::string, int64_t> counts;
  for (const obs::SpanTotal& total : totals) counts[total.name] = total.count;
  const std::vector<std::string> sections = {
      "serve/decode/meta",        "serve/decode/interest",
      "serve/decode/influence",   "serve/decode/text",
      "serve/decode/years",       "serve/decode/disciplines",
      "serve/decode/topics",      "serve/decode/profiles",
      "serve/decode/ann"};
  for (const char* name :
       {"serve/decode", "serve/ann_deserialize", "serve/candidate_index",
        "serve/scorer", "serve/swap"}) {
    EXPECT_EQ(counts[name], 1) << name;
  }
  for (const std::string& name : sections) EXPECT_EQ(counts[name], 1) << name;
  EXPECT_EQ(counts["serve/decode/unknown"], 0);

  // Each section span lies inside the decode span, on the same thread.
  const auto decode = std::find_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return std::string_view(e.name) == "serve/decode";
      });
  ASSERT_NE(decode, events.end());
  for (const obs::TraceEvent& e : events) {
    if (std::find(sections.begin(), sections.end(), e.name) == sections.end())
      continue;
    EXPECT_EQ(e.tid, decode->tid) << e.name;
    EXPECT_GE(e.start_ns, decode->start_ns) << e.name;
    EXPECT_LE(e.start_ns + e.duration_ns,
              decode->start_ns + decode->duration_ns)
        << e.name;
  }
}

// --- CandidateIndex -------------------------------------------------------

TEST(CandidateIndex, FiltersByYearWindowDisciplineAndTopic) {
  const SnapshotData data = TinyData();  // papers 2,3 are post-2014
  CandidateIndexOptions options;
  options.min_year = 2014;
  CandidateIndex index(data, options);
  EXPECT_EQ(index.num_new_papers(), 2u);
  EXPECT_EQ(index.AllNewPapers(), (std::vector<int32_t>{2, 3}));

  // User 0's profile {0}: discipline 0, topic 0 -> candidate 2 only.
  EXPECT_EQ(index.CandidatesFor(0), (std::vector<int32_t>{2}));
  // User 1's profile {1,0}: both disciplines and topics -> both papers.
  EXPECT_EQ(index.CandidatesFor(1), (std::vector<int32_t>{2, 3}));
  // Unknown user falls back to the full pool.
  EXPECT_EQ(index.CandidatesFor(7), (std::vector<int32_t>{2, 3}));
  EXPECT_EQ(index.CandidatesFor(-1), (std::vector<int32_t>{2, 3}));

  // Inverted topic index covers only in-window papers.
  EXPECT_EQ(index.PapersForTopic(0), (std::vector<int32_t>{2}));
  EXPECT_EQ(index.PapersForTopic(1), (std::vector<int32_t>{3}));
  EXPECT_TRUE(index.PapersForTopic(9).empty());
}

TEST(CandidateIndex, YearWindowAndFilterToggles) {
  const SnapshotData data = TinyData();
  CandidateIndexOptions narrow;
  narrow.min_year = 2014;
  narrow.max_year = 2015;
  EXPECT_EQ(CandidateIndex(data, narrow).AllNewPapers(),
            (std::vector<int32_t>{2}));

  CandidateIndexOptions open;
  open.min_year = 2014;
  open.filter_disciplines = false;
  open.prune_topics = false;
  CandidateIndex index(data, open);
  EXPECT_EQ(index.CandidatesFor(0), (std::vector<int32_t>{2, 3}));
}

/// Papers 0-4 are pre-split (2010), 5-11 in the window (2016), 12 past
/// max_year (2021). In-window topics stop at 3, so topic 7 (paper 3) lies
/// past the inverted index, and discipline 5 (paper 4) has no in-window
/// paper at all. The profiles reach every filtered branch, including two
/// pairs of users whose profiles span one topic and discipline set.
SnapshotData CandidateBranchData() {
  SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "branches";
  d.split_year = 2014;
  //                     0     1     2     3     4     5     6
  d.years = {2010, 2010, 2010, 2010, 2010, 2016, 2016,
             2016, 2016, 2016, 2016, 2016, 2021};
  d.disciplines = {0, 1, 0, 2, 5, 0, 0, 1, 1, 2, 0, 2, 0};
  d.topics = {0, 1, -1, 7, 2, 0, 1, 0, 2, 3, -1, 0, 0};
  const size_t n = d.years.size();
  d.interest.ResizeOverwrite(n, 3);
  d.influence.ResizeOverwrite(n, 3);
  for (size_t p = 0; p < n; ++p) {
    for (size_t j = 0; j < 3; ++j) {
      d.interest(p, j) = static_cast<double>((p * 5 + j * 3) % 7) / 7.0 - 0.4;
      d.influence(p, j) = static_cast<double>((p * 3 + j * 5) % 11) / 11.0;
    }
  }
  d.profiles = {
      {},         // 0: empty -> full pool
      {0},        // 1: topic 0, discipline 0
      {0, 0},     // 2: same set as user 1
      {0, 1},     // 3: topics {0,1}, disciplines {0,1}
      {1, 0, 1},  // 4: same set as user 3
      {2},        // 5: topic -1 only -> discipline-filtered
      {3},        // 6: topic past the index -> discipline-filtered
      {4},        // 7: nothing survives -> fallback pool
      {},         // 8: empty
      {5, 9},     // 9: in-window profile papers, topics {0,3}
      {1},        // 10: topic 1's papers are all discipline 0
  };
  return d;
}

/// The pre-sharing construction, user by user: union the user's topic
/// postings, sort, unique, then fall back to the discipline-filtered pool
/// and finally to the whole pool.
std::pair<std::vector<int32_t>, CandidateSource> ReferenceFilteredList(
    const SnapshotData& d, const CandidateIndexOptions& o,
    const std::vector<int32_t>& profile) {
  std::vector<int32_t> pool;
  for (size_t p = 0; p < d.years.size(); ++p)
    if (d.years[p] > o.min_year && d.years[p] <= o.max_year)
      pool.push_back(static_cast<int32_t>(p));
  if (profile.empty()) return {pool, CandidateSource::kFullPool};
  std::set<int32_t> disciplines, topics;
  for (int32_t pid : profile) {
    disciplines.insert(d.disciplines[static_cast<size_t>(pid)]);
    if (d.topics[static_cast<size_t>(pid)] >= 0)
      topics.insert(d.topics[static_cast<size_t>(pid)]);
  }
  auto discipline_ok = [&](int32_t p) {
    return !o.filter_disciplines ||
           disciplines.count(d.disciplines[static_cast<size_t>(p)]) > 0;
  };
  std::vector<int32_t> chosen;
  if (o.prune_topics) {
    for (int32_t t : topics)
      for (int32_t p : pool)
        if (d.topics[static_cast<size_t>(p)] == t && discipline_ok(p))
          chosen.push_back(p);
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    if (!chosen.empty()) return {chosen, CandidateSource::kTopicPruned};
  }
  for (int32_t p : pool)
    if (discipline_ok(p)) chosen.push_back(p);
  if (!chosen.empty()) return {chosen, CandidateSource::kDisciplineFiltered};
  return {pool, CandidateSource::kFallbackPool};
}

TEST(CandidateIndex, SharedListsMatchThePerUserReferenceOnEveryBranch) {
  const SnapshotData data = CandidateBranchData();
  std::vector<int32_t> ann_ids;
  std::vector<double> ann_vectors;
  for (int32_t p = 5; p <= 11; ++p) {
    ann_ids.push_back(p);
    const double* row = data.influence.row_data(static_cast<size_t>(p));
    ann_vectors.insert(ann_vectors.end(), row, row + 3);
  }
  auto ann = ann::HnswIndex::Build(ann_ids, ann_vectors, 3, ann::HnswOptions{});
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();

  std::set<CandidateSource> reached;
  for (int config = 0; config < 5; ++config) {
    CandidateIndexOptions options;
    options.min_year = 2014;
    options.max_year = 2019;
    options.prune_topics = config != 1 && config != 3;
    options.filter_disciplines = config != 2 && config != 3;
    if (config == 4) {
      options.retrieval = RetrievalMode::kAnnEmbedding;
      options.ann_candidates = 3;
      options.ann_ef = 8;
    }
    const CandidateIndex index(data, options, ann.value().get());
    ASSERT_EQ(index.num_users(), data.profiles.size());
    EXPECT_EQ(index.AllNewPapers(),
              (std::vector<int32_t>{5, 6, 7, 8, 9, 10, 11}));
    // Users holding one key must hold one list, and the full pool is one
    // list for everyone who falls back to it.
    std::map<std::pair<std::set<int32_t>, std::set<int32_t>>,
             const std::vector<int32_t>*> list_of_key;
    for (size_t u = 0; u < data.profiles.size(); ++u) {
      const auto user = static_cast<int32_t>(u);
      const std::vector<int32_t>& profile = data.profiles[u];
      auto [want, want_source] = ReferenceFilteredList(data, options, profile);
      if (options.retrieval == RetrievalMode::kAnnEmbedding &&
          !profile.empty()) {
        std::vector<double> query(3, 0.0);
        for (int32_t pid : profile)
          for (size_t j = 0; j < 3; ++j)
            query[j] += data.interest(static_cast<size_t>(pid), j) /
                        static_cast<double>(profile.size());
        std::vector<ann::Neighbor> hits;
        ASSERT_TRUE(ann.value()->Search(query, 3, 8, &hits).ok());
        std::vector<int32_t> ids;
        for (const ann::Neighbor& hit : hits) ids.push_back(hit.id);
        std::sort(ids.begin(), ids.end());
        want = ids;
        want_source = CandidateSource::kAnnEmbedding;
      }
      EXPECT_EQ(index.CandidatesFor(user), want)
          << "config " << config << " user " << u;
      EXPECT_EQ(index.SourceFor(user), want_source)
          << "config " << config << " user " << u;
      reached.insert(index.SourceFor(user));

      const std::vector<int32_t>* address = &index.CandidatesFor(user);
      if (want_source == CandidateSource::kFullPool ||
          want_source == CandidateSource::kFallbackPool) {
        EXPECT_EQ(address, &index.AllNewPapers())
            << "config " << config << " user " << u;
      } else if (want_source != CandidateSource::kAnnEmbedding) {
        std::set<int32_t> topics, disciplines;
        for (int32_t pid : profile) {
          const auto p = static_cast<size_t>(pid);
          if (options.prune_topics && data.topics[p] >= 0)
            topics.insert(data.topics[p]);
          if (options.filter_disciplines)
            disciplines.insert(data.disciplines[p]);
        }
        const auto [it, inserted] =
            list_of_key.try_emplace({topics, disciplines}, address);
        if (!inserted) {
          EXPECT_EQ(address, it->second)
              << "config " << config << " user " << u;
        }
      }
    }
    EXPECT_EQ(index.SourceFor(-1), CandidateSource::kUnknownUser);
    EXPECT_EQ(index.SourceFor(99), CandidateSource::kUnknownUser);
    reached.insert(index.SourceFor(-1));
    EXPECT_EQ(&index.CandidatesFor(99), &index.AllNewPapers());
    EXPECT_TRUE(index.PapersForTopic(7).empty());
  }
  EXPECT_EQ(reached.size(), static_cast<size_t>(kNumCandidateSources));

  // The named cases, with everything on: users 1/2 and 3/4 share lists,
  // topic -1 and topic 7 fall to the discipline filter.
  CandidateIndexOptions options;
  options.min_year = 2014;
  options.max_year = 2019;
  const CandidateIndex index(data, options);
  EXPECT_EQ(&index.CandidatesFor(1), &index.CandidatesFor(2));
  EXPECT_EQ(&index.CandidatesFor(3), &index.CandidatesFor(4));
  EXPECT_NE(&index.CandidatesFor(1), &index.CandidatesFor(3));
  EXPECT_EQ(index.CandidatesFor(3), (std::vector<int32_t>{5, 6, 7}));
  EXPECT_EQ(index.SourceFor(5), CandidateSource::kDisciplineFiltered);
  EXPECT_EQ(index.CandidatesFor(5), (std::vector<int32_t>{5, 6, 10}));
  EXPECT_EQ(index.SourceFor(6), CandidateSource::kDisciplineFiltered);
  EXPECT_EQ(index.CandidatesFor(6), (std::vector<int32_t>{9, 11}));
  EXPECT_EQ(index.SourceFor(7), CandidateSource::kFallbackPool);
  EXPECT_EQ(index.SourceFor(10), CandidateSource::kDisciplineFiltered);
  EXPECT_EQ(index.CandidatesFor(10), (std::vector<int32_t>{7, 8}));
}

// --- FrozenScorer ---------------------------------------------------------

TEST(CandidateIndex, AnnListsMatchDirectSearchesInAnyWalkOrder) {
  // The ANN pass walks users grouped by their profiles' (topic,
  // discipline) pairs, not in id order. Here consecutive user ids cycle
  // through the keys, so the walk order differs from id order; every
  // user's list must still be exactly the window-filtered, sorted hits of
  // its own search, and the ann.* work counters the sum of those
  // searches, at any thread count.
  constexpr size_t kPapers = 240;
  constexpr size_t kDim = 6;
  SnapshotData data;
  data.split_year = 2014;
  data.interest.ResizeOverwrite(kPapers, kDim);
  data.influence.ResizeOverwrite(kPapers, kDim);
  Rng rng(0xA11C0DEULL);
  for (size_t p = 0; p < kPapers; ++p) {
    for (size_t j = 0; j < kDim; ++j) {
      data.interest(p, j) = rng.Uniform(-1.0, 1.0);
      data.influence(p, j) = rng.Uniform(-1.0, 1.0);
    }
    data.years.push_back(2010 + static_cast<int32_t>(p % 9));
    data.topics.push_back(static_cast<int32_t>(p % 8));
    data.disciplines.push_back(static_cast<int32_t>(p % 8) / 3);
  }
  for (size_t u = 0; u < 96; ++u) {
    // Papers of topic u % 8, plus one of topic (u / 8) % 8 for every other
    // user: ids next to each other never share a key.
    std::vector<int32_t> profile = {static_cast<int32_t>(u % 8),
                                    static_cast<int32_t>(u % 8 + 8 * (u % 5))};
    if (u % 2 == 1) profile.push_back(static_cast<int32_t>((u / 8) % 8 + 16));
    data.profiles.push_back(std::move(profile));
  }
  data.profiles[7].clear();  // served by the filtered branch
  std::vector<int32_t> ids;
  std::vector<double> flat;
  for (size_t p = 0; p < kPapers; ++p) {
    ids.push_back(static_cast<int32_t>(p));
    flat.insert(flat.end(), data.influence.row_data(p),
                data.influence.row_data(p) + kDim);
  }
  auto built = ann::HnswIndex::Build(ids, flat, kDim, ann::HnswOptions{});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ann::HnswIndex& ann_index = *built.value();

  CandidateIndexOptions options;
  options.retrieval = RetrievalMode::kAnnEmbedding;
  options.min_year = data.split_year;
  options.max_year = 2017;
  options.ann_candidates = 24;
  options.ann_ef = 32;

  // The reference: one direct search per user, in id order.
  std::vector<std::vector<int32_t>> expected(data.profiles.size());
  ann::SearchStats expected_stats;
  for (size_t u = 0; u < data.profiles.size(); ++u) {
    const std::vector<int32_t>& profile = data.profiles[u];
    if (profile.empty()) continue;
    std::vector<double> query(kDim, 0.0);
    for (int32_t pid : profile)
      for (size_t d = 0; d < kDim; ++d)
        query[d] += data.interest(static_cast<size_t>(pid), d);
    const double inv = 1.0 / static_cast<double>(profile.size());
    for (double& q : query) q *= inv;
    std::vector<ann::Neighbor> hits;
    ASSERT_TRUE(ann_index
                    .Search(query, options.ann_candidates, options.ann_ef,
                            &hits, &expected_stats)
                    .ok());
    for (const ann::Neighbor& hit : hits) {
      const int32_t year = data.years[static_cast<size_t>(hit.id)];
      if (year > options.min_year && year <= options.max_year)
        expected[u].push_back(hit.id);
    }
    std::sort(expected[u].begin(), expected[u].end());
    ASSERT_FALSE(expected[u].empty()) << "user " << u;
  }

  auto& registry = obs::MetricsRegistry::Global();
  for (size_t threads : {1u, 2u, 4u}) {
    par::ScopedNumThreads scoped(threads);
    const int64_t nodes_before =
        registry.GetCounter("ann.nodes_visited")->value();
    const int64_t evals_before =
        registry.GetCounter("ann.distance_evals")->value();
    const CandidateIndex index(data, options, &ann_index);
    EXPECT_EQ(registry.GetCounter("ann.nodes_visited")->value() - nodes_before,
              expected_stats.nodes_visited)
        << threads << " threads";
    EXPECT_EQ(
        registry.GetCounter("ann.distance_evals")->value() - evals_before,
        expected_stats.distance_evals)
        << threads << " threads";
    for (size_t u = 0; u < data.profiles.size(); ++u) {
      const auto user = static_cast<int32_t>(u);
      if (data.profiles[u].empty()) {
        EXPECT_NE(index.SourceFor(user), CandidateSource::kAnnEmbedding);
        continue;
      }
      EXPECT_EQ(index.SourceFor(user), CandidateSource::kAnnEmbedding)
          << "user " << u;
      EXPECT_EQ(index.CandidatesFor(user), expected[u])
          << "user " << u << ", " << threads << " threads";
    }
  }
}

TEST(FrozenScorer, TopNIsSortedAndDeterministic) {
  FrozenScorer scorer(TinyData());
  const std::vector<int32_t> profile = {0, 1};
  const std::vector<int32_t> candidates = {2, 3, 0, 1};
  const auto scores = scorer.Score(profile, candidates);
  ASSERT_EQ(scores.size(), 4u);
  const auto top2 = scorer.TopN(profile, candidates, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_GE(top2[0].score, top2[1].score);
  const auto all = scorer.TopN(profile, candidates, 100);
  EXPECT_EQ(all.size(), 4u);  // n clamps to the candidate count
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[i - 1].score > all[i].score ||
                (all[i - 1].score == all[i].score &&
                 all[i - 1].paper < all[i].paper));
  }
  // Empty profile scores zero everywhere but stays well-formed.
  const auto cold = scorer.TopN({}, candidates, 3);
  ASSERT_EQ(cold.size(), 3u);
  EXPECT_EQ(cold[0].score, 0.0);
}

void ExpectBitEqualScores(const std::vector<double>& want,
                          const std::vector<double>& got,
                          const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << what << " at index " << i;
}

TEST(FrozenScorer, BatchMatchesOracleOnDegenerateShapes) {
  const FrozenScorer scorer(TinyData());
  const std::vector<int32_t> all = {0, 1, 2, 3};

  // Empty profile: zeros from both engines.
  ExpectBitEqualScores(scorer.Score({}, all), scorer.ScoreBatch({}, all),
                       "empty profile");
  // Empty candidates: empty from both.
  EXPECT_TRUE(scorer.ScoreBatch({0, 1}, {}).empty());
  // Single candidate / single-paper profile.
  ExpectBitEqualScores(scorer.Score({1}, {2}), scorer.ScoreBatch({1}, {2}),
                       "1x1");
  // Duplicate profile entries are legal (a user can weight a paper twice).
  ExpectBitEqualScores(scorer.Score({0, 0, 1}, all),
                       scorer.ScoreBatch({0, 0, 1}, all), "dup profile");
  // n = 0 keeps nothing.
  EXPECT_TRUE(scorer.TopN({0, 1}, all, 0).empty());

  // Zero-dimension model: every pair scores sigmoid(0) = 0.5 on both
  // paths (the batched engine must not early-out past the epilogue).
  SnapshotData flat = TinyData();
  flat.interest = la::Matrix(4, 0);
  flat.influence = la::Matrix(4, 0);
  flat.text = la::Matrix();
  const FrozenScorer zero_dim(flat);
  const auto oracle = zero_dim.Score({0, 1, 2}, all);
  for (double s : oracle) EXPECT_EQ(s, 0.5);
  ExpectBitEqualScores(oracle, zero_dim.ScoreBatch({0, 1, 2}, all),
                       "dim-0 model");
}

TEST(FrozenScorer, StackedPassMatchesEachSoloRequest) {
  const FrozenScorer scorer(TinyData());
  const std::vector<int32_t> candidates = {0, 1, 2, 3};
  const std::vector<std::vector<int32_t>> profiles = {
      {0}, {1, 0}, {}, {3, 2, 1}};
  std::vector<std::vector<double>> scores(profiles.size());
  std::vector<FrozenScorer::StackedRequest> stacked;
  stacked.reserve(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i)
    stacked.push_back({&profiles[i], &scores[i]});
  ScoreBatchStats stats;
  scorer.ScoreStackedInto(stacked, candidates, &stats);
  for (size_t i = 0; i < profiles.size(); ++i) {
    ExpectBitEqualScores(scorer.Score(profiles[i], candidates), scores[i],
                         "stacked user " + std::to_string(i));
  }
  EXPECT_GE(stats.gather_ns, 0);
}

TEST(FrozenScorer, HeapSelectionKeepsThePartialSortContract) {
  // Many ties: the heap path must reproduce (score desc, id asc) exactly,
  // including the keep >= size and keep == size - 1 boundaries.
  SnapshotData d = TinyData();
  d.interest = la::Matrix(8, 1);
  d.influence = la::Matrix(8, 1);
  d.text = la::Matrix();
  d.years = {2015, 2015, 2015, 2015, 2015, 2015, 2015, 2015};
  d.disciplines.assign(8, 0);
  d.topics.assign(8, 0);
  d.profiles = {{0}};
  for (size_t p = 0; p < 8; ++p) {
    d.interest(p, 0) = 1.0;
    d.influence(p, 0) = static_cast<double>(p % 3);  // three tie groups
  }
  const FrozenScorer scorer(d);
  const std::vector<int32_t> candidates = {7, 6, 5, 4, 3, 2, 1, 0};
  const auto scores = scorer.Score({0}, candidates);
  for (int n : {1, 3, 5, 7, 8, 100}) {
    const auto top = scorer.TopN({0}, candidates, n);
    // Reference: full materialize + stable ranking contract.
    std::vector<ScoredPaper> ranked(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i)
      ranked[i] = {candidates[i], scores[i]};
    std::sort(ranked.begin(), ranked.end(),
              [](const ScoredPaper& a, const ScoredPaper& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.paper < b.paper;
              });
    ranked.resize(std::min(ranked.size(), static_cast<size_t>(n)));
    ASSERT_EQ(top.size(), ranked.size()) << "n=" << n;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].paper, ranked[i].paper) << "n=" << n << " pos " << i;
      EXPECT_EQ(top[i].score, ranked[i].score) << "n=" << n << " pos " << i;
    }
  }
}

/// 48 papers whose (discipline, topic) groups move almost every influence
/// row: keys cycle out of order, with topic -1, topic 2^22, a negative
/// discipline and a one-paper group (paper 29).
SnapshotData ShuffledGroupData() {
  constexpr size_t kPapers = 48;
  constexpr size_t kDim = 9;
  const std::vector<std::pair<int32_t, int32_t>> keys = {
      {2, 5}, {0, -1}, {1, int32_t{1} << 22}, {-4, 3}, {1, 0}, {0, 2}};
  SnapshotData d;
  d.split_year = 2014;
  Rng rng(2207);
  d.interest = la::Matrix::Random(kPapers, kDim, rng);
  d.influence = la::Matrix::Random(kPapers, kDim, rng);
  for (size_t p = 0; p < kPapers; ++p) {
    const auto& key = keys[(p * 5 + p / 7) % keys.size()];
    d.years.push_back(2015);
    d.disciplines.push_back(p == 29 ? -7 : key.first);
    d.topics.push_back(p == 29 ? 9 : key.second);
  }
  return d;
}

/// The score of each candidate computed straight from the snapshot rows:
/// sigmoid of la::Dot per pair, summed in profile order, then the mean.
std::vector<double> ScoresFromRows(const SnapshotData& d,
                                   const std::vector<int32_t>& profile,
                                   const std::vector<int32_t>& candidates) {
  std::vector<double> scores(candidates.size(), 0.0);
  if (profile.empty()) return scores;
  for (size_t c = 0; c < candidates.size(); ++c) {
    double total = 0.0;
    for (int32_t p : profile) {
      total += la::ScoreSigmoid(la::Dot(
          d.interest.row_data(static_cast<size_t>(p)),
          d.influence.row_data(static_cast<size_t>(candidates[c])),
          d.interest.cols()));
    }
    scores[c] = total / static_cast<double>(profile.size());
  }
  return scores;
}

/// Every scoring entry point of `scorer`, bit for bit against the rows of
/// `d`, the data it was built from.
void ExpectScoresFromSnapshotRows(const FrozenScorer& scorer,
                                  const SnapshotData& d) {
  const size_t n = d.influence.rows();
  for (size_t p = 0; p < n; p += 5) {
    for (size_t q = 0; q < n; ++q) {
      ASSERT_EQ(scorer.PairScore(static_cast<int32_t>(p),
                                 static_cast<int32_t>(q)),
                ScoresFromRows(d, {static_cast<int32_t>(p)},
                               {static_cast<int32_t>(q)})[0])
          << "pair " << p << ", " << q;
    }
  }
  std::vector<int32_t> ascending(n);
  for (size_t i = 0; i < n; ++i) ascending[i] = static_cast<int32_t>(i);
  std::vector<int32_t> scrambled;
  for (size_t i = 0; i < 2 * n; ++i)
    scrambled.push_back(static_cast<int32_t>((i * 29 + 3) % n));
  // Nine rows and more exceed one 8-row profile block.
  const std::vector<std::vector<int32_t>> profiles = {
      {29}, {47, 0}, {5, 5, 12}, {}, {1, 3, 8, 13, 21, 34, 40, 44, 46, 2}};
  for (const auto* candidates : {&ascending, &scrambled}) {
    std::vector<std::vector<double>> stacked_scores(profiles.size());
    std::vector<FrozenScorer::StackedRequest> stacked;
    for (size_t u = 0; u < profiles.size(); ++u) {
      const std::vector<double> want =
          ScoresFromRows(d, profiles[u], *candidates);
      const std::string what = "profile " + std::to_string(u);
      ExpectBitEqualScores(want, scorer.Score(profiles[u], *candidates),
                           what + " Score");
      ExpectBitEqualScores(want, scorer.ScoreBatch(profiles[u], *candidates),
                           what + " ScoreBatch");
      stacked.push_back({&profiles[u], &stacked_scores[u]});
    }
    scorer.ScoreStackedInto(stacked, *candidates, nullptr);
    for (size_t u = 0; u < profiles.size(); ++u) {
      ExpectBitEqualScores(ScoresFromRows(d, profiles[u], *candidates),
                           stacked_scores[u],
                           "stacked profile " + std::to_string(u));
    }
  }
  for (size_t u = 0; u < profiles.size(); ++u) {
    const std::vector<double> want = ScoresFromRows(d, profiles[u], ascending);
    std::vector<ScoredPaper> ranked;
    for (size_t i = 0; i < n; ++i) ranked.push_back({ascending[i], want[i]});
    std::sort(ranked.begin(), ranked.end(),
              [](const ScoredPaper& a, const ScoredPaper& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.paper < b.paper;
              });
    ranked.resize(10);
    for (const ScorerMode mode : {ScorerMode::kGemm, ScorerMode::kPairwise}) {
      const auto top = scorer.TopN(profiles[u], ascending, 10, nullptr, mode);
      ASSERT_EQ(top.size(), ranked.size());
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].paper, ranked[i].paper) << "profile " << u;
        EXPECT_EQ(top[i].score, ranked[i].score) << "profile " << u;
      }
    }
  }
}

TEST(FrozenScorer, LaidOutRowsScoreLikeTheSnapshotRows) {
  // Every read of a laid-out influence row goes through the paper -> row
  // map. The reference reads the snapshot's own rows, so it cannot share
  // a wrong map with the scorer, as the batch-vs-oracle tests do.
  const SnapshotData data = ShuffledGroupData();
  // Under the layout's rule (groups in order of first appearance,
  // ascending ids within a group) the data moves all but two rows.
  std::map<std::pair<int32_t, int32_t>, size_t> group_of_key;
  std::vector<std::pair<size_t, size_t>> order;  // (group, paper)
  for (size_t p = 0; p < data.years.size(); ++p) {
    const auto key = std::make_pair(data.disciplines[p], data.topics[p]);
    order.emplace_back(
        group_of_key.try_emplace(key, group_of_key.size()).first->second, p);
  }
  std::sort(order.begin(), order.end());
  size_t kept = 0;
  for (size_t row = 0; row < order.size(); ++row)
    kept += order[row].second == row ? 1 : 0;
  ASSERT_LE(kept, 2u) << "the data must move almost every row";

  {
    SCOPED_TRACE("grouped");
    ExpectScoresFromSnapshotRows(FrozenScorer(data), data);
    SnapshotData moved = data;
    std::optional<FrozenScorer> from_moved;
    const int64_t bytes = alloc_probe::CountAllocatedBytes(
        [&] { from_moved.emplace(std::move(moved)); });
    // The layout permutes the slab in place: far less than a second slab.
    EXPECT_LT(bytes, static_cast<int64_t>(data.influence.rows() *
                                          data.influence.cols() *
                                          sizeof(double)));
    ExpectScoresFromSnapshotRows(*from_moved, data);
  }
  {
    SCOPED_TRACE("no attribute arrays");
    SnapshotData bare = data;
    bare.years.clear();
    bare.disciplines.clear();
    bare.topics.clear();
    ExpectScoresFromSnapshotRows(FrozenScorer(bare), bare);
    ExpectScoresFromSnapshotRows(FrozenScorer(SnapshotData(bare)), bare);
  }
}

// --- End-to-end: every dataset preset round-trips bit-exactly -------------

struct PresetCase {
  const char* name;
  datagen::CorpusGeneratorOptions options;
};

std::vector<PresetCase> AllPresets() {
  using datagen::DatasetScale;
  return {
      {"acm", datagen::AcmLikeOptions(DatasetScale::kTiny, 51)},
      {"scopus", datagen::ScopusLikeOptions(DatasetScale::kTiny, 52)},
      {"pubmed", datagen::PubmedRctLikeOptions(DatasetScale::kTiny, 53)},
      {"patent", datagen::PatentLikeOptions(DatasetScale::kTiny, 54)},
  };
}

TEST(SnapshotEndToEnd, FrozenScoresMatchLiveNPRecOnEveryPreset) {
  for (const PresetCase& preset : AllPresets()) {
    SCOPED_TRACE(preset.name);
    auto world = BuildWorld(preset.options);

    SnapshotData data = FreezeNPRec(world->ctx, *world->model, preset.name);
    SnapshotWriter writer(data);
    auto parsed = SnapshotReader::Parse(writer.bytes());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    FrozenScorer scorer(parsed.value());
    CandidateIndexOptions index_options;
    index_options.min_year = kSplitYear;
    CandidateIndex index(parsed.value(), index_options);
    ASSERT_GT(index.num_new_papers(), 0u);

    // Every user with a profile must score candidates identically to the
    // live model — bit-exact, since the snapshot stores raw double bits
    // and the frozen forward pass repeats the same operations.
    int compared_users = 0;
    const auto& corpus = world->dataset.corpus;
    for (const corpus::Author& author : corpus.authors) {
      if (compared_users >= 8) break;
      const std::vector<corpus::PaperId> profile =
          rec::UserProfile(world->ctx, author.id);
      if (profile.empty()) continue;
      const std::vector<int32_t>& candidates = index.CandidatesFor(author.id);
      if (candidates.empty()) continue;

      rec::UserQuery query{author.id, profile};
      const std::vector<corpus::PaperId> live_candidates(candidates.begin(),
                                                         candidates.end());
      const std::vector<double> live =
          world->model->Score(world->ctx, query, live_candidates);
      const std::vector<int32_t> frozen_profile(profile.begin(),
                                                profile.end());
      const std::vector<double> frozen =
          scorer.Score(frozen_profile, candidates);
      ASSERT_EQ(live.size(), frozen.size());
      for (size_t i = 0; i < live.size(); ++i)
        EXPECT_EQ(live[i], frozen[i]) << "candidate " << candidates[i];

      // Top-N order agrees with ranking the live scores.
      const auto top = scorer.TopN(frozen_profile, candidates, 10);
      for (size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].score, top[i].score);
      ++compared_users;
    }
    EXPECT_GT(compared_users, 0) << "preset produced no scoreable users";
  }
}

TEST(SnapshotEndToEnd, BatchEngineMatchesOracleOnEveryPresetAndThreadCount) {
  // The acceptance gate of the batched scorer: on every dataset preset and
  // for SUBREC_NUM_THREADS in {1, 2, 4}, ScoreBatch and the stacked
  // multi-user pass are bit-exact against the per-pair oracle (itself
  // bit-exact against live NPRec per the test above). The thread sweep
  // guards the whole frozen pipeline — freeze, ANN build, candidate index
  // — against picking up a thread-count-dependent operation order.
  for (const PresetCase& preset : AllPresets()) {
    SCOPED_TRACE(preset.name);
    auto world = BuildWorld(preset.options);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      par::ScopedNumThreads scoped(threads);
      SnapshotData data = FreezeNPRec(world->ctx, *world->model, preset.name);
      auto parsed = SnapshotReader::Parse(SnapshotWriter(data).bytes());
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const FrozenScorer scorer(parsed.value());
      CandidateIndexOptions index_options;
      index_options.min_year = kSplitYear;
      const CandidateIndex index(parsed.value(), index_options);

      // Solo batch vs oracle, per user.
      int compared = 0;
      std::vector<FrozenScorer::StackedRequest> stacked;
      std::vector<std::vector<double>> stacked_scores;
      std::vector<const std::vector<int32_t>*> stacked_profiles;
      const std::vector<int32_t>& pool = index.AllNewPapers();
      const auto& profiles = parsed.value().profiles;
      for (size_t u = 0; u < profiles.size() && compared < 6; ++u) {
        if (profiles[u].empty()) continue;
        const auto& candidates = index.CandidatesFor(static_cast<int32_t>(u));
        if (candidates.empty()) continue;
        ExpectBitEqualScores(scorer.Score(profiles[u], candidates),
                             scorer.ScoreBatch(profiles[u], candidates),
                             "user " + std::to_string(u));
        stacked_profiles.push_back(&profiles[u]);
        ++compared;
      }
      ASSERT_GT(compared, 0);

      // Stacked pass over the shared pool vs each user's oracle.
      stacked_scores.resize(stacked_profiles.size());
      for (size_t i = 0; i < stacked_profiles.size(); ++i)
        stacked.push_back({stacked_profiles[i], &stacked_scores[i]});
      scorer.ScoreStackedInto(stacked, pool, nullptr);
      for (size_t i = 0; i < stacked_profiles.size(); ++i) {
        ExpectBitEqualScores(scorer.Score(*stacked_profiles[i], pool),
                             stacked_scores[i],
                             "stacked slot " + std::to_string(i));
      }
    }
  }
}

TEST(SnapshotEndToEnd, FreezeBuildsServableAnnIndex) {
  auto world =
      BuildWorld(datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 99));
  SnapshotData data = FreezeNPRec(world->ctx, *world->model, "scopus");
  ASSERT_FALSE(data.ann_index.empty()) << "freeze should build ANN by default";

  // Round-trip through the wire format, then load in embedding-retrieval
  // mode: at least one user must actually be served off the graph.
  auto parsed = SnapshotReader::Parse(SnapshotWriter(data).bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  CandidateIndexOptions index_options;
  index_options.retrieval = RetrievalMode::kAnnEmbedding;
  const auto loaded =
      ServingState::FromSnapshot(std::move(parsed).value(), index_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ServingState& state = *loaded.value();
  ASSERT_NE(state.ann_index, nullptr);

  int ann_users = 0;
  for (size_t u = 0; u < state.profiles.size(); ++u) {
    const auto source = state.index.SourceFor(static_cast<int32_t>(u));
    if (source == CandidateSource::kAnnEmbedding) {
      ++ann_users;
      // ANN candidate lists obey the same contract as filtered ones:
      // ascending ids, all within the serving year window.
      const auto& c = state.index.CandidatesFor(static_cast<int32_t>(u));
      EXPECT_FALSE(c.empty());
      for (size_t i = 1; i < c.size(); ++i) EXPECT_LT(c[i - 1], c[i]);
    }
  }
  EXPECT_GT(ann_users, 0) << "no user was served from the ANN index";
}

TEST(SnapshotEndToEnd, AnnModeServesAndCountsRequests) {
  auto world =
      BuildWorld(datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 99));
  const std::string path =
      ::testing::TempDir() + "/subrec_ann_serve_test.snap";
  SnapshotWriter writer(FreezeNPRec(world->ctx, *world->model, "scopus"));
  ASSERT_TRUE(writer.WriteFile(path).ok());

  ServeOptions options;
  options.index.retrieval = RetrievalMode::kAnnEmbedding;
  options.cache_capacity = 0;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(path).ok());

  // Serve every profiled user once; the per-source counter family must
  // account for each scored request, with the ANN branch represented.
  const auto counters_before =
      obs::MetricsRegistry::Global().Snapshot().counters;
  auto count_of = [](const std::map<std::string, int64_t>& counters,
                     const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? int64_t{0} : it->second;
  };
  int served = 0;
  const std::shared_ptr<const ServingState> state = service.state();
  for (size_t u = 0; u < state->profiles.size(); ++u) {
    const RecResponse response = service.TopN(static_cast<int32_t>(u), 5);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    for (size_t i = 1; i < response.items.size(); ++i)
      EXPECT_GE(response.items[i - 1].score, response.items[i].score);
    ++served;
  }
  const auto counters_after =
      obs::MetricsRegistry::Global().Snapshot().counters;
  int64_t family_delta = 0;
  for (const auto& [name, value] : counters_after) {
    if (name.rfind("serve.candidates.source.", 0) == 0)
      family_delta += value - count_of(counters_before, name);
  }
  EXPECT_EQ(family_delta, served);
  EXPECT_GT(count_of(counters_after, "serve.candidates.source.ann_embedding"),
            count_of(counters_before, "serve.candidates.source.ann_embedding"));
}

// --- RecommendService -----------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = BuildWorld(
        datagen::ScopusLikeOptions(datagen::DatasetScale::kTiny, 99)).release();
    // One file per process: ctest runs every ServiceTest case as its own
    // process, and concurrent cases must not rewrite each other's file.
    snapshot_path_ = new std::string(::testing::TempDir() +
                                     "/subrec_service_test." +
                                     std::to_string(getpid()) + ".snap");
    SnapshotWriter writer(FreezeNPRec(world_->ctx, *world_->model, "scopus"));
    SUBREC_CHECK(writer.WriteFile(*snapshot_path_).ok());
  }

  /// A user with a non-empty serving profile.
  static int32_t AUser() {
    for (const corpus::Author& a : world_->dataset.corpus.authors) {
      if (!rec::UserProfile(world_->ctx, a.id).empty()) return a.id;
    }
    SUBREC_CHECK(false) << "no user with a profile";
    return -1;
  }

  static TestWorld* world_;
  static std::string* snapshot_path_;
};

TestWorld* ServiceTest::world_ = nullptr;
std::string* ServiceTest::snapshot_path_ = nullptr;

TEST_F(ServiceTest, RequiresASnapshotBeforeServing) {
  RecommendService service(ServeOptions{});
  const RecResponse response = service.TopN(0, 5);
  ASSERT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, ServesSortedTopNWithCaching) {
  ServeOptions options;
  options.num_threads = 2;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  ASSERT_NE(service.state(), nullptr);
  EXPECT_EQ(service.state()->dataset, "scopus");

  const int32_t user = AUser();
  const RecResponse first = service.TopN(user, 5);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  ASSERT_LE(first.items.size(), 5u);
  ASSERT_FALSE(first.items.empty());
  for (size_t i = 1; i < first.items.size(); ++i)
    EXPECT_GE(first.items[i - 1].score, first.items[i].score);
  EXPECT_GE(first.done_ns, first.enqueue_ns);

  const RecResponse second = service.TopN(user, 5);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.items.size(), first.items.size());
  for (size_t i = 0; i < first.items.size(); ++i) {
    EXPECT_EQ(second.items[i].paper, first.items[i].paper);
    EXPECT_EQ(second.items[i].score, first.items[i].score);
  }
  // A different n is a different cache entry.
  EXPECT_FALSE(service.TopN(user, 3).cache_hit);
}

TEST_F(ServiceTest, RejectsUnknownUsers) {
  RecommendService service(ServeOptions{});
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  EXPECT_EQ(service.TopN(-5, 5).status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.TopN(1 << 29, 5).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, PairwiseAndGemmModesServeIdenticalResults) {
  // The service scores with the GEMM engine, solo or coalesced; the
  // per-pair scorer is the reference ranking. With the cache off, every
  // user's served list must equal the per-pair ranking over the same
  // candidates — papers AND score bits.
  ServeOptions options;
  options.cache_capacity = 0;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  const std::shared_ptr<const ServingState> state = service.state();
  const size_t users = state->profiles.size();
  std::vector<RecRequest> requests;
  for (size_t u = 0; u < users; ++u)
    requests.push_back({static_cast<int32_t>(u), 7});
  const std::vector<RecResponse> batched = service.TopNBatch(requests);
  ASSERT_EQ(batched.size(), users);
  for (size_t u = 0; u < users; ++u) {
    const auto user = static_cast<int32_t>(u);
    const std::vector<ScoredPaper> want =
        state->scorer.TopN(state->profiles[u], state->index.CandidatesFor(user),
                           7, nullptr, ScorerMode::kPairwise);
    for (const RecResponse& r : {service.TopN(user, 7), batched[u]}) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      ASSERT_EQ(r.items.size(), want.size()) << "user " << u;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r.items[i].paper, want[i].paper)
            << "user " << u << " slot " << i;
        EXPECT_EQ(r.items[i].score, want[i].score)
            << "user " << u << " slot " << i;
      }
    }
  }
}

TEST_F(ServiceTest, BatchCoalescesRequestsSharingACandidateList) {
  ServeOptions options;
  options.cache_capacity = 0;  // every request must actually score
  options.batch_size = 8;
  options.num_threads = 1;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  const int32_t user = AUser();

  // Baselines from the solo path.
  const RecResponse solo3 = service.TopN(user, 3);
  const RecResponse solo5 = service.TopN(user, 5);
  ASSERT_TRUE(solo3.status.ok());
  ASSERT_TRUE(solo5.status.ok());

  auto counter_value = [](const std::string& name) {
    const auto snap = obs::MetricsRegistry::Global().Snapshot().counters;
    const auto it = snap.find(name);
    return it == snap.end() ? int64_t{0} : it->second;
  };
  const int64_t passes_before = counter_value("serve.score.stacked_passes");
  const int64_t stacked_before =
      counter_value("serve.score.requests.stacked");

  // Same user twice in one chunk: both draw the same candidate-list
  // reference, so the chunk pre-pass stacks them into one GEMM; the
  // third request (invalid user) must be rejected untouched.
  const std::vector<RecResponse> batch =
      service.TopNBatch({{user, 3}, {user, 5}, {-7, 4}});
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(batch[0].status.ok());
  ASSERT_TRUE(batch[1].status.ok());
  EXPECT_EQ(batch[2].status.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(counter_value("serve.score.stacked_passes"), passes_before + 1);
  EXPECT_EQ(counter_value("serve.score.requests.stacked"),
            stacked_before + 2);

  // Coalesced results are bit-identical to the solo path.
  const std::vector<const RecResponse*> want = {&solo3, &solo5};
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(batch[r].items.size(), want[r]->items.size()) << "req " << r;
    for (size_t i = 0; i < batch[r].items.size(); ++i) {
      EXPECT_EQ(batch[r].items[i].paper, want[r]->items[i].paper);
      EXPECT_EQ(batch[r].items[i].score, want[r]->items[i].score);
    }
  }

  // Two distinct users whose profiles span one topic and discipline set
  // hold one shared list, so their requests stack into one pass too.
  const std::shared_ptr<const ServingState> state = service.state();
  std::map<const std::vector<int32_t>*, int32_t> first_user_of_list;
  int32_t user_a = -1, user_b = -1;
  for (size_t u = 0; u < state->profiles.size() && user_b < 0; ++u) {
    const auto id = static_cast<int32_t>(u);
    const CandidateSource source = state->index.SourceFor(id);
    if (source != CandidateSource::kTopicPruned &&
        source != CandidateSource::kDisciplineFiltered)
      continue;
    const auto [it, inserted] =
        first_user_of_list.try_emplace(&state->index.CandidatesFor(id), id);
    if (!inserted) {
      user_a = it->second;
      user_b = id;
    }
  }
  ASSERT_GE(user_b, 0) << "no two users share a filtered list";
  ASSERT_NE(state->profiles[static_cast<size_t>(user_a)],
            state->profiles[static_cast<size_t>(user_b)]);
  const RecResponse solo_a = service.TopN(user_a, 4);
  const RecResponse solo_b = service.TopN(user_b, 6);
  ASSERT_TRUE(solo_a.status.ok());
  ASSERT_TRUE(solo_b.status.ok());
  const int64_t passes_mid = counter_value("serve.score.stacked_passes");
  const int64_t stacked_mid = counter_value("serve.score.requests.stacked");
  const std::vector<RecResponse> pair =
      service.TopNBatch({{user_a, 4}, {user_b, 6}});
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(counter_value("serve.score.stacked_passes"), passes_mid + 1);
  EXPECT_EQ(counter_value("serve.score.requests.stacked"), stacked_mid + 2);
  const std::vector<const RecResponse*> want_pair = {&solo_a, &solo_b};
  for (size_t r = 0; r < want_pair.size(); ++r) {
    ASSERT_TRUE(pair[r].status.ok()) << "req " << r;
    ASSERT_EQ(pair[r].items.size(), want_pair[r]->items.size()) << "req " << r;
    for (size_t i = 0; i < pair[r].items.size(); ++i) {
      EXPECT_EQ(pair[r].items[i].paper, want_pair[r]->items[i].paper);
      EXPECT_EQ(pair[r].items[i].score, want_pair[r]->items[i].score);
    }
  }
}

TEST_F(ServiceTest, RejectsOversizedNInEveryBuildMode) {
  RecommendService service(ServeOptions{});
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  const int32_t user = AUser();
  // n gets 16 bits in the cache key: 70000 and 70000 & 0xFFFF (= 4464)
  // would alias, so anything >= 2^16 must be an error, never a masked key.
  EXPECT_EQ(service.TopN(user, 70000).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.TopN(user, 1 << 16).status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.TopN(user, (1 << 16) - 1).status.ok());
}

TEST_F(ServiceTest, DestructionWithQueuedBatchesIsSafe) {
  // Tear the service down while SubmitBatch work is still queued and the
  // returned futures have been dropped: the pool must drain before the
  // cache and state die (ASan/TSan presets make this a hard gate).
  const int32_t user = AUser();
  {
    ServeOptions options;
    options.num_threads = 2;
    options.batch_size = 2;
    RecommendService service(options);
    ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
    for (int round = 0; round < 50; ++round) {
      std::vector<RecRequest> requests;
      for (int i = 0; i < 8; ++i) requests.push_back({user, 1 + (i % 7)});
      service.SubmitBatch(std::move(requests));  // future dropped on purpose
    }
  }
}

TEST_F(ServiceTest, CacheCanBeDisabled) {
  ServeOptions options;
  options.cache_capacity = 0;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  const int32_t user = AUser();
  EXPECT_FALSE(service.TopN(user, 5).cache_hit);
  EXPECT_FALSE(service.TopN(user, 5).cache_hit);
  EXPECT_EQ(service.cache_hits(), 0);
}

TEST_F(ServiceTest, CacheOfFourTimesTheUsersServesTheSecondPassAsHits) {
  const Result<SnapshotData> data = SnapshotReader::ReadFile(*snapshot_path_);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const size_t users = data.value().profiles.size();
  ASSERT_GT(users, 0u);
  // statusz and Prometheus read the spread from the registry gauge, which
  // sums every live cache.
  const obs::Gauge& shards_used =
      *obs::MetricsRegistry::Global().GetGauge("serve.cache.shards_used");
  const double shards_used_before = shards_used.value();
  ServeOptions options;
  options.cache_capacity = 4 * users;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  for (size_t u = 0; u < users; ++u) {
    const RecResponse r = service.TopN(static_cast<int32_t>(u), 10);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.cache_hit) << "user " << u;
  }
  for (size_t u = 0; u < users; ++u)
    EXPECT_TRUE(service.TopN(static_cast<int32_t>(u), 10).cache_hit)
        << "user " << u;
  EXPECT_EQ(service.cache_hits(), static_cast<int64_t>(users));

  // A reload empties every shard of this service's cache.
  EXPECT_GE(shards_used.value() - shards_used_before, 8.0);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  EXPECT_EQ(shards_used.value(), shards_used_before);
}

TEST_F(ServiceTest, SwapInvalidatesCacheAndBumpsGeneration) {
  RecommendService service(ServeOptions{});
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  const uint64_t generation = service.generation();
  const int32_t user = AUser();
  const RecResponse before = service.TopN(user, 5);
  ASSERT_TRUE(service.TopN(user, 5).cache_hit);

  // Hot reload the same snapshot: new generation, cold cache, same answers.
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
  EXPECT_EQ(service.generation(), generation + 1);
  const RecResponse after = service.TopN(user, 5);
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  ASSERT_EQ(after.items.size(), before.items.size());
  for (size_t i = 0; i < after.items.size(); ++i)
    EXPECT_EQ(after.items[i].score, before.items[i].score);
}

TEST_F(ServiceTest, SwapDropsTheOldGenerationOutsideTheStateLock) {
  // Freeing a generation's slabs takes milliseconds at serving scale, and
  // every request reads state() under the same lock, so Swap must let the
  // old generation go only after unlocking. Here the outgoing state's
  // last reference is a probe whose deleter asks state() from another
  // thread while the old generation is being dropped.
  RecommendService service(ServeOptions{});
  Result<std::shared_ptr<const ServingState>> loaded =
      ServingState::FromSnapshot(TinyData(), {});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::shared_ptr<const ServingState> state = std::move(loaded).value();
  std::future<std::shared_ptr<const ServingState>> reader;
  bool answered = false;
  {
    const std::shared_ptr<void> probe(nullptr, [&](void*) {
      reader = std::async(std::launch::async, [&] { return service.state(); });
      answered = reader.wait_for(std::chrono::seconds(10)) ==
                 std::future_status::ready;
    });
    service.Swap(std::shared_ptr<const ServingState>(probe, state.get()));
  }
  EXPECT_FALSE(reader.valid());  // the probe generation is still serving
  service.Swap(state);
  ASSERT_TRUE(reader.valid());
  EXPECT_TRUE(answered) << "state() waited while Swap dropped a generation";
  EXPECT_EQ(reader.get(), state);
}

TEST_F(ServiceTest, BatchMatchesIndividualRequests) {
  ServeOptions options;
  options.num_threads = 4;
  options.batch_size = 3;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());

  std::vector<RecRequest> requests;
  const size_t num_users = service.state()->profiles.size();
  for (size_t u = 0; u < num_users && requests.size() < 20; ++u)
    requests.push_back({static_cast<int32_t>(u), 4});
  const std::vector<RecResponse> batch = service.TopNBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const RecResponse individual =
        service.TopN(requests[i].user, requests[i].n);
    ASSERT_EQ(batch[i].status.ok(), individual.status.ok());
    if (!individual.status.ok()) continue;
    ASSERT_EQ(batch[i].items.size(), individual.items.size());
    for (size_t j = 0; j < individual.items.size(); ++j) {
      EXPECT_EQ(batch[i].items[j].paper, individual.items[j].paper);
      EXPECT_EQ(batch[i].items[j].score, individual.items[j].score);
    }
  }
}

/// A corrupt snapshot arriving while batches are in flight must leave the
/// old generation serving: both loads fail, nothing swaps, the cache keeps
/// its entries, and every answer is the one served before the attempt.
TEST_F(ServiceTest, CorruptReloadUnderLoadKeepsTheOldGeneration) {
  ServeOptions options;
  options.num_threads = 4;
  options.batch_size = 4;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());

  // One payload byte flipped (the checksum no longer matches), and the
  // file cut short; per-process paths, like the fixture's file.
  const Result<std::string> good = ReadFileToString(*snapshot_path_);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  const std::string stem = ::testing::TempDir() + "/subrec_corrupt_reload." +
                           std::to_string(getpid());
  std::string flipped = good.value();
  char& byte = flipped[flipped.size() / 2];
  byte = static_cast<char>(byte ^ 0x5A);
  ASSERT_TRUE(WriteStringToFile(stem + ".flipped.snap", flipped).ok());
  ASSERT_TRUE(WriteStringToFile(stem + ".truncated.snap",
                                good.value().substr(0, good.value().size() / 2))
                  .ok());

  const size_t num_users =
      std::min<size_t>(service.state()->profiles.size(), 32);
  std::vector<RecRequest> reference;
  for (size_t u = 0; u < num_users; ++u)
    reference.push_back({static_cast<int32_t>(u), 4});
  const std::vector<RecResponse> before = service.TopNBatch(reference);
  for (const RecResponse& r : before) ASSERT_TRUE(r.status.ok());
  obs::Counter* const swaps =
      obs::MetricsRegistry::Global().GetCounter("serve.swaps");
  const uint64_t generation = service.generation();
  const int64_t swaps_before = swaps->value();

  // n = 1..3: every list misses the cache once and is scored under load;
  // the n = 4 entries stay as the reference pass left them.
  std::vector<std::vector<RecRequest>> rounds;
  std::vector<std::future<std::vector<RecResponse>>> inflight;
  for (int round = 0; round < 10; ++round) {
    std::vector<RecRequest> requests;
    for (size_t u = 0; u < num_users; ++u)
      requests.push_back({static_cast<int32_t>(u),
                          1 + static_cast<int>((u + round) % 3)});
    rounds.push_back(requests);
    inflight.push_back(service.SubmitBatch(std::move(requests)));
    if (round == 3) {
      EXPECT_FALSE(service.LoadSnapshotFile(stem + ".flipped.snap").ok());
    }
    if (round == 6) {
      EXPECT_FALSE(service.LoadSnapshotFile(stem + ".truncated.snap").ok());
    }
  }
  for (size_t round = 0; round < rounds.size(); ++round) {
    const std::vector<RecResponse> got = inflight[round].get();
    ASSERT_EQ(got.size(), rounds[round].size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
      // Top-n of a strict total order is the prefix of the top-4 list.
      const std::vector<ScoredPaper>& want =
          before[static_cast<size_t>(rounds[round][i].user)].items;
      const size_t n = std::min<size_t>(
          static_cast<size_t>(rounds[round][i].n), want.size());
      ASSERT_EQ(got[i].items.size(), n) << "round " << round << " slot " << i;
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(got[i].items[j].paper, want[j].paper);
        EXPECT_EQ(got[i].items[j].score, want[j].score);
      }
    }
  }
  EXPECT_EQ(service.generation(), generation);
  EXPECT_EQ(swaps->value(), swaps_before);

  // The cache survived both attempts: the reference lists, cached before
  // them and never requested since, are still hits.
  const std::vector<RecResponse> again = service.TopNBatch(reference);
  for (size_t i = 0; i < again.size(); ++i) {
    ASSERT_TRUE(again[i].status.ok());
    EXPECT_TRUE(again[i].cache_hit) << "user " << reference[i].user;
    ASSERT_EQ(again[i].items.size(), before[i].items.size());
    for (size_t j = 0; j < before[i].items.size(); ++j)
      EXPECT_EQ(again[i].items[j].paper, before[i].items[j].paper);
  }
}

/// Concurrent batches + a mid-flight hot reload; under the tsan preset this
/// is the end-to-end serving race detector.
TEST_F(ServiceTest, ConcurrentBatchesSurviveHotReload) {
  ServeOptions options;
  options.num_threads = 4;
  options.batch_size = 4;
  RecommendService service(options);
  ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());

  const int32_t user = AUser();
  std::vector<std::future<std::vector<RecResponse>>> inflight;
  for (int round = 0; round < 10; ++round) {
    std::vector<RecRequest> requests;
    for (int i = 0; i < 12; ++i)
      requests.push_back({user, 1 + (i % 5)});
    inflight.push_back(service.SubmitBatch(std::move(requests)));
    if (round == 5) {
      ASSERT_TRUE(service.LoadSnapshotFile(*snapshot_path_).ok());
    }
  }
  size_t completed = 0;
  for (auto& f : inflight) {
    for (const RecResponse& r : f.get()) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_FALSE(r.items.empty());
      ++completed;
    }
  }
  EXPECT_EQ(completed, 120u);
}

}  // namespace
}  // namespace subrec::serve
