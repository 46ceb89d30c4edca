// Seeded mutation fuzzer for the decoders of untrusted bytes: the serving
// snapshot (SnapshotReader::Parse) and the ANN section it carries
// (ann::HnswIndex::Deserialize). Each iteration starts from a valid blob,
// applies bit flips, truncations and length-field inflation, re-seals the
// snapshot's payload checksum so the mutated bytes reach the section
// decoders, and then requires that every call returns a Status, never
// crashes, and never asks the allocator for more than a small multiple of
// its input (counted by the test binary's operator new probe). Each
// snapshot mutant is also written to a file: SnapshotReader::ReadFile
// streams it through the same decoder and must agree with Parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_probe.h"
#include "ann/hnsw_index.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/wire.h"
#include "serve/snapshot.h"

namespace subrec {
namespace {

using alloc_probe::CountAllocatedBytes;

constexpr int kIterationsPerTarget = 2000;
// Every decoder materializes each input byte at most a few times over
// (slabs 1:1, nested profile vectors 3:1 per length prefix). The slack
// covers fixed per-call costs such as error strings and the index object.
constexpr int64_t kAllocMultiple = 4;
constexpr int64_t kAllocSlackBytes = 16 << 10;
constexpr size_t kSnapshotHeaderSize = 24;  // magic, version, count, size
// ReadFile's one read buffer, on top of what Parse may allocate.
constexpr int64_t kReadBufferSlackBytes = 64 << 10;

int64_t AllocCap(size_t input_size) {
  return kAllocMultiple * static_cast<int64_t>(input_size) + kAllocSlackBytes;
}

/// One length or count field of a valid blob: where it is and how wide.
struct Field {
  size_t offset = 0;
  int width = 0;  // 4 or 8 bytes, little-endian
};

uint64_t LoadField(const std::string& bytes, const Field& f) {
  uint64_t v = 0;
  for (int i = 0; i < f.width; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(
             bytes[f.offset + static_cast<size_t>(i)]))
         << (8 * i);
  return v;
}

void StoreField(std::string* bytes, const Field& f, uint64_t v) {
  for (int i = 0; i < f.width; ++i)
    (*bytes)[f.offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Appends the length and count fields of a valid HnswIndex::Serialize()
/// blob that starts at `base`: the header's dim, node count, M and
/// ef_construction, every node level (levels size the link arena), and
/// every link count.
void CollectAnnFields(std::string_view blob, size_t base,
                      std::vector<Field>* out) {
  wire::Cursor c(blob);
  uint64_t magic = 0, n = 0, seed = 0;
  uint32_t version = 0, dim = 0, m = 0, ef = 0;
  int32_t max_level = 0, entry = 0;
  ASSERT_TRUE(c.ReadU64(&magic).ok());
  ASSERT_TRUE(c.ReadU32(&version).ok());
  out->push_back({base + 12, 4});  // dim
  ASSERT_TRUE(c.ReadU32(&dim).ok());
  out->push_back({base + 16, 8});  // node count
  ASSERT_TRUE(c.ReadU64(&n).ok());
  out->push_back({base + 24, 4});  // M
  ASSERT_TRUE(c.ReadU32(&m).ok());
  out->push_back({base + 28, 4});  // ef_construction
  ASSERT_TRUE(c.ReadU32(&ef).ok());
  ASSERT_TRUE(c.ReadU64(&seed).ok());
  out->push_back({base + 40, 4});  // max level
  ASSERT_TRUE(c.ReadI32(&max_level).ok());
  ASSERT_TRUE(c.ReadI32(&entry).ok());
  std::vector<int32_t> levels(static_cast<size_t>(n));
  for (int32_t& level : levels) {
    out->push_back({base + blob.size() - c.remaining(), 4});
    ASSERT_TRUE(c.ReadI32(&level).ok());
  }
  std::string_view skip;
  ASSERT_TRUE(c.ReadView(n * 4 + n * dim * 8, &skip).ok());  // ids, vectors
  for (int32_t level : levels) {
    for (int32_t lev = 0; lev <= level; ++lev) {
      out->push_back({base + blob.size() - c.remaining(), 4});
      uint32_t count = 0;
      ASSERT_TRUE(c.ReadU32(&count).ok());
      ASSERT_TRUE(c.ReadView(uint64_t{count} * 4, &skip).ok());
    }
  }
  ASSERT_EQ(c.remaining(), 0u);
}

/// The length and count fields of a valid snapshot: header section count
/// and payload size, every section size, and the counts inside each known
/// section body (matrix shapes, array lengths, profile lengths, string
/// lengths, and the embedded ANN blob's fields).
std::vector<Field> SnapshotFields(const std::string& bytes) {
  std::vector<Field> out = {{12, 4}, {16, 8}};
  wire::Cursor c(std::string_view(bytes).substr(kSnapshotHeaderSize));
  auto pos = [&] { return bytes.size() - c.remaining(); };
  uint32_t sections = 0;
  for (int i = 0; i < 4; ++i)
    sections |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[12 + i]))
                << (8 * i);
  for (uint32_t s = 0; s < sections; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0;
    EXPECT_TRUE(c.ReadU32(&tag).ok());
    out.push_back({pos(), 8});
    EXPECT_TRUE(c.ReadU64(&size).ok());
    const size_t body_at = pos();
    std::string_view body;
    EXPECT_TRUE(c.ReadView(size, &body).ok());
    wire::Cursor b(body);
    auto at = [&] { return body_at + body.size() - b.remaining(); };
    switch (tag) {
      case 1: {  // meta: two strings and the split year
        for (int str = 0; str < 2; ++str) {
          out.push_back({at(), 4});
          std::string text;
          EXPECT_TRUE(b.ReadString(&text).ok());
        }
        break;
      }
      case 2:
      case 3:
      case 4:  // matrices: rows, cols
        out.push_back({at(), 8});
        out.push_back({at() + 8, 8});
        break;
      case 5:
      case 6:
      case 7:  // int arrays: length
        out.push_back({at(), 8});
        break;
      case 8: {  // profiles: user count, then one length per profile
        out.push_back({at(), 8});
        uint64_t users = 0;
        EXPECT_TRUE(b.ReadU64(&users).ok());
        for (uint64_t u = 0; u < users; ++u) {
          out.push_back({at(), 8});
          uint64_t len = 0;
          EXPECT_TRUE(b.ReadU64(&len).ok());
          std::string_view pids;
          EXPECT_TRUE(b.ReadView(len * 4, &pids).ok());
        }
        break;
      }
      case 9:  // the ANN section
        CollectAnnFields(body, body_at, &out);
        break;
      default:
        break;
    }
  }
  return out;
}

/// A small but fully populated snapshot: three disciplines, six topics
/// (and untopiced papers), empty and non-empty profiles, a text slab, and
/// an ANN section over the post-split papers built with the freeze-time
/// defaults.
serve::SnapshotData FuzzSnapshotData() {
  constexpr size_t kPapers = 96;
  constexpr size_t kDim = 8;
  Rng rng(0xF022D47AULL);
  serve::SnapshotData d;
  d.model_name = "NPRec";
  d.dataset = "fuzz";
  d.split_year = 2014;
  d.interest.ResizeOverwrite(kPapers, kDim);
  d.influence.ResizeOverwrite(kPapers, kDim);
  d.text.ResizeOverwrite(kPapers, 4);
  for (size_t p = 0; p < kPapers; ++p) {
    for (size_t j = 0; j < kDim; ++j) {
      d.interest(p, j) = rng.Uniform(-1.0, 1.0);
      d.influence(p, j) = rng.Uniform(-1.0, 1.0);
    }
    for (size_t j = 0; j < 4; ++j) d.text(p, j) = rng.Uniform(-1.0, 1.0);
    d.years.push_back(2008 + static_cast<int32_t>(p % 12));
    d.disciplines.push_back(static_cast<int32_t>(p % 3));
    d.topics.push_back(p % 11 == 0 ? -1 : static_cast<int32_t>(p % 6));
  }
  for (size_t u = 0; u < 24; ++u) {
    std::vector<int32_t> profile;
    for (size_t k = 0; k < u % 4; ++k)
      profile.push_back(static_cast<int32_t>(rng.UniformInt(kPapers)));
    d.profiles.push_back(std::move(profile));
  }
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

/// Applies one to three random mutations to `bytes`: bit flips anywhere,
/// inflation of a known length field, or truncation.
void Mutate(Rng* rng, const std::vector<Field>& fields, std::string* bytes) {
  const int rounds = 1 + static_cast<int>(rng->UniformInt(3));
  for (int r = 0; r < rounds && !bytes->empty(); ++r) {
    switch (rng->UniformInt(3)) {
      case 0: {  // flip 1-8 random bits
        const int flips = 1 + static_cast<int>(rng->UniformInt(8));
        for (int i = 0; i < flips; ++i) {
          const size_t at = rng->UniformInt(bytes->size());
          (*bytes)[at] = static_cast<char>(
              static_cast<unsigned char>((*bytes)[at]) ^
              (1u << rng->UniformInt(8)));
        }
        break;
      }
      case 1: {  // inflate a length field
        const Field& f = fields[rng->UniformInt(fields.size())];
        if (f.offset + static_cast<size_t>(f.width) > bytes->size()) break;
        const uint64_t max =
            f.width == 8 ? ~uint64_t{0} : uint64_t{0xFFFFFFFFu};
        const uint64_t v = LoadField(*bytes, f);
        const uint64_t size = bytes->size();
        const uint64_t choices[] = {
            v + 1,     v + 16,    v * 2 + 1, v * 4,     v * 8,
            v * 16,    v + (uint64_t{1} << rng->UniformInt(8 * f.width)),
            max,       max >> 1,  max >> 3,  size,      size / 4 + 1,
            size / 8 + 1};
        StoreField(bytes, f, choices[rng->UniformInt(std::size(choices))] & max);
        break;
      }
      default:  // truncate
        bytes->resize(rng->UniformInt(bytes->size()));
        break;
    }
  }
}

/// Rewrites the snapshot footer so the checksum matches whatever payload
/// the header now claims. A payload size that runs past the buffer (an
/// inflated or truncated file) is left as is: the reader must reject it
/// before looking at the checksum.
void Reseal(std::string* bytes) {
  if (bytes->size() < kSnapshotHeaderSize) return;
  const uint64_t payload_size = LoadField(*bytes, {16, 8});
  if (payload_size > bytes->size() - kSnapshotHeaderSize) return;
  bytes->resize(kSnapshotHeaderSize + static_cast<size_t>(payload_size));
  const uint32_t crc = serve::Crc32(std::string_view(*bytes).substr(
      kSnapshotHeaderSize, static_cast<size_t>(payload_size)));
  for (int i = 0; i < 4; ++i)
    bytes->push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
}

/// ReadFile of a file holding `bytes` must agree with Parse of them: the
/// same ok-ness, status code and message, and equal data when both
/// decode.
void ExpectReadFileMatchesParse(const std::string& bytes,
                                const Result<serve::SnapshotData>& parsed,
                                const std::string& path,
                                const std::string& context) {
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok()) << path;
  Result<serve::SnapshotData> read = Status::Internal("not run");
  const int64_t allocated = CountAllocatedBytes(
      [&] { read = serve::SnapshotReader::ReadFile(path); });
  EXPECT_LE(allocated, AllocCap(bytes.size()) + kReadBufferSlackBytes)
      << context << ": ReadFile of " << bytes.size() << " bytes allocated "
      << allocated;
  ASSERT_EQ(read.ok(), parsed.ok())
      << context << ": ReadFile says " << read.status().ToString()
      << ", Parse says " << parsed.status().ToString();
  if (!parsed.ok()) {
    EXPECT_EQ(read.status().code(), parsed.status().code()) << context;
    EXPECT_EQ(read.status().message(), parsed.status().message()) << context;
    return;
  }
  const serve::SnapshotData& a = read.value();
  const serve::SnapshotData& b = parsed.value();
  EXPECT_EQ(a.model_name, b.model_name) << context;
  EXPECT_EQ(a.dataset, b.dataset) << context;
  EXPECT_EQ(a.split_year, b.split_year) << context;
  EXPECT_EQ(a.interest, b.interest) << context;
  EXPECT_EQ(a.influence, b.influence) << context;
  EXPECT_EQ(a.text, b.text) << context;
  EXPECT_EQ(a.years, b.years) << context;
  EXPECT_EQ(a.disciplines, b.disciplines) << context;
  EXPECT_EQ(a.topics, b.topics) << context;
  EXPECT_EQ(a.profiles, b.profiles) << context;
  EXPECT_EQ(a.ann_index, b.ann_index) << context;
}

TEST(DecoderFuzz, SnapshotMutantsReturnStatusWithinAllocationCap) {
  const std::string valid = serve::SnapshotWriter(FuzzSnapshotData()).bytes();
  const std::vector<Field> fields = SnapshotFields(valid);
  ASSERT_GT(fields.size(), 100u);  // the walker saw every ANN link count
  ASSERT_TRUE(serve::SnapshotReader::Parse(valid).ok());

  const std::string path =
      ::testing::TempDir() + "/subrec_fuzz_snapshot_mutant.snap";
  Rng rng(0x5EED5A9ULL);
  int parsed_ok = 0, ann_ok = 0, past_checksum = 0;
  for (int it = 0; it < kIterationsPerTarget; ++it) {
    std::string bytes = valid;
    Mutate(&rng, fields, &bytes);
    // One in eight keeps its stale checksum, covering the CRC gate itself.
    if (rng.UniformInt(8) != 0) Reseal(&bytes);

    Result<serve::SnapshotData> parsed = Status::Internal("not run");
    const int64_t allocated = CountAllocatedBytes(
        [&] { parsed = serve::SnapshotReader::Parse(bytes); });
    ASSERT_LE(allocated, AllocCap(bytes.size()))
        << "iteration " << it << ": snapshot decode of " << bytes.size()
        << " bytes allocated " << allocated;
    ExpectReadFileMatchesParse(bytes, parsed, path,
                               "iteration " + std::to_string(it));
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty()) << "iteration " << it;
      if (parsed.status().message().find("checksum") == std::string::npos)
        ++past_checksum;
      continue;
    }
    ++parsed_ok;
    const std::string& ann = parsed.value().ann_index;
    if (ann.empty()) continue;
    Result<std::unique_ptr<ann::HnswIndex>> index =
        Status::Internal("not run");
    const int64_t ann_allocated = CountAllocatedBytes(
        [&] { index = ann::HnswIndex::Deserialize(ann); });
    ASSERT_LE(ann_allocated, AllocCap(ann.size()))
        << "iteration " << it << ": ANN decode of " << ann.size()
        << " bytes allocated " << ann_allocated;
    if (index.ok()) {
      ++ann_ok;
    } else {
      EXPECT_FALSE(index.status().message().empty()) << "iteration " << it;
    }
  }
  // The mix must actually exercise the section decoders: some mutants
  // decode, and many fail past the checksum gate.
  EXPECT_GT(parsed_ok, kIterationsPerTarget / 20);
  EXPECT_GT(ann_ok, 0);
  EXPECT_GT(past_checksum, kIterationsPerTarget / 4);
}

TEST(DecoderFuzz, FilesCutAtSectionBoundariesReadLikeParse) {
  // A file cut at the start of every section frame and body, at the end
  // of the payload, and one byte short: each is "snapshot: truncated",
  // from ReadFile exactly as from Parse.
  const std::string valid = serve::SnapshotWriter(FuzzSnapshotData()).bytes();
  const std::string path =
      ::testing::TempDir() + "/subrec_fuzz_snapshot_cut.snap";
  std::vector<size_t> cuts = {0, 8, 12, kSnapshotHeaderSize,
                              valid.size() - 4, valid.size() - 1};
  wire::Cursor c(std::string_view(valid).substr(kSnapshotHeaderSize));
  while (c.remaining() > 4) {
    cuts.push_back(valid.size() - c.remaining());  // frame
    uint32_t tag = 0;
    uint64_t size = 0;
    ASSERT_TRUE(c.ReadU32(&tag).ok());
    ASSERT_TRUE(c.ReadU64(&size).ok());
    cuts.push_back(valid.size() - c.remaining());  // body
    std::string_view body;
    ASSERT_TRUE(c.ReadView(size, &body).ok());
  }
  ASSERT_EQ(cuts.size(), 6u + 2 * 9);  // every section, the ANN one too
  for (size_t cut : cuts) {
    const std::string bytes = valid.substr(0, cut);
    const Result<serve::SnapshotData> parsed =
        serve::SnapshotReader::Parse(bytes);
    ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
    EXPECT_EQ(parsed.status().message(), "snapshot: truncated")
        << "cut at " << cut;
    ExpectReadFileMatchesParse(bytes, parsed, path,
                               "cut at " + std::to_string(cut));
  }
  ExpectReadFileMatchesParse(valid, serve::SnapshotReader::Parse(valid), path,
                             "uncut");
}

TEST(DecoderFuzz, AnnBlobMutantsReturnStatusWithinAllocationCap) {
  const std::string valid = FuzzSnapshotData().ann_index;
  std::vector<Field> fields;
  CollectAnnFields(valid, 0, &fields);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_TRUE(ann::HnswIndex::Deserialize(valid).ok());

  Rng rng(0xA22F022ULL);
  int decoded_ok = 0;
  for (int it = 0; it < kIterationsPerTarget; ++it) {
    std::string bytes = valid;
    Mutate(&rng, fields, &bytes);
    Result<std::unique_ptr<ann::HnswIndex>> index =
        Status::Internal("not run");
    const int64_t allocated = CountAllocatedBytes(
        [&] { index = ann::HnswIndex::Deserialize(bytes); });
    ASSERT_LE(allocated, AllocCap(bytes.size()))
        << "iteration " << it << ": ANN decode of " << bytes.size()
        << " bytes allocated " << allocated;
    if (index.ok()) {
      ++decoded_ok;
    } else {
      EXPECT_FALSE(index.status().message().empty()) << "iteration " << it;
    }
  }
  EXPECT_GT(decoded_ok, 0);
  EXPECT_LT(decoded_ok, kIterationsPerTarget / 2);
}

}  // namespace
}  // namespace subrec
