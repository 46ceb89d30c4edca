#include "serve/snapshot.h"

#include <array>
#include <cstddef>
#include <initializer_list>
#include <utility>

#include "common/file_util.h"
#include "common/wire.h"

namespace subrec::serve {
namespace {

using wire::AppendI32;
using wire::AppendString;
using wire::AppendU32;
using wire::AppendU64;
using wire::Cursor;

// "SUBRSNP1" read as a little-endian u64.
constexpr uint64_t kMagic = 0x31504E5352425553ULL;
constexpr uint32_t kVersion = 1;
// Header: magic u64 + version u32 + section_count u32 + payload_size u64.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;
constexpr size_t kFooterSize = 4;  // payload crc32

enum SectionTag : uint32_t {
  kMetaTag = 1,
  kInterestTag = 2,
  kInfluenceTag = 3,
  kTextTag = 4,
  kYearsTag = 5,
  kDisciplinesTag = 6,
  kTopicsTag = 7,
  kProfilesTag = 8,
  kAnnIndexTag = 9,
};

void AppendI32Vector(std::string* out, const std::vector<int32_t>& v) {
  AppendU64(out, v.size());
  wire::AppendArray(out, v.data(), v.size());
}

/// Uniform-width double matrix: rows u64, cols u64, row-major values. The
/// in-memory slab is already row-major, so encoding is one bulk copy.
void EncodeMatrix(const la::Matrix& m, std::string* out) {
  AppendU64(out, m.rows());
  AppendU64(out, m.cols());
  wire::AppendArray(out, m.data(), m.size());
}

Status DecodeMatrix(std::string_view bytes, la::Matrix* out) {
  Cursor c(bytes);
  uint64_t rows = 0, cols = 0;
  SUBREC_RETURN_NOT_OK(c.ReadU64(&rows));
  SUBREC_RETURN_NOT_OK(c.ReadU64(&cols));
  // Bound the dimensions by the section size BEFORE any allocation or
  // arithmetic on them: cols first, so that 8*cols below cannot wrap (a
  // crafted cols of 2^61 would otherwise divide by zero) and so the slab
  // resize can never allocate more than the section actually carries —
  // even when rows == 0. A zero-width matrix has no payload bytes to
  // bound rows with, so rows gets an explicit cap there.
  if (cols > c.remaining() / 8)
    return Status::OutOfRange("snapshot matrix wider than its section");
  if (cols == 0) {
    constexpr uint64_t kMaxZeroWidthRows = uint64_t{1} << 24;
    if (rows > kMaxZeroWidthRows)
      return Status::OutOfRange(
          "snapshot zero-width matrix row count implausible");
  } else if (rows > c.remaining() / (8 * cols)) {
    return Status::OutOfRange("snapshot matrix larger than its section");
  }
  // Decode straight into the contiguous slab: one allocation for the whole
  // matrix, no transient per-row vectors (the load-time allocation
  // regression test counts on this).
  out->ResizeOverwrite(static_cast<size_t>(rows), static_cast<size_t>(cols));
  return c.ReadArray(out->data(), out->size());
}

Status DecodeI32Vector(std::string_view bytes, std::vector<int32_t>* out) {
  Cursor c(bytes);
  uint64_t n = 0;
  SUBREC_RETURN_NOT_OK(c.ReadU64(&n));
  if (n > c.remaining() / 4)
    return Status::OutOfRange("snapshot int array larger than its section");
  out->resize(static_cast<size_t>(n));
  return c.ReadArray(out->data(), out->size());
}

/// Upper bound on the bytes SnapshotWriter emits for `d`, so the output
/// buffer is allocated once.
size_t EncodedSizeBound(const SnapshotData& d) {
  constexpr size_t kMaxSections = 9;
  constexpr size_t kFrameSize = 4 + 8;  // tag + byte_size
  size_t size = kHeaderSize + kMaxSections * kFrameSize + kFooterSize;
  size += 4 + d.model_name.size() + 4 + d.dataset.size() + 4;
  for (const la::Matrix* m : {&d.interest, &d.influence, &d.text})
    size += 16 + 8 * m->size();
  for (const std::vector<int32_t>* v : {&d.years, &d.disciplines, &d.topics})
    size += 8 + 4 * v->size();
  size += 8;
  for (const auto& profile : d.profiles) size += 8 + 4 * profile.size();
  return size + d.ann_index.size();
}

/// Overwrites the `width`-byte little-endian field at `at`: a header or
/// frame field that is only known once the bytes after it are down.
void PatchLe(std::string* out, size_t at, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i)
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Structural consistency of a parsed snapshot: every per-paper array must
/// agree on the paper count and the score dot product must be well-formed.
Status ValidateData(const SnapshotData& d) {
  const size_t n = d.interest.rows();
  if (d.influence.rows() != n)
    return Status::InvalidArgument("snapshot: interest/influence size skew");
  if (n > 0 && d.interest.cols() != d.influence.cols())
    return Status::InvalidArgument("snapshot: interest/influence dim skew");
  if (!d.text.empty() && d.text.rows() != n)
    return Status::InvalidArgument("snapshot: text vector count skew");
  if (d.years.size() != n || d.disciplines.size() != n ||
      d.topics.size() != n) {
    return Status::InvalidArgument("snapshot: attribute array size skew");
  }
  for (const auto& profile : d.profiles) {
    for (int32_t pid : profile) {
      if (pid < 0 || static_cast<size_t>(pid) >= n)
        return Status::InvalidArgument("snapshot: profile paper out of range");
    }
  }
  return Status::Ok();
}

/// Slicing-by-8 tables for the reflected CRC-32 (poly 0xEDB88320):
/// table[0] is the classic bytewise table, and table[k][b] is the CRC
/// contribution of byte b followed by k zero bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k)
    for (size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    MakeCrcTables();

/// Little-endian u32 from four explicit bytes: the same value on any host
/// byte order (compilers fuse it into one load where the orders agree).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step: the eight table lookups are independent, where
  // the bytewise loop chains one lookup per byte.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter(const SnapshotData& data) {
  // Every section is encoded straight into bytes_, reserved once: the
  // header's section count and payload size and each frame's byte_size
  // are patched in after the bytes they describe, and the checksum runs
  // over the payload in place.
  std::string& out = bytes_;
  out.reserve(EncodedSizeBound(data));
  AppendU64(&out, kMagic);
  AppendU32(&out, kVersion);
  AppendU32(&out, 0);  // section_count, patched below
  AppendU64(&out, 0);  // payload_size, patched below
  uint32_t sections = 0;
  auto add_section = [&](uint32_t tag, auto&& encode_body) {
    AppendU32(&out, tag);
    const size_t size_at = out.size();
    AppendU64(&out, 0);
    encode_body();
    PatchLe(&out, size_at, out.size() - size_at - 8, 8);
    ++sections;
  };

  add_section(kMetaTag, [&] {
    AppendString(&out, data.model_name);
    AppendString(&out, data.dataset);
    AppendI32(&out, data.split_year);
  });
  add_section(kInterestTag, [&] { EncodeMatrix(data.interest, &out); });
  add_section(kInfluenceTag, [&] { EncodeMatrix(data.influence, &out); });
  add_section(kTextTag, [&] { EncodeMatrix(data.text, &out); });
  add_section(kYearsTag, [&] { AppendI32Vector(&out, data.years); });
  add_section(kDisciplinesTag,
              [&] { AppendI32Vector(&out, data.disciplines); });
  add_section(kTopicsTag, [&] { AppendI32Vector(&out, data.topics); });
  add_section(kProfilesTag, [&] {
    AppendU64(&out, data.profiles.size());
    for (const auto& profile : data.profiles) AppendI32Vector(&out, profile);
  });
  // The ANN section is optional and opaque: the serialized index carries its
  // own magic/version/bounds, so the snapshot layer just frames the bytes.
  // Omitting the section entirely when empty keeps ANN-free snapshots
  // byte-identical to the pre-ANN format.
  if (!data.ann_index.empty())
    add_section(kAnnIndexTag, [&] { out.append(data.ann_index); });

  const size_t payload_size = out.size() - kHeaderSize;
  PatchLe(&out, 12, sections, 4);
  PatchLe(&out, 16, payload_size, 8);
  AppendU32(&out,
            Crc32(std::string_view(out).substr(kHeaderSize, payload_size)));
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, bytes_);
}

Result<SnapshotData> SnapshotReader::Parse(std::string_view bytes) {
  Cursor header(bytes);
  uint64_t magic = 0, payload_size = 0;
  uint32_t version = 0, section_count = 0;
  SUBREC_RETURN_NOT_OK(header.ReadU64(&magic));
  if (magic != kMagic)
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot?)");
  SUBREC_RETURN_NOT_OK(header.ReadU32(&version));
  if (version != kVersion)
    return Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kVersion) + ")");
  SUBREC_RETURN_NOT_OK(header.ReadU32(&section_count));
  SUBREC_RETURN_NOT_OK(header.ReadU64(&payload_size));
  std::string_view payload;
  SUBREC_RETURN_NOT_OK(header.ReadView(payload_size, &payload));
  uint32_t stored_crc = 0;
  SUBREC_RETURN_NOT_OK(header.ReadU32(&stored_crc));
  const uint32_t actual_crc = Crc32(payload);
  if (stored_crc != actual_crc)
    return Status::InvalidArgument("snapshot: checksum mismatch (corrupt)");

  SnapshotData data;
  Cursor c(payload);
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0;
    SUBREC_RETURN_NOT_OK(c.ReadU32(&tag));
    SUBREC_RETURN_NOT_OK(c.ReadU64(&size));
    std::string_view body;
    SUBREC_RETURN_NOT_OK(c.ReadView(size, &body));
    switch (tag) {
      case kMetaTag: {
        Cursor m(body);
        SUBREC_RETURN_NOT_OK(m.ReadString(&data.model_name));
        SUBREC_RETURN_NOT_OK(m.ReadString(&data.dataset));
        SUBREC_RETURN_NOT_OK(m.ReadI32(&data.split_year));
        break;
      }
      case kInterestTag:
        SUBREC_RETURN_NOT_OK(DecodeMatrix(body, &data.interest));
        break;
      case kInfluenceTag:
        SUBREC_RETURN_NOT_OK(DecodeMatrix(body, &data.influence));
        break;
      case kTextTag:
        SUBREC_RETURN_NOT_OK(DecodeMatrix(body, &data.text));
        break;
      case kYearsTag:
        SUBREC_RETURN_NOT_OK(DecodeI32Vector(body, &data.years));
        break;
      case kDisciplinesTag:
        SUBREC_RETURN_NOT_OK(DecodeI32Vector(body, &data.disciplines));
        break;
      case kTopicsTag:
        SUBREC_RETURN_NOT_OK(DecodeI32Vector(body, &data.topics));
        break;
      case kProfilesTag: {
        Cursor p(body);
        uint64_t users = 0;
        SUBREC_RETURN_NOT_OK(p.ReadU64(&users));
        if (users > body.size() / 8)
          return Status::OutOfRange("snapshot: profile count implausible");
        data.profiles.resize(static_cast<size_t>(users));
        for (auto& profile : data.profiles) {
          uint64_t len = 0;
          SUBREC_RETURN_NOT_OK(p.ReadU64(&len));
          if (len > p.remaining() / 4)
            return Status::OutOfRange("snapshot: profile longer than section");
          profile.resize(static_cast<size_t>(len));
          SUBREC_RETURN_NOT_OK(p.ReadArray(profile.data(), profile.size()));
        }
        break;
      }
      case kAnnIndexTag:
        // Opaque by design; decoding (and decode errors) happen where the
        // index is rebuilt, not here.
        data.ann_index.assign(body);
        break;
      default:
        // Unknown section from a newer writer: skip, stay compatible.
        break;
    }
  }
  SUBREC_RETURN_NOT_OK(ValidateData(data));
  return data;
}

Result<SnapshotData> SnapshotReader::ReadFile(const std::string& path) {
  SUBREC_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return Parse(bytes);
}

}  // namespace subrec::serve
