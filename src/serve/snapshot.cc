#include "serve/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <system_error>
#include <utility>

#include "common/file_util.h"
#include "common/wire.h"
#include "obs/trace.h"

namespace subrec::serve {
namespace {

using wire::AppendI32;
using wire::AppendString;
using wire::AppendU32;
using wire::AppendU64;

// "SUBRSNP1" read as a little-endian u64.
constexpr uint64_t kMagic = 0x31504E5352425553ULL;
constexpr uint32_t kVersion = 1;
// Header: magic u64 + version u32 + section_count u32 + payload_size u64.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;
constexpr size_t kFooterSize = 4;  // payload crc32
constexpr size_t kFrameSize = 4 + 8;  // section tag + byte_size

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

/// Upper bound on the bytes SnapshotWriter emits for `d`, so the output
/// buffer is allocated once.
size_t EncodedSizeBound(const SnapshotData& d) {
  constexpr size_t kMaxSections = 9;
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

Status Truncated() { return Status::OutOfRange("snapshot: truncated"); }

/// Where the decoder's bytes come from. Read() copies into storage the
/// decoder keeps (a slab, an array, a frame field); Next() shows bytes
/// nothing keeps (skipped sections, spare section bytes) in place. Both
/// return fewer bytes than asked only when the source has ended.
class ByteSource {
 public:
  /// Copies up to `n` next bytes to `dst` and returns how many.
  virtual size_t Read(char* dst, size_t n) = 0;
  /// Consumes and returns the next 1..`n` bytes (none once the source has
  /// ended); the view is valid until the next call.
  virtual std::string_view Next(size_t n) = 0;

 protected:
  ~ByteSource() = default;  // sources live on the stack, never deleted here
};

/// Snapshot bytes already in memory (Parse): skipped bytes are never
/// copied.
class MemorySource final : public ByteSource {
 public:
  explicit MemorySource(std::string_view bytes) : rest_(bytes) {}

  size_t Read(char* dst, size_t n) override {
    const std::string_view run = Next(n);
    if (!run.empty()) std::memcpy(dst, run.data(), run.size());
    return run.size();
  }

  std::string_view Next(size_t n) override {
    const std::string_view run = rest_.substr(0, n);
    rest_.remove_prefix(run.size());
    return run;
  }

 private:
  std::string_view rest_;
};

/// A snapshot file (ReadFile) opened unbuffered: small reads and skips
/// are served from one fixed buffer, refilled a read() at a time, and a
/// read of at least the buffer's size goes straight from the file into
/// its destination.
class FileSource final : public ByteSource {
 public:
  static constexpr size_t kBufferSize = 32 << 10;

  explicit FileSource(std::FILE* file)
      : file_(file), buffer_(new char[kBufferSize]) {}

  size_t Read(char* dst, size_t n) override {
    size_t done = 0;
    while (done < n) {
      if (next_ == end_ && n - done >= kBufferSize)
        return done + std::fread(dst + done, 1, n - done, file_);
      const std::string_view run = Next(n - done);
      if (run.empty()) break;
      std::memcpy(dst + done, run.data(), run.size());
      done += run.size();
    }
    return done;
  }

  std::string_view Next(size_t n) override {
    if (next_ == end_) {
      next_ = 0;
      end_ = std::fread(buffer_.get(), 1, kBufferSize, file_);
    }
    const size_t take = std::min(n, end_ - next_);
    const char* at = buffer_.get() + next_;
    next_ += take;
    return {at, take};
  }

 private:
  std::FILE* file_;
  std::unique_ptr<char[]> buffer_;
  size_t next_ = 0;  // buffer_[next_, end_) is read but not yet consumed
  size_t end_ = 0;
};

/// The snapshot as the decoder sees it: raw reads for the header and
/// footer, and payload reads that fold every byte into the running CRC as
/// it lands. A source that ends early is "snapshot: truncated".
class SnapshotStream {
 public:
  explicit SnapshotStream(ByteSource* source) : source_(source) {}

  /// Header and footer bytes: outside the payload and its checksum.
  Status ReadRaw(char* dst, size_t n) {
    return source_->Read(dst, n) == n ? Status::Ok() : Truncated();
  }

  void BeginPayload(uint64_t size) { payload_left_ = size; }
  uint64_t payload_left() const { return payload_left_; }
  uint32_t crc() const { return crc_; }

  /// The next `n` payload bytes (`n` <= payload_left()) into `dst`, in
  /// runs short enough to be checksummed while still in cache.
  Status Read(char* dst, uint64_t n) {
    constexpr uint64_t kRun = 256 << 10;
    while (n > 0) {
      const auto run = static_cast<size_t>(std::min(n, kRun));
      if (source_->Read(dst, run) != run) return Truncated();
      crc_ = Crc32Update(crc_, std::string_view(dst, run));
      dst += run;
      n -= run;
      payload_left_ -= run;
    }
    return Status::Ok();
  }

  /// Checksums and drops the next `n` payload bytes (`n` <=
  /// payload_left()) without allocating anything for them.
  Status Skip(uint64_t n) {
    while (n > 0) {
      const std::string_view run = source_->Next(static_cast<size_t>(n));
      if (run.empty()) return Truncated();
      crc_ = Crc32Update(crc_, run);
      n -= run.size();
      payload_left_ -= run.size();
    }
    return Status::Ok();
  }

 private:
  ByteSource* source_;
  uint64_t payload_left_ = 0;
  uint32_t crc_ = 0;
};

/// One section body (or frame) on the stream: wire::Cursor's
/// bounds-checked reads, over bytes that arrive from the stream. Every
/// read is checked against the section before a byte is consumed.
class Section {
 public:
  Section(SnapshotStream* in, uint64_t size) : in_(in), left_(size) {}

  uint64_t left() const { return left_; }

  Status Read(void* dst, uint64_t n) {
    if (n > left_) return Overrun(n);
    left_ -= n;
    return in_->Read(static_cast<char*>(dst), n);
  }

  /// A little-endian u32, u64 or i32.
  template <typename T>
  Status ReadLe(T* out) {
    unsigned char b[sizeof(T)];
    SUBREC_RETURN_NOT_OK(Read(b, sizeof(T)));
    std::make_unsigned_t<T> v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<std::make_unsigned_t<T>>(b[i]) << (8 * i);
    *out = static_cast<T>(v);
    return Status::Ok();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    SUBREC_RETURN_NOT_OK(ReadLe(&len));
    if (len > left_) return Overrun(len);
    out->resize(len);
    return Read(out->data(), len);
  }

  /// `n` values in wire order straight into `out`, bounded by the section
  /// (without overflow for any `n`) before anything is read.
  template <wire::WireElement T>
  Status ReadArray(T* out, uint64_t n) {
    if (n > left_ / sizeof(T))
      return Status::OutOfRange("snapshot: section truncated: need " +
                                std::to_string(n) + " elements of " +
                                std::to_string(sizeof(T)) + " bytes, have " +
                                std::to_string(left_) + " bytes");
    SUBREC_RETURN_NOT_OK(Read(out, n * sizeof(T)));
    if constexpr (std::endian::native == std::endian::big)
      wire::internal::SwapElementBytes(reinterpret_cast<char*>(out),
                                       static_cast<size_t>(n), sizeof(T));
    return Status::Ok();
  }

  /// Spare bytes at the end of the section (or a whole unknown section).
  Status SkipRest() {
    const uint64_t n = left_;
    left_ = 0;
    return in_->Skip(n);
  }

 private:
  Status Overrun(uint64_t n) const {
    return Status::OutOfRange("snapshot: section truncated: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(left_));
  }

  SnapshotStream* in_;
  uint64_t left_;
};

Status DecodeMatrix(Section* s, la::Matrix* out) {
  uint64_t rows = 0, cols = 0;
  SUBREC_RETURN_NOT_OK(s->ReadLe(&rows));
  SUBREC_RETURN_NOT_OK(s->ReadLe(&cols));
  // Bound the dimensions by the section size BEFORE any allocation or
  // arithmetic on them: cols first, so that 8*cols below cannot wrap (a
  // crafted cols of 2^61 would otherwise divide by zero) and so the slab
  // resize can never allocate more than the section actually carries —
  // even when rows == 0. A zero-width matrix has no payload bytes to
  // bound rows with, so rows gets an explicit cap there.
  if (cols > s->left() / 8)
    return Status::OutOfRange("snapshot matrix wider than its section");
  if (cols == 0) {
    constexpr uint64_t kMaxZeroWidthRows = uint64_t{1} << 24;
    if (rows > kMaxZeroWidthRows)
      return Status::OutOfRange(
          "snapshot zero-width matrix row count implausible");
  } else if (rows > s->left() / (8 * cols)) {
    return Status::OutOfRange("snapshot matrix larger than its section");
  }
  // Read straight into the contiguous slab: one allocation for the whole
  // matrix, no transient per-row vectors or staging copy (the load-time
  // allocation regression tests count on this).
  out->ResizeOverwrite(static_cast<size_t>(rows), static_cast<size_t>(cols));
  return s->ReadArray(out->data(), out->size());
}

Status DecodeI32Vector(Section* s, std::vector<int32_t>* out) {
  uint64_t n = 0;
  SUBREC_RETURN_NOT_OK(s->ReadLe(&n));
  if (n > s->left() / 4)
    return Status::OutOfRange("snapshot int array larger than its section");
  out->resize(static_cast<size_t>(n));
  return s->ReadArray(out->data(), out->size());
}

Status DecodeProfiles(Section* s, std::vector<std::vector<int32_t>>* out) {
  uint64_t users = 0;
  SUBREC_RETURN_NOT_OK(s->ReadLe(&users));
  // Each profile carries at least its 8-byte length.
  if (users > s->left() / 8)
    return Status::OutOfRange("snapshot: profile count implausible");
  out->resize(static_cast<size_t>(users));
  for (auto& profile : *out) {
    uint64_t len = 0;
    SUBREC_RETURN_NOT_OK(s->ReadLe(&len));
    if (len > s->left() / 4)
      return Status::OutOfRange("snapshot: profile longer than section");
    profile.resize(static_cast<size_t>(len));
    SUBREC_RETURN_NOT_OK(s->ReadArray(profile.data(), profile.size()));
  }
  return Status::Ok();
}

Status DecodeSection(uint32_t tag, Section* s, SnapshotData* data) {
  switch (tag) {
    case kMetaTag:
      SUBREC_RETURN_NOT_OK(s->ReadString(&data->model_name));
      SUBREC_RETURN_NOT_OK(s->ReadString(&data->dataset));
      return s->ReadLe(&data->split_year);
    case kInterestTag:
      return DecodeMatrix(s, &data->interest);
    case kInfluenceTag:
      return DecodeMatrix(s, &data->influence);
    case kTextTag:
      return DecodeMatrix(s, &data->text);
    case kYearsTag:
      return DecodeI32Vector(s, &data->years);
    case kDisciplinesTag:
      return DecodeI32Vector(s, &data->disciplines);
    case kTopicsTag:
      return DecodeI32Vector(s, &data->topics);
    case kProfilesTag:
      return DecodeProfiles(s, &data->profiles);
    case kAnnIndexTag:
      // Opaque by design; decoding (and decode errors) happen where the
      // index is rebuilt, not here.
      data->ann_index.resize(static_cast<size_t>(s->left()));
      return s->Read(data->ann_index.data(), data->ann_index.size());
    default:
      // Unknown section from a newer writer: skipped, stay compatible.
      return Status::Ok();
  }
}

/// Span names are string literals: the recorder keeps the pointer.
const char* SectionSpanName(uint32_t tag) {
  switch (tag) {
    case kMetaTag:
      return "serve/decode/meta";
    case kInterestTag:
      return "serve/decode/interest";
    case kInfluenceTag:
      return "serve/decode/influence";
    case kTextTag:
      return "serve/decode/text";
    case kYearsTag:
      return "serve/decode/years";
    case kDisciplinesTag:
      return "serve/decode/disciplines";
    case kTopicsTag:
      return "serve/decode/topics";
    case kProfilesTag:
      return "serve/decode/profiles";
    case kAnnIndexTag:
      return "serve/decode/ann";
    default:
      return "serve/decode/unknown";
  }
}

Status DecodeSections(SnapshotStream* in, uint32_t section_count,
                      SnapshotData* data) {
  for (uint32_t i = 0; i < section_count; ++i) {
    if (in->payload_left() < kFrameSize)
      return Status::OutOfRange("snapshot: section frame past the payload");
    Section frame(in, kFrameSize);
    uint32_t tag = 0;
    uint64_t size = 0;
    SUBREC_RETURN_NOT_OK(frame.ReadLe(&tag));
    SUBREC_RETURN_NOT_OK(frame.ReadLe(&size));
    if (size > in->payload_left())
      return Status::OutOfRange("snapshot: section runs past the payload");
    obs::TraceSpan span(SectionSpanName(tag));
    Section body(in, size);
    SUBREC_RETURN_NOT_OK(DecodeSection(tag, &body, data));
    SUBREC_RETURN_NOT_OK(body.SkipRest());
  }
  return Status::Ok();
}

uint64_t LoadLe(const char* p, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

/// The one snapshot decoder, over `source` of `source_size` bytes.
Result<SnapshotData> Decode(ByteSource* source, uint64_t source_size) {
  SnapshotStream in(source);
  // Field by field, so that a short input with a foreign magic still
  // reports the magic.
  char header[kHeaderSize];
  SUBREC_RETURN_NOT_OK(in.ReadRaw(header, 8));
  if (LoadLe(header, 8) != kMagic)
    return Status::InvalidArgument("snapshot: bad magic (not a snapshot?)");
  SUBREC_RETURN_NOT_OK(in.ReadRaw(header + 8, 4));
  const auto version = static_cast<uint32_t>(LoadLe(header + 8, 4));
  if (version != kVersion)
    return Status::InvalidArgument("snapshot: unsupported version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kVersion) + ")");
  SUBREC_RETURN_NOT_OK(in.ReadRaw(header + 12, 12));
  const auto section_count = static_cast<uint32_t>(LoadLe(header + 12, 4));
  const uint64_t payload_size = LoadLe(header + 16, 8);
  // The source bounds the payload before anything is allocated for it.
  if (source_size < kHeaderSize + kFooterSize ||
      payload_size > source_size - kHeaderSize - kFooterSize)
    return Truncated();

  in.BeginPayload(payload_size);
  SnapshotData data;
  const Status sections = DecodeSections(&in, section_count, &data);
  // Every payload byte goes through the checksum, bytes after the last
  // declared section and after a failed one included, and the checksum
  // speaks first: a section error surfaces only from a sound payload.
  SUBREC_RETURN_NOT_OK(in.Skip(in.payload_left()));
  char footer[kFooterSize];
  SUBREC_RETURN_NOT_OK(in.ReadRaw(footer, kFooterSize));
  if (LoadLe(footer, kFooterSize) != in.crc())
    return Status::InvalidArgument("snapshot: checksum mismatch (corrupt)");
  SUBREC_RETURN_NOT_OK(sections);
  SUBREC_RETURN_NOT_OK(ValidateData(data));
  return data;
}

}  // namespace

namespace internal {

uint32_t Crc32Tables(uint32_t reg, const unsigned char* p, size_t n) {
  const auto& t = kCrcTables;
  // Eight bytes per step: the eight table lookups are independent, where
  // the bytewise loop chains one lookup per byte.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = reg ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    reg = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) reg = t[0][(reg ^ *p) & 0xFFu] ^ (reg >> 8);
  return reg;
}

}  // namespace internal

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  static const internal::Crc32FoldFn fold = internal::Crc32FoldKernel();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t reg = ~crc;
  // The fold takes whole 16-byte blocks, at least four; the tables take
  // the tail and anything shorter.
  if (fold != nullptr && n >= 64) {
    const size_t blocks = n & ~size_t{15};
    reg = fold(reg, p, blocks);
    p += blocks;
    n -= blocks;
  }
  return ~internal::Crc32Tables(reg, p, n);
}

uint32_t Crc32(std::string_view data) { return Crc32Update(0, data); }

SnapshotWriter::SnapshotWriter(const SnapshotData& data) {
  // Every section is encoded straight into bytes_, reserved once: the
  // header's section count and payload size and each frame's byte_size
  // are patched in after the bytes they describe, and each finished
  // section is folded into the payload checksum in place.
  std::string& out = bytes_;
  out.reserve(EncodedSizeBound(data));
  AppendU64(&out, kMagic);
  AppendU32(&out, kVersion);
  AppendU32(&out, 0);  // section_count, patched below
  AppendU64(&out, 0);  // payload_size, patched below
  uint32_t sections = 0;
  uint32_t crc = 0;
  auto add_section = [&](uint32_t tag, auto&& encode_body) {
    const size_t begin = out.size();
    AppendU32(&out, tag);
    AppendU64(&out, 0);
    encode_body();
    PatchLe(&out, begin + 4, out.size() - begin - kFrameSize, 8);
    crc = Crc32Update(crc, std::string_view(out).substr(begin));
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

  PatchLe(&out, 12, sections, 4);
  PatchLe(&out, 16, out.size() - kHeaderSize, 8);
  AppendU32(&out, crc);
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, bytes_);
}

Result<SnapshotData> SnapshotReader::Parse(std::string_view bytes) {
  MemorySource source(bytes);
  return Decode(&source, bytes.size());
}

Result<SnapshotData> SnapshotReader::ReadFile(const std::string& path) {
  struct CloseFile {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  const std::unique_ptr<std::FILE, CloseFile> file(
      std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open for read: " + path);
  // Only regular files have a size; anything else (a directory, a pipe) is
  // an error rather than a guess.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::Internal("cannot size " + path + ": " + error.message());
  }
  // No stdio buffer: FileSource keeps the only one.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);
  FileSource source(file.get());
  return Decode(&source, size);
}

}  // namespace subrec::serve
