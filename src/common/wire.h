#ifndef SUBREC_COMMON_WIRE_H_
#define SUBREC_COMMON_WIRE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/status.h"

namespace subrec::wire {

/// Little-endian primitive encoders shared by every on-disk format in the
/// repo (serving snapshots, ANN indexes). Integers are encoded LSB-first;
/// doubles as their raw IEEE-754 bit pattern, so round-trips are bit-exact.
/// Arrays go through AppendArray / Cursor::ReadArray: one bounds check and
/// one memcpy for the whole array, plus a per-element byte swap compiled in
/// only on big-endian hosts.

/// Element types the array helpers move: 4- or 8-byte arithmetic values,
/// whose wire form is their little-endian object representation.
template <typename T>
concept WireElement =
    std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8);

namespace internal {

/// Reverses the byte order of `n` consecutive `width`-byte elements.
inline void SwapElementBytes(char* bytes, size_t n, size_t width) {
  for (size_t i = 0; i < n; ++i)
    std::reverse(bytes + i * width, bytes + (i + 1) * width);
}

}  // namespace internal

/// Appends `n` values in wire order.
template <WireElement T>
void AppendArray(std::string* out, const T* values, size_t n) {
  if (n == 0) return;  // `values` may be null for an empty array
  const size_t at = out->size();
  out->append(reinterpret_cast<const char*>(values), n * sizeof(T));
  if constexpr (std::endian::native == std::endian::big)
    internal::SwapElementBytes(out->data() + at, n, sizeof(T));
}

inline void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline void AppendI32(std::string* out, int32_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
}

inline void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked sequential reader over untrusted bytes. Every read that
/// would run past the end returns OutOfRange instead of touching memory,
/// so parsers built on it never abort on corrupt or truncated input.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU32(uint32_t* out) {
    SUBREC_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  Status ReadU64(uint64_t* out) {
    SUBREC_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + static_cast<size_t>(i)]))
           << (8 * i);
    pos_ += 8;
    *out = v;
    return Status::Ok();
  }

  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    SUBREC_RETURN_NOT_OK(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::Ok();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    SUBREC_RETURN_NOT_OK(ReadU32(&len));
    SUBREC_RETURN_NOT_OK(Need(len));
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::Ok();
  }

  /// Reads `n` values in wire order into `out`. Bounds-checked once for the
  /// whole array (without overflow for any `n`) before anything is copied.
  template <WireElement T>
  Status ReadArray(T* out, uint64_t n) {
    if (n > remaining() / sizeof(T))
      return Status::OutOfRange("wire: truncated input: need " +
                                std::to_string(n) + " elements of " +
                                std::to_string(sizeof(T)) + " bytes, have " +
                                std::to_string(remaining()) + " bytes");
    if (n == 0) return Status::Ok();  // `out` may be null for an empty array
    const size_t bytes = static_cast<size_t>(n) * sizeof(T);
    std::memcpy(out, data_.data() + pos_, bytes);
    if constexpr (std::endian::native == std::endian::big)
      internal::SwapElementBytes(reinterpret_cast<char*>(out),
                                 static_cast<size_t>(n), sizeof(T));
    pos_ += bytes;
    return Status::Ok();
  }

  /// A length-checked sub-view over the next `len` bytes.
  Status ReadView(uint64_t len, std::string_view* out) {
    SUBREC_RETURN_NOT_OK(Need(len));
    *out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::Ok();
  }

 private:
  Status Need(uint64_t n) const {
    if (n > data_.size() - pos_)
      return Status::OutOfRange("wire: truncated input: need " +
                                std::to_string(n) + " bytes, have " +
                                std::to_string(data_.size() - pos_));
    return Status::Ok();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace subrec::wire

#endif  // SUBREC_COMMON_WIRE_H_
