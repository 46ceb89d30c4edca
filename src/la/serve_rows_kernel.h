#ifndef SUBREC_LA_SERVE_ROWS_KERNEL_H_
#define SUBREC_LA_SERVE_ROWS_KERNEL_H_

// Textual body of the serve scoring kernel (la::ServeScoreRows), shared by
// the three serve translation units the way la/ann_kernel_impl.h is shared
// by the ANN ones: serve_kernel.cc (baseline), serve_kernel_avx2.cc
// (-mavx2) and serve_kernel_avx512.cc (-mavx512f), all with
// -ffp-contract=off and never -mfma. Each TU defines SUBREC_SERVE_ROWS_NS
// to a unique namespace before including this header.
//
// Contract: logits[p * ld + j] = la::Dot(profile row p, slab row ids[j]),
// reading every candidate row where it lives in the slab. The profile
// comes packed and transposed: pt[d * stride + p], stride =
// ServeProfileStride(m), lanes p >= m zero.
//
// Layout: one PROFILE ROW per vector lane. A block of L candidate rows is
// walked in ascending d; each row's d-th double is broadcast across the
// lanes and multiplied by the profile's d-th packed row, then added to
// that candidate's accumulator. Every lane starts at +0.0 and adds
// row[d] * profile[d] as a separate multiply then add, in ascending d —
// la::Dot's sequence, since multiplication commutes — so no dot product is
// split across lanes and every ISA writes identical bits. An in-register
// transpose (la/transpose_kernel.h) then turns the L accumulators into
// L-wide runs of one profile row's logits, which are stored; padded lanes
// are never stored. Profiles wider than 8 rows (stacked requests) loop
// over 8-row blocks while the block's candidate rows are still L1-hot.
//
// The rows are scattered over a slab far bigger than L2, so every row is a
// run of cache misses the hardware prefetcher cannot predict: every line
// of the rows kPrefetchRows ahead is software-prefetched, across the end
// of the scored range up to `readable` (the caller scores one tile at a
// time; the next tile's rows are in flight while this one computes).

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "la/serve_kernel.h"

#ifndef SUBREC_SERVE_ROWS_NS
#error "define SUBREC_SERVE_ROWS_NS before including la/serve_rows_kernel.h"
#endif

// Vec4 / Vec8, their unaligned loads and stores and their in-register
// Transpose, compiled into this TU's namespace.
#define SUBREC_TRANSPOSE_NS SUBREC_SERVE_ROWS_NS
#include "la/transpose_kernel.h"  // NOLINT(build/include)
#undef SUBREC_TRANSPOSE_NS

namespace subrec::la::internal {
namespace SUBREC_SERVE_ROWS_NS {

/// How many candidate rows ahead of the current one are prefetched.
/// Scratch microbenchmark on a 4-vCPU AVX-512 Xeon (model 143, GCC 12.2)
/// at serve_scan's shape (8 profile rows, 3,072 sorted ids scattered over
/// the top half of a 1e5 x 48 slab, 128-wide tiles), median of 5 runs,
/// microseconds per request, AVX-512 / AVX2 kernel, slab in L3 | evicted
/// before each request: no prefetch 211 / 322 | 499 / 619; 8 rows ahead
/// 195 / 209 | 444 / 470; 16 ahead 178 / 210 | 424 / 474; 32 ahead
/// 251 / 213 | 466 / 469. 8 and 16 both win on both ISAs; 32 reads
/// slower on AVX-512. The scalar loop (hosts without AVX2) prefetches the
/// same way: median of 3 runs, 1,370 µs per request without, 783 µs with
/// (slab in L3).
inline constexpr size_t kPrefetchRows = 16;

/// Prefetches every cache line of slab row `id` (row width k > 0).
inline void PrefetchRow(const double* slab, size_t k, int32_t id) {
#if defined(__GNUC__) || defined(__clang__)
  const char* row =
      reinterpret_cast<const char*>(slab + static_cast<size_t>(id) * k);
  const size_t bytes = k * sizeof(double);
  for (size_t off = 0; off < bytes; off += 64) __builtin_prefetch(row + off);
  __builtin_prefetch(row + bytes - 1);  // the last line of an unaligned row
#else
  (void)slab, (void)k, (void)id;
#endif
}

#if SUBREC_TRANSPOSE_VECTOR_OK
#if defined(__AVX512F__)

inline constexpr size_t kBlock = 8;

/// 8 candidate rows x 8 profile lanes in 8 Vec8 accumulators; stores the
/// first `rows` (<= 8) profile rows' 8 logits at out + l * ld.
inline void ScoreBlock(const double* pt, size_t stride, size_t k,
                       const double* const* cand, size_t rows, double* out,
                       size_t ld) {
  Vec8 acc[8] = {};
  for (size_t d = 0; d < k; ++d) {
    Vec8 prof;
    LoadUnaligned(pt + d * stride, &prof);
    for (size_t c = 0; c < 8; ++c) acc[c] += cand[c][d] * prof;
  }
  Vec8 t[8];
  Transpose(acc, t);
  for (size_t l = 0; l < rows; ++l) StoreUnaligned(t[l], out + l * ld);
}

#else  // AVX2 (or any other 256-bit target)

inline constexpr size_t kBlock = 4;

/// 4 candidate rows x 8 profile lanes, each candidate held as two Vec4
/// halves (lanes 0–3 and 4–7); two 4x4 transposes; stores the first
/// `rows` (<= 8) profile rows' 4 logits at out + l * ld.
inline void ScoreBlock(const double* pt, size_t stride, size_t k,
                       const double* const* cand, size_t rows, double* out,
                       size_t ld) {
  Vec4 lo[4] = {}, hi[4] = {};
  for (size_t d = 0; d < k; ++d) {
    Vec4 prof_lo, prof_hi;
    LoadUnaligned(pt + d * stride, &prof_lo);
    LoadUnaligned(pt + d * stride + 4, &prof_hi);
    for (size_t c = 0; c < 4; ++c) {
      const double x = cand[c][d];
      lo[c] += x * prof_lo;
      hi[c] += x * prof_hi;
    }
  }
  Vec4 t[4];
  Transpose(lo, t);
  for (size_t l = 0; l < std::min<size_t>(rows, 4); ++l)
    StoreUnaligned(t[l], out + l * ld);
  Transpose(hi, t);
  for (size_t l = 4; l < rows; ++l) StoreUnaligned(t[l - 4], out + l * ld);
}

#endif  // __AVX512F__
#endif  // SUBREC_TRANSPOSE_VECTOR_OK

inline void ScoreRows(const double* pt, size_t m, const double* slab,
                      size_t k, const int32_t* ids, size_t count,
                      size_t readable, double* logits, size_t ld) {
  if (m == 0) return;
  if (k == 0) {  // la::Dot of empty rows: +0.0, and no row is read
    for (size_t p = 0; p < m; ++p)
      for (size_t j = 0; j < count; ++j) logits[p * ld + j] = 0.0;
    return;
  }
  const size_t stride = ServeProfileStride(m);
  size_t j = 0;
#if SUBREC_TRANSPOSE_VECTOR_OK
  for (; j + kBlock <= count; j += kBlock) {
    const size_t ahead = j + kPrefetchRows;
    for (size_t i = ahead; i < ahead + kBlock && i < readable; ++i)
      PrefetchRow(slab, k, ids[i]);
    const double* cand[kBlock];
    for (size_t c = 0; c < kBlock; ++c)
      cand[c] = slab + static_cast<size_t>(ids[j + c]) * k;
    for (size_t p0 = 0; p0 < m; p0 += 8) {
      ScoreBlock(pt + p0, stride, k, cand, std::min<size_t>(m - p0, 8),
                 logits + p0 * ld + j, ld);
    }
  }
#endif
  for (; j < count; ++j) {
    if (j + kPrefetchRows < readable)
      PrefetchRow(slab, k, ids[j + kPrefetchRows]);
    const double* row = slab + static_cast<size_t>(ids[j]) * k;
    for (size_t p = 0; p < m; ++p) {
      double acc = 0.0;
      for (size_t d = 0; d < k; ++d) acc += row[d] * pt[d * stride + p];
      logits[p * ld + j] = acc;
    }
  }
}

}  // namespace SUBREC_SERVE_ROWS_NS
}  // namespace subrec::la::internal

#endif  // SUBREC_LA_SERVE_ROWS_KERNEL_H_
