#ifndef SUBREC_LA_GEMM_KERNEL_H_
#define SUBREC_LA_GEMM_KERNEL_H_

// Textual kernel body shared by the per-ISA GEMM translation units. Each
// TU defines SUBREC_GEMM_NS to a unique namespace before including this
// header, then gets the identical source compiled under its own ISA flags
// (gemm.cc: baseline; gemm_avx2.cc: -mavx2 -mfma; gemm_avx512.cc:
// -mavx512f -mfma). There are no intrinsics — the tile is expressed with
// GNU vector types sized to the TU's widest native vector (a plain scalar
// path covers non-GNU toolchains). The three TUs do not produce identical
// bits (see below and la/gemm.h); each is deterministic and independent of
// the thread count.

#include <algorithm>
#include <cstddef>

#ifndef SUBREC_GEMM_NS
#error "define SUBREC_GEMM_NS before including la/gemm_kernel.h"
#endif

namespace subrec::la::internal {
namespace SUBREC_GEMM_NS {

// 4 x kNr register tile: 8 vector accumulators (two per row) stay live
// across the whole k loop, so C traffic happens once per tile instead of
// once per k step, and each loaded B vector serves four output rows.
// Every C(i,j) element receives its k products in ascending-k order, and
// whether it sits in a full tile or in the edge loop depends on (i, j)
// and the shape alone (row ranges start at multiples of kMr), so one TU
// gives the same bits for any row split across threads. The two paths do
// not round alike in the FMA TUs: the tile fuses each multiply-add, while
// GCC 12 compiles the edge loop into pairs of separate multiplies and
// adds. Since kNr differs between TUs, a column that one TU computes in
// its tile can fall in another's edge loop, and the TUs then differ in
// low bits. kMr is fixed at 4 everywhere: it defines the row-split grid
// the parallel driver uses.
inline constexpr size_t kMr = 4;
#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX512F__)
inline constexpr size_t kNr = 16;  // two 8-lane vectors per tile row
#else
inline constexpr size_t kNr = 8;  // two 4-lane vectors (or scalar) per row
#endif

// The vector-typed tiles need their vectors to be a native ABI type, so
// each width is only compiled into TUs built with the matching ISA
// (passing them around without it draws -Wpsabi and would be emulated
// anyway). Each TU picks the widest tile its flags allow; other TUs keep
// the scalar tile: they are the fallback for pre-AVX2 hardware, where the
// cache blocking still pays but peak FLOPs are not the point.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX512F__)

// 4x16 tile out of 8-lane vectors: same shape as the AVX2 tile — two
// vector accumulators per row, eight independent FMA chains (enough to
// cover FMA latency on two ports) — just twice as wide. Per element the
// math is unchanged: one (possibly fused) multiply-add per k step, in
// ascending-k order — FMA rounds per lane, so lane grouping is invisible.
typedef double Vec8 __attribute__((vector_size(64)));

inline Vec8 LoadVec8(const double* p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec8(double* p, Vec8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline Vec8 Splat8(double x) { return Vec8{x, x, x, x, x, x, x, x}; }

inline void GemmTile(const double* a, size_t lda, const double* b,
                     size_t ldb, double* c, size_t ldc, size_t i, size_t j,
                     size_t k) {
  double* cr0 = c + (i + 0) * ldc + j;
  double* cr1 = c + (i + 1) * ldc + j;
  double* cr2 = c + (i + 2) * ldc + j;
  double* cr3 = c + (i + 3) * ldc + j;
  Vec8 c00 = LoadVec8(cr0), c01 = LoadVec8(cr0 + 8);
  Vec8 c10 = LoadVec8(cr1), c11 = LoadVec8(cr1 + 8);
  Vec8 c20 = LoadVec8(cr2), c21 = LoadVec8(cr2 + 8);
  Vec8 c30 = LoadVec8(cr3), c31 = LoadVec8(cr3 + 8);
  const double* a0 = a + (i + 0) * lda;
  const double* a1 = a + (i + 1) * lda;
  const double* a2 = a + (i + 2) * lda;
  const double* a3 = a + (i + 3) * lda;
  for (size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb + j;
    const Vec8 b0 = LoadVec8(bp);
    const Vec8 b1 = LoadVec8(bp + 8);
    const Vec8 w0 = Splat8(a0[p]);
    const Vec8 w1 = Splat8(a1[p]);
    const Vec8 w2 = Splat8(a2[p]);
    const Vec8 w3 = Splat8(a3[p]);
    c00 += w0 * b0;
    c01 += w0 * b1;
    c10 += w1 * b0;
    c11 += w1 * b1;
    c20 += w2 * b0;
    c21 += w2 * b1;
    c30 += w3 * b0;
    c31 += w3 * b1;
  }
  StoreVec8(cr0, c00);
  StoreVec8(cr0 + 8, c01);
  StoreVec8(cr1, c10);
  StoreVec8(cr1 + 8, c11);
  StoreVec8(cr2, c20);
  StoreVec8(cr2 + 8, c21);
  StoreVec8(cr3, c30);
  StoreVec8(cr3 + 8, c31);
}

#elif (defined(__GNUC__) || defined(__clang__)) && defined(__AVX__)

typedef double Vec4 __attribute__((vector_size(32)));

inline Vec4 LoadVec4(const double* p) {
  Vec4 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec4(double* p, Vec4 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline Vec4 Splat4(double x) { return Vec4{x, x, x, x}; }

inline void GemmTile(const double* a, size_t lda, const double* b,
                     size_t ldb, double* c, size_t ldc, size_t i, size_t j,
                     size_t k) {
  double* cr0 = c + (i + 0) * ldc + j;
  double* cr1 = c + (i + 1) * ldc + j;
  double* cr2 = c + (i + 2) * ldc + j;
  double* cr3 = c + (i + 3) * ldc + j;
  Vec4 c00 = LoadVec4(cr0), c01 = LoadVec4(cr0 + 4);
  Vec4 c10 = LoadVec4(cr1), c11 = LoadVec4(cr1 + 4);
  Vec4 c20 = LoadVec4(cr2), c21 = LoadVec4(cr2 + 4);
  Vec4 c30 = LoadVec4(cr3), c31 = LoadVec4(cr3 + 4);
  const double* a0 = a + (i + 0) * lda;
  const double* a1 = a + (i + 1) * lda;
  const double* a2 = a + (i + 2) * lda;
  const double* a3 = a + (i + 3) * lda;
  for (size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb + j;
    const Vec4 b0 = LoadVec4(bp);
    const Vec4 b1 = LoadVec4(bp + 4);
    const Vec4 w0 = Splat4(a0[p]);
    const Vec4 w1 = Splat4(a1[p]);
    const Vec4 w2 = Splat4(a2[p]);
    const Vec4 w3 = Splat4(a3[p]);
    c00 += w0 * b0;
    c01 += w0 * b1;
    c10 += w1 * b0;
    c11 += w1 * b1;
    c20 += w2 * b0;
    c21 += w2 * b1;
    c30 += w3 * b0;
    c31 += w3 * b1;
  }
  StoreVec4(cr0, c00);
  StoreVec4(cr0 + 4, c01);
  StoreVec4(cr1, c10);
  StoreVec4(cr1 + 4, c11);
  StoreVec4(cr2, c20);
  StoreVec4(cr2 + 4, c21);
  StoreVec4(cr3, c30);
  StoreVec4(cr3 + 4, c31);
}

#else  // scalar fallback: same tile, plain arrays

inline void GemmTile(const double* a, size_t lda, const double* b,
                     size_t ldb, double* c, size_t ldc, size_t i, size_t j,
                     size_t k) {
  double acc[kMr][kNr];
  for (size_t r = 0; r < kMr; ++r)
    for (size_t q = 0; q < kNr; ++q) acc[r][q] = c[(i + r) * ldc + j + q];
  for (size_t p = 0; p < k; ++p) {
    const double* bp = b + p * ldb + j;
    for (size_t r = 0; r < kMr; ++r) {
      const double w = a[(i + r) * lda + p];
      for (size_t q = 0; q < kNr; ++q) acc[r][q] += w * bp[q];
    }
  }
  for (size_t r = 0; r < kMr; ++r)
    for (size_t q = 0; q < kNr; ++q) c[(i + r) * ldc + j + q] = acc[r][q];
}

#endif

inline void GemmRowBlock(const double* a, size_t lda, const double* b,
                         size_t ldb, double* c, size_t ldc, size_t row0,
                         size_t row_end, size_t k, size_t n) {
  for (size_t i = row0; i < row_end; i += kMr) {
    const size_t mr = std::min(kMr, row_end - i);
    for (size_t j = 0; j < n; j += kNr) {
      const size_t nr = std::min(kNr, n - j);
      if (mr == kMr && nr == kNr) {
        GemmTile(a, lda, b, ldb, c, ldc, i, j, k);
      } else {
        // Edge tiles: ascending k per element, rounded as the compiler
        // schedules this loop, not necessarily like GemmTile.
        for (size_t r = 0; r < mr; ++r) {
          const double* ar = a + (i + r) * lda;
          double* cr = c + (i + r) * ldc + j;
          for (size_t q = 0; q < nr; ++q) {
            double s = cr[q];
            for (size_t p = 0; p < k; ++p) s += ar[p] * b[p * ldb + j + q];
            cr[q] = s;
          }
        }
      }
    }
  }
}

}  // namespace SUBREC_GEMM_NS
}  // namespace subrec::la::internal

#endif  // SUBREC_LA_GEMM_KERNEL_H_
