#ifndef SUBREC_LA_TRANSPOSE_KERNEL_H_
#define SUBREC_LA_TRANSPOSE_KERNEL_H_

// Textual lane-transpose kernels shared by the per-ISA ANN distance TUs
// (through la/ann_kernel_impl.h) and the serve TUs (through
// la/serve_rows_kernel.h), the same scheme as la/gemm_kernel.h. Each
// includer defines SUBREC_TRANSPOSE_NS to a unique namespace first, so
// every TU compiles its own copy under its own ISA flags and no inline
// definition is shared across TUs built for different ISAs.
//
// Everything here is a lane permutation or a copy — no arithmetic, so no
// rounding anywhere, and every ISA moves identical bits.

#include <cstddef>

#ifndef SUBREC_TRANSPOSE_NS
#error "define SUBREC_TRANSPOSE_NS before including la/transpose_kernel.h"
#endif

// __builtin_shufflevector: clang always; GCC since 12. Without it there is
// no portable lane permute, so the whole vector path falls away.
#if (defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 12)) && \
    defined(__AVX__)
#define SUBREC_TRANSPOSE_VECTOR_OK 1
#else
#define SUBREC_TRANSPOSE_VECTOR_OK 0
#endif

namespace subrec::la::internal {
namespace SUBREC_TRANSPOSE_NS {

#if SUBREC_TRANSPOSE_VECTOR_OK

typedef double Vec4 __attribute__((vector_size(32)));

/// 4x4 transpose so t[c][l] = r[l][c]: two butterfly stages, 8 shuffles.
inline void Transpose(const Vec4* r, Vec4* t) {
  const Vec4 a0 = __builtin_shufflevector(r[0], r[1], 0, 4, 2, 6);
  const Vec4 a1 = __builtin_shufflevector(r[0], r[1], 1, 5, 3, 7);
  const Vec4 a2 = __builtin_shufflevector(r[2], r[3], 0, 4, 2, 6);
  const Vec4 a3 = __builtin_shufflevector(r[2], r[3], 1, 5, 3, 7);
  t[0] = __builtin_shufflevector(a0, a2, 0, 1, 4, 5);
  t[1] = __builtin_shufflevector(a1, a3, 0, 1, 4, 5);
  t[2] = __builtin_shufflevector(a0, a2, 2, 3, 6, 7);
  t[3] = __builtin_shufflevector(a1, a3, 2, 3, 6, 7);
}

#if defined(__AVX512F__)

typedef double Vec8 __attribute__((vector_size(64)));
/// Vec8's may-alias, 8-byte-aligned twin (see Vec4Unaligned).
typedef double Vec8Unaligned
    __attribute__((vector_size(64), aligned(8), may_alias));

/// One unaligned vmovupd of p[0..7], and its store twin.
inline void LoadUnaligned(const double* p, Vec8* out) {
  *out = *reinterpret_cast<const Vec8Unaligned*>(p);
}
inline void StoreUnaligned(const Vec8& v, double* p) {
  *reinterpret_cast<Vec8Unaligned*>(p) = v;
}

/// 8x8 transpose: three butterfly stages, 24 shuffles.
inline void Transpose(const Vec8* r, Vec8* t) {
  const Vec8 a0 = __builtin_shufflevector(r[0], r[1], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a1 = __builtin_shufflevector(r[0], r[1], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a2 = __builtin_shufflevector(r[2], r[3], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a3 = __builtin_shufflevector(r[2], r[3], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a4 = __builtin_shufflevector(r[4], r[5], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a5 = __builtin_shufflevector(r[4], r[5], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a6 = __builtin_shufflevector(r[6], r[7], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a7 = __builtin_shufflevector(r[6], r[7], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 b0 = __builtin_shufflevector(a0, a2, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b1 = __builtin_shufflevector(a1, a3, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b2 = __builtin_shufflevector(a0, a2, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b3 = __builtin_shufflevector(a1, a3, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b4 = __builtin_shufflevector(a4, a6, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b5 = __builtin_shufflevector(a5, a7, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b6 = __builtin_shufflevector(a4, a6, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b7 = __builtin_shufflevector(a5, a7, 2, 3, 10, 11, 6, 7, 14, 15);
  t[0] = __builtin_shufflevector(b0, b4, 0, 1, 2, 3, 8, 9, 10, 11);
  t[1] = __builtin_shufflevector(b1, b5, 0, 1, 2, 3, 8, 9, 10, 11);
  t[2] = __builtin_shufflevector(b2, b6, 0, 1, 2, 3, 8, 9, 10, 11);
  t[3] = __builtin_shufflevector(b3, b7, 0, 1, 2, 3, 8, 9, 10, 11);
  t[4] = __builtin_shufflevector(b0, b4, 4, 5, 6, 7, 12, 13, 14, 15);
  t[5] = __builtin_shufflevector(b1, b5, 4, 5, 6, 7, 12, 13, 14, 15);
  t[6] = __builtin_shufflevector(b2, b6, 4, 5, 6, 7, 12, 13, 14, 15);
  t[7] = __builtin_shufflevector(b3, b7, 4, 5, 6, 7, 12, 13, 14, 15);
}

#endif  // __AVX512F__

/// Unaligned Vec4 load and store through a may-alias, 8-byte-aligned twin
/// of Vec4 — how <immintrin.h> spells __m256d_u — so each is one vmovupd.
/// (GCC 12's generic tuning expands a 32-byte __builtin_memcpy into two
/// 16-byte moves through the stack, and a 32-byte reload of that stack
/// slot then stalls on store forwarding: a candidate gather written with
/// memcpy ran slower than its scalar loop.) Name a twin directly at each
/// access: passed as a template argument, GCC drops its attributes and the
/// access silently becomes an aligned one.
typedef double Vec4Unaligned
    __attribute__((vector_size(32), aligned(8), may_alias));

/// One unaligned vmovupd of p[0..3], and its store twin.
inline void LoadUnaligned(const double* p, Vec4* out) {
  *out = *reinterpret_cast<const Vec4Unaligned*>(p);
}
inline void StoreUnaligned(const Vec4& v, double* p) {
  *reinterpret_cast<Vec4Unaligned*>(p) = v;
}

#endif  // SUBREC_TRANSPOSE_VECTOR_OK

}  // namespace SUBREC_TRANSPOSE_NS
}  // namespace subrec::la::internal

#endif  // SUBREC_LA_TRANSPOSE_KERNEL_H_
