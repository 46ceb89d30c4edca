#ifndef SUBREC_LA_ANN_KERNEL_IMPL_H_
#define SUBREC_LA_ANN_KERNEL_IMPL_H_

// Textual body of the ANN distance batch (la::AnnDotBatch), one of the
// exact kernels (la/exact_kernel.h), shared the same way as
// la/gemm_kernel.h. Each exact-kernel TU defines SUBREC_EXACT_NS to a
// unique namespace before including this header, then gets the identical
// source compiled under its own ISA flags — exact_kernel.cc: baseline;
// exact_kernel_avx2.cc: -mavx2; exact_kernel_avx512.cc: -mavx512f; all
// three with -ffp-contract=off and never -mfma.
//
// Layout: one CANDIDATE per vector lane. A group of L candidate rows is
// walked in ascending-d order, so each lane performs the exact
// separate-multiply-then-add sequence the scalar loop (la::Dot) performs
// for that candidate. Lane grouping never splits a single dot product
// across lanes — splitting would reorder the summation and change low
// bits. The vector width therefore only changes how many candidates
// advance per step, never any output element's value.
//
// The inner loop walks d in blocks of L: one contiguous vector load per
// candidate row, an L x L in-register transpose, then L
// broadcast-multiply-add steps in ascending d. The obvious alternative —
// gathering the d-th element of every row each step — issues L scalar
// loads plus inserts per multiply-add and measures SLOWER than the plain
// scalar loop (out-of-order cores already overlap independent scalar dot
// chains); the transpose form reaches the same element layout with wide
// loads and ~3 shuffles per multiply-add and is what actually beats it.
// Batches run the widest block that fits, then narrower ones: under
// AVX-512 a count-13 batch goes 8 + 4 + 1, so beam-search batches between
// 4 and 7 — common at M=16 — still vectorize instead of falling scalar.

#include <cstddef>
#include <cstdint>

#ifndef SUBREC_EXACT_NS
#error "define SUBREC_EXACT_NS before including la/ann_kernel_impl.h"
#endif

// Vec4 / Vec8 and their in-register Transpose, compiled into this TU's
// namespace.
#include "la/transpose_kernel.h"  // NOLINT(build/include)

namespace subrec::la::internal {
namespace SUBREC_EXACT_NS {

#if SUBREC_TRANSPOSE_VECTOR_OK

/// L candidates' inner products, one per lane, d ascending in blocks of L
/// with a scalar continuation for the dim % L tail. Each row block is one
/// unaligned vector load (a 32-byte __builtin_memcpy bounced through the
/// stack under GCC 12).
template <typename Vec, size_t L>
inline void DotBlock(const double* query, size_t dim,
                     const double* const* rows, double* out) {
  Vec acc = {};
  size_t d = 0;
  for (; d + L <= dim; d += L) {
    Vec r[L];
    for (size_t l = 0; l < L; ++l) LoadUnaligned(rows[l] + d, &r[l]);
    Vec t[L];
    Transpose(r, t);
    for (size_t j = 0; j < L; ++j) {
      Vec q = {};
      for (size_t l = 0; l < L; ++l) q[l] = query[d + j];
      acc += q * t[j];  // -ffp-contract=off: separate multiply, then add.
    }
  }
  for (size_t l = 0; l < L; ++l) {
    double a = acc[l];
    for (size_t dt = d; dt < dim; ++dt) a += query[dt] * rows[l][dt];
    out[l] = a;
  }
}

#endif  // SUBREC_TRANSPOSE_VECTOR_OK

/// One candidate's inner product, the oracle sequence itself: ascending-d,
/// separate multiply then add. Both the batch tail and the scalar TU use it.
inline double DotOne(const double* query, const double* row, size_t dim) {
  double acc = 0.0;
  for (size_t d = 0; d < dim; ++d) acc += query[d] * row[d];
  return acc;
}

inline void DotBatch(const double* query, const double* slab, size_t dim,
                     const int32_t* nodes, size_t count, double* out) {
  size_t i = 0;
#if SUBREC_TRANSPOSE_VECTOR_OK
#if defined(__AVX512F__)
  for (; i + 8 <= count; i += 8) {
    const double* rows[8];
    for (size_t l = 0; l < 8; ++l)
      rows[l] = slab + static_cast<size_t>(nodes[i + l]) * dim;
    // Touch the next block's rows while this one computes: the rows are
    // scattered across a slab far bigger than L2, so the first line of
    // each is a cache miss the hardware prefetcher can't predict. One
    // block of compute is enough slack to hide it.
    if (i + 16 <= count) {
      for (size_t l = 0; l < 8; ++l)
        __builtin_prefetch(slab + static_cast<size_t>(nodes[i + 8 + l]) * dim);
    }
    DotBlock<Vec8, 8>(query, dim, rows, out + i);
  }
#endif
  for (; i + 4 <= count; i += 4) {
    const double* rows[4];
    for (size_t l = 0; l < 4; ++l)
      rows[l] = slab + static_cast<size_t>(nodes[i + l]) * dim;
    if (i + 8 <= count) {
      for (size_t l = 0; l < 4; ++l)
        __builtin_prefetch(slab + static_cast<size_t>(nodes[i + 4 + l]) * dim);
    }
    DotBlock<Vec4, 4>(query, dim, rows, out + i);
  }
#endif
  for (; i < count; ++i)
    out[i] = DotOne(query, slab + static_cast<size_t>(nodes[i]) * dim, dim);
}

}  // namespace SUBREC_EXACT_NS
}  // namespace subrec::la::internal

#endif  // SUBREC_LA_ANN_KERNEL_IMPL_H_
