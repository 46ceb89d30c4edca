#ifndef SUBREC_LA_GEMM_H_
#define SUBREC_LA_GEMM_H_

#include <cstddef>
#include <vector>

namespace subrec::la::internal {

/// Row height of the register tile; row-range parallel splits are made in
/// units of kGemmMr rows so the tile grid is a function of the matrix
/// shape alone (never of the thread count).
inline constexpr size_t kGemmMr = 4;

/// Accumulates C[row0..row_end) += A * B on row-major buffers with leading
/// dimensions lda/ldb/ldc (A is m x k, B is k x n, C is m x n); row0 is a
/// multiple of kGemmMr. Each C(i,j) accumulates its k products in
/// ascending-k order, in a full register tile or in an edge loop chosen
/// by (i, j) and the shape alone, so one build gives identical bits for
/// any kGemmMr-aligned row split (any thread count).
///
/// The builds are the same source compiled for different ISAs: the
/// generic one with the project-wide baseline flags, the AVX2 one with
/// -mavx2 -mfma, the AVX-512 one with -mavx512f -mfma. They do NOT agree
/// bit for bit: the FMA builds fuse the tile's multiply-adds where the
/// generic build rounds twice, their tiles are 8 and 16 columns wide, so
/// a column can sit in a tile in one build and in the edge loop in
/// another, and the edge loop need not round like the tile. So the low
/// bits of a product at or above la/ops.cc's blocked cutoff depend on the
/// host's ISA (smaller products run fixed scalar loops); every build
/// stays within la_test's 1e-9 of the naive product.
using GemmRowRangeFn = void (*)(const double* a, size_t lda, const double* b,
                                size_t ldb, double* c, size_t ldc,
                                size_t row0, size_t row_end, size_t k,
                                size_t n);

/// The FMA TUs' kernels: null when the TU was built without its ISA (any
/// build but an x86-64 GNU/Clang one) or the running CPU lacks it or FMA.
GemmRowRangeFn GemmKernelAvx2();
GemmRowRangeFn GemmKernelAvx512();

/// Every GEMM build this process can run, generic first, widest last.
const std::vector<GemmRowRangeFn>& GemmKernelList();

}  // namespace subrec::la::internal

#endif  // SUBREC_LA_GEMM_H_
