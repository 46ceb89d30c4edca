#ifndef SUBREC_LA_SERVE_KERNEL_H_
#define SUBREC_LA_SERVE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace subrec::la {

namespace internal {

/// The serving-path GEMM: the same textual kernel as la/gemm.cc
/// (la/gemm_kernel.h), but compiled WITHOUT -mfma and with
/// -ffp-contract=off in every serve TU. Training wants FMA throughput;
/// serving wants bit-equality against the scalar per-pair oracle
/// (la::Dot), whose multiply and add round separately — a fused
/// multiply-add rounds once and produces different low bits. Without
/// contraction every C(i,j) element accumulates its k products as a
/// separate multiply then add, in ascending-k order: exactly la::Dot's
/// sequence, so the batched logits match the pairwise logits bit for bit
/// on every ISA. (-ffp-contract=off matters even without -mfma: -mavx512f
/// alone enables FMA instructions and GCC contracts by default.)
void ServeGemmRowBlockGeneric(const double* a, size_t lda, const double* b,
                              size_t ldb, double* c, size_t ldc, size_t row0,
                              size_t row_end, size_t k, size_t n);
void ServeGemmRowBlockAvx2(const double* a, size_t lda, const double* b,
                           size_t ldb, double* c, size_t ldc, size_t row0,
                           size_t row_end, size_t k, size_t n);
void ServeGemmRowBlockAvx512(const double* a, size_t lda, const double* b,
                             size_t ldb, double* c, size_t ldc, size_t row0,
                             size_t row_end, size_t k, size_t n);

/// Fused scoring epilogue over one logit tile: for each column j,
///   out[j] = (sum over rows p ascending of ScoreSigmoid(logits[p][j]))
///            / denom.
/// The profile sum runs in ascending-p order per column — the oracle's
/// order — and the sigmoid is la::ScoreSigmoid, a branch-free per-element
/// sequence, so the compiler may vectorize across columns (it does, with
/// gathers for the exp table) without changing any element's bits.
void ServeSigmoidMeanColumnsGeneric(const double* logits, size_t ld,
                                    size_t m, size_t n, double denom,
                                    double* out);
void ServeSigmoidMeanColumnsAvx2(const double* logits, size_t ld, size_t m,
                                 size_t n, double denom, double* out);
void ServeSigmoidMeanColumnsAvx512(const double* logits, size_t ld, size_t m,
                                   size_t n, double denom, double* out);

/// Candidate gather (see ServeGatherTranspose below). The AVX2 TU copies
/// blocks of 4 rows through an in-register transpose
/// (la/transpose_kernel.h) and serves AVX-512 hosts too; the generic TU
/// copies one double at a time.
void ServeGatherTransposeGeneric(const double* slab, size_t k,
                                 const int32_t* ids, size_t count,
                                 double* bt);
void ServeGatherTransposeAvx2(const double* slab, size_t k,
                              const int32_t* ids, size_t count, double* bt);

/// True when the AVX2 serve TU was compiled with -mavx2 AND the running
/// CPU reports it (no FMA requirement: the serve kernels never fuse).
bool ServeKernelAvx2Available();

/// Same contract for the AVX-512F serve TU.
bool ServeKernelAvx512Available();

}  // namespace internal

/// C (m x n, leading dim ldc) = A (m x k, lda) * B (k x n, ldb), zeroing C
/// first. Row-major raw buffers; dispatches once per process to the widest
/// serve kernel the CPU supports. Bit-exact against computing each C(i,j)
/// as la::Dot of A's row i and B's column j, on every ISA.
void ServeGemm(const double* a, size_t lda, const double* b, size_t ldb,
               double* c, size_t ldc, size_t m, size_t k, size_t n);

/// Scoring epilogue (see ServeSigmoidMeanColumns* above): column means of
/// the sigmoid-squashed logit tile, profile rows accumulated in ascending
/// order, divided by `denom` (the profile size — division, not reciprocal
/// multiply, to match the oracle). m == 0 writes zeros.
void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out);

/// Gathers `count` rows of the row-major slab (row width k) into a
/// transposed tile: bt[d * count + i] = slab[ids[i] * k + d]. Dispatched
/// for speed only (the AVX2 kernel on AVX2 and AVX-512 hosts, the generic
/// one elsewhere): the gather is pure data movement, so every kernel
/// writes identical bits. k == 0 reads and writes nothing.
void ServeGatherTranspose(const double* slab, size_t k, const int32_t* ids,
                          size_t count, double* bt);

}  // namespace subrec::la

#endif  // SUBREC_LA_SERVE_KERNEL_H_
