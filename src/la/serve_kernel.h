#ifndef SUBREC_LA_SERVE_KERNEL_H_
#define SUBREC_LA_SERVE_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace subrec::la {

namespace internal {

/// The serve scoring kernel (la/serve_rows_kernel.h), one copy per serve
/// TU, each compiled WITHOUT -mfma and with -ffp-contract=off. Training
/// wants FMA throughput; serving wants bit-equality against the scalar
/// per-pair oracle (la::Dot), whose multiply and add round separately — a
/// fused multiply-add rounds once and produces different low bits. Without
/// contraction every logit accumulates its k products as a separate
/// multiply then add, in ascending-k order from +0.0: exactly la::Dot's
/// sequence, so the batched logits match the pairwise logits bit for bit
/// on every ISA. (-ffp-contract=off matters even without -mfma: -mavx512f
/// alone enables FMA instructions and GCC contracts by default.) The
/// AVX-512 TU scores 8 candidates x 8 profile rows per block, the AVX2 TU
/// 4 x 8, the generic TU one pair at a time.
void ServeScoreRowsGeneric(const double* profile_t, size_t m,
                           const double* slab, size_t k, const int32_t* ids,
                           size_t count, size_t readable, double* logits,
                           size_t ld);
void ServeScoreRowsAvx2(const double* profile_t, size_t m,
                        const double* slab, size_t k, const int32_t* ids,
                        size_t count, size_t readable, double* logits,
                        size_t ld);
void ServeScoreRowsAvx512(const double* profile_t, size_t m,
                          const double* slab, size_t k, const int32_t* ids,
                          size_t count, size_t readable, double* logits,
                          size_t ld);

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

/// True when the AVX2 serve TU was compiled with -mavx2 AND the running
/// CPU reports it (no FMA requirement: the serve kernels never fuse).
bool ServeKernelAvx2Available();

/// Same contract for the AVX-512F serve TU.
bool ServeKernelAvx512Available();

}  // namespace internal

/// Row stride of the packed, transposed profile ServeScoreRows reads: m
/// rounded up to a multiple of 8, the widest lane block any kernel uses.
constexpr size_t ServeProfileStride(size_t m) { return (m + 7) / 8 * 8; }

/// The serve scorer's logit block, read from the candidate rows in place:
///   logits[p * ld + j] = la::Dot(profile row p, slab row ids[j])
/// for p < m and j < count, bit for bit. `profile_t` holds the m profile
/// rows transposed, profile_t[d * ServeProfileStride(m) + p], with every
/// padding lane p >= m zero; `slab` is row-major with row width k. Only
/// the m x count logits are written (ld >= count). Rows ids[count,
/// readable) are prefetched but not scored, so a caller scoring one tile
/// of a longer id list passes the whole rest of the list as `readable`.
/// Dispatches once per process to the widest serve kernel the CPU
/// supports; every kernel writes identical bits.
void ServeScoreRows(const double* profile_t, size_t m, const double* slab,
                    size_t k, const int32_t* ids, size_t count,
                    size_t readable, double* logits, size_t ld);

/// Scoring epilogue (see ServeSigmoidMeanColumns* above): column means of
/// the sigmoid-squashed logit tile, profile rows accumulated in ascending
/// order, divided by `denom` (the profile size — division, not reciprocal
/// multiply, to match the oracle). m == 0 writes zeros.
void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out);

}  // namespace subrec::la

#endif  // SUBREC_LA_SERVE_KERNEL_H_
