#ifndef SUBREC_LA_EXACT_KERNEL_H_
#define SUBREC_LA_EXACT_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subrec::la {

namespace internal {

/// One build of the bit-exact kernels: the ANN distance batch
/// (la/ann_kernel_impl.h) and the serve scoring kernel and its epilogue
/// (la/serve_rows_kernel.h), compiled together in one TU per ISA
/// (exact_kernel.cc: baseline; exact_kernel_avx2.cc: -mavx2;
/// exact_kernel_avx512.cc: -mavx512f).
///
/// Determinism contract: every TU is compiled with -ffp-contract=off and
/// never -mfma, because the oracle these kernels must match, la::Dot,
/// rounds its multiply and its add separately and a fused multiply-add
/// rounds once. (-ffp-contract=off matters even without -mfma: -mavx512f
/// alone enables FMA instructions and GCC contracts by default.) Every
/// output element accumulates its products from +0.0 in ascending order,
/// one separate multiply then add per step, and no dot product is split
/// across vector lanes, so every build writes identical bits and neither
/// HnswIndex distances nor served scores depend on the host CPU. The
/// vector width only changes how many candidates (ANN) or profile rows
/// (serve) advance per step.
struct ExactKernels {
  const char* name;
  /// out[i] = la::Dot(query, slab + nodes[i] * dim, dim), i < count.
  void (*dot_batch)(const double* query, const double* slab, size_t dim,
                    const int32_t* nodes, size_t count, double* out);
  /// See la::ServeScoreRows.
  void (*score_rows)(const double* profile_t, size_t m, const double* slab,
                     size_t k, const int32_t* ids, size_t count,
                     size_t readable, double* logits, size_t ld);
  /// See la::ServeSigmoidMeanColumns.
  void (*sigmoid_mean_columns)(const double* logits, size_t ld, size_t m,
                               size_t n, double denom, double* out);
};

/// The vector TUs' tables: null when the TU was built without its ISA
/// (any build but an x86-64 GNU/Clang one) or the running CPU lacks it.
const ExactKernels* ExactKernelsAvx2();
const ExactKernels* ExactKernelsAvx512();

/// Every build this process can run, generic first, widest last. The
/// public entry points below run the last one.
const std::vector<const ExactKernels*>& ExactKernelList();

}  // namespace internal

/// out[i] = inner product of `query` with row nodes[i] of the row-major
/// `slab` (row width `dim`), for i in [0, count); bit-identical to
/// la::Dot(query, slab + nodes[i] * dim, dim) on every ISA.
void AnnDotBatch(const double* query, const double* slab, size_t dim,
                 const int32_t* nodes, size_t count, double* out);

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
void ServeScoreRows(const double* profile_t, size_t m, const double* slab,
                    size_t k, const int32_t* ids, size_t count,
                    size_t readable, double* logits, size_t ld);

/// Fused scoring epilogue over one logit tile: for each column j,
///   out[j] = (sum over rows p ascending of ScoreSigmoid(logits[p][j]))
///            / denom,
/// the oracle's order, divided by `denom` (the profile size — division,
/// not reciprocal multiply, to match the oracle). m == 0 writes zeros.
void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out);

}  // namespace subrec::la

#endif  // SUBREC_LA_EXACT_KERNEL_H_
