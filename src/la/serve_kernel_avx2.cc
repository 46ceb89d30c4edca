// AVX2 serve-kernel TU: compiled with -mavx2 -ffp-contract=off on x86-64
// GNU/Clang builds (src/CMakeLists.txt) — note NO -mfma, unlike
// gemm_avx2.cc. With contraction off every multiply and add rounds
// separately in ascending-k order, so this TU is bit-identical to the
// generic serve kernel and to the scalar la::Dot oracle; the wider
// vectors only regroup lanes. Anywhere else it degrades to the generic
// kernel and ServeKernelAvx2Available() reports false.

#include "la/serve_kernel.h"

#include <cstddef>
#include <cstdint>

#include "la/score_math.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX2__)

#define SUBREC_GEMM_NS serve_avx2
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

#define SUBREC_TRANSPOSE_NS gather_avx2
#include "la/transpose_kernel.h"  // NOLINT(build/include)
#undef SUBREC_TRANSPOSE_NS

namespace subrec::la::internal {

void ServeGemmRowBlockAvx2(const double* a, size_t lda, const double* b,
                           size_t ldb, double* c, size_t ldc, size_t row0,
                           size_t row_end, size_t k, size_t n) {
  serve_avx2::GemmRowBlock(a, lda, b, ldb, c, ldc, row0, row_end, k, n);
}

void ServeSigmoidMeanColumnsAvx2(const double* logits, size_t ld, size_t m,
                                 size_t n, double denom, double* out) {
  // Same source as the generic epilogue: ScoreSigmoid is element-wise and
  // contraction is off, so auto-vectorization under -mavx2 cannot change
  // any element's bits — only how many columns are processed per iteration.
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (size_t p = 0; p < m; ++p) {
    const double* row = logits + p * ld;
    for (size_t j = 0; j < n; ++j) out[j] += ScoreSigmoid(row[j]);
  }
  if (m == 0) return;
  for (size_t j = 0; j < n; ++j) out[j] /= denom;
}

void ServeGatherTransposeAvx2(const double* slab, size_t k,
                              const int32_t* ids, size_t count, double* bt) {
  gather_avx2::GatherTranspose(slab, k, ids, count, bt);
}

bool ServeKernelAvx2Available() { return __builtin_cpu_supports("avx2"); }

}  // namespace subrec::la::internal

#else  // !__AVX2__

namespace subrec::la::internal {

void ServeGemmRowBlockAvx2(const double* a, size_t lda, const double* b,
                           size_t ldb, double* c, size_t ldc, size_t row0,
                           size_t row_end, size_t k, size_t n) {
  ServeGemmRowBlockGeneric(a, lda, b, ldb, c, ldc, row0, row_end, k, n);
}

void ServeSigmoidMeanColumnsAvx2(const double* logits, size_t ld, size_t m,
                                 size_t n, double denom, double* out) {
  ServeSigmoidMeanColumnsGeneric(logits, ld, m, n, denom, out);
}

void ServeGatherTransposeAvx2(const double* slab, size_t k,
                              const int32_t* ids, size_t count, double* bt) {
  ServeGatherTransposeGeneric(slab, k, ids, count, bt);
}

bool ServeKernelAvx2Available() { return false; }

}  // namespace subrec::la::internal

#endif
