// Baseline serve-kernel TU plus the runtime dispatcher. Compiled with the
// project-wide flags and -ffp-contract=off (src/CMakeLists.txt): the serve
// kernels must never fuse a multiply-add, or the batched logits would
// diverge from the scalar per-pair oracle — see serve_kernel.h.

#include "la/serve_kernel.h"

#include <cstddef>
#include <cstdint>

#include "la/score_math.h"

#define SUBREC_GEMM_NS serve_generic
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

#define SUBREC_TRANSPOSE_NS gather_generic
#include "la/transpose_kernel.h"  // NOLINT(build/include)
#undef SUBREC_TRANSPOSE_NS

namespace subrec::la {
namespace internal {

void ServeGemmRowBlockGeneric(const double* a, size_t lda, const double* b,
                              size_t ldb, double* c, size_t ldc, size_t row0,
                              size_t row_end, size_t k, size_t n) {
  serve_generic::GemmRowBlock(a, lda, b, ldb, c, ldc, row0, row_end, k, n);
}

void ServeSigmoidMeanColumnsGeneric(const double* logits, size_t ld,
                                    size_t m, size_t n, double denom,
                                    double* out) {
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (size_t p = 0; p < m; ++p) {
    const double* row = logits + p * ld;
    for (size_t j = 0; j < n; ++j) out[j] += ScoreSigmoid(row[j]);
  }
  if (m == 0) return;
  for (size_t j = 0; j < n; ++j) out[j] /= denom;
}

void ServeGatherTransposeGeneric(const double* slab, size_t k,
                                 const int32_t* ids, size_t count,
                                 double* bt) {
  gather_generic::GatherTranspose(slab, k, ids, count, bt);
}

}  // namespace internal

namespace {

using GemmFn = void (*)(const double*, size_t, const double*, size_t,
                        double*, size_t, size_t, size_t, size_t, size_t);
using EpilogueFn = void (*)(const double*, size_t, size_t, size_t, double,
                            double*);
using GatherFn = void (*)(const double*, size_t, const int32_t*, size_t,
                          double*);

GemmFn PickGemm() {
  if (internal::ServeKernelAvx512Available())
    return internal::ServeGemmRowBlockAvx512;
  if (internal::ServeKernelAvx2Available())
    return internal::ServeGemmRowBlockAvx2;
  return internal::ServeGemmRowBlockGeneric;
}

EpilogueFn PickEpilogue() {
  if (internal::ServeKernelAvx512Available())
    return internal::ServeSigmoidMeanColumnsAvx512;
  if (internal::ServeKernelAvx2Available())
    return internal::ServeSigmoidMeanColumnsAvx2;
  return internal::ServeSigmoidMeanColumnsGeneric;
}

GatherFn PickGather() {
  if (internal::ServeKernelAvx2Available())
    return internal::ServeGatherTransposeAvx2;
  return internal::ServeGatherTransposeGeneric;
}

}  // namespace

void ServeGemm(const double* a, size_t lda, const double* b, size_t ldb,
               double* c, size_t ldc, size_t m, size_t k, size_t n) {
  static const GemmFn fn = PickGemm();
  for (size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    for (size_t j = 0; j < n; ++j) row[j] = 0.0;
  }
  fn(a, lda, b, ldb, c, ldc, 0, m, k, n);
}

void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out) {
  static const EpilogueFn fn = PickEpilogue();
  fn(logits, ld, m, n, denom, out);
}

void ServeGatherTranspose(const double* slab, size_t k, const int32_t* ids,
                          size_t count, double* bt) {
  static const GatherFn fn = PickGather();
  fn(slab, k, ids, count, bt);
}

}  // namespace subrec::la
