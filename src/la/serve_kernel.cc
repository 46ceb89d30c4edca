// Baseline serve-kernel TU plus the runtime dispatcher. Compiled with the
// project-wide flags and -ffp-contract=off (src/CMakeLists.txt): the serve
// kernels must never fuse a multiply-add, or the batched logits would
// diverge from the scalar per-pair oracle — see serve_kernel.h.

#include "la/serve_kernel.h"

#include <cstddef>
#include <cstdint>

#include "la/score_math.h"

#define SUBREC_SERVE_ROWS_NS serve_generic
#include "la/serve_rows_kernel.h"  // NOLINT(build/include)
#undef SUBREC_SERVE_ROWS_NS

namespace subrec::la {
namespace internal {

void ServeScoreRowsGeneric(const double* profile_t, size_t m,
                           const double* slab, size_t k, const int32_t* ids,
                           size_t count, size_t readable, double* logits,
                           size_t ld) {
  serve_generic::ScoreRows(profile_t, m, slab, k, ids, count, readable, logits,
                           ld);
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

}  // namespace internal

namespace {

using ScoreRowsFn = void (*)(const double*, size_t, const double*, size_t,
                             const int32_t*, size_t, size_t, double*, size_t);
using EpilogueFn = void (*)(const double*, size_t, size_t, size_t, double,
                            double*);

ScoreRowsFn PickScoreRows() {
  if (internal::ServeKernelAvx512Available())
    return internal::ServeScoreRowsAvx512;
  if (internal::ServeKernelAvx2Available())
    return internal::ServeScoreRowsAvx2;
  return internal::ServeScoreRowsGeneric;
}

EpilogueFn PickEpilogue() {
  if (internal::ServeKernelAvx512Available())
    return internal::ServeSigmoidMeanColumnsAvx512;
  if (internal::ServeKernelAvx2Available())
    return internal::ServeSigmoidMeanColumnsAvx2;
  return internal::ServeSigmoidMeanColumnsGeneric;
}

}  // namespace

void ServeScoreRows(const double* profile_t, size_t m, const double* slab,
                    size_t k, const int32_t* ids, size_t count,
                    size_t readable, double* logits, size_t ld) {
  static const ScoreRowsFn fn = PickScoreRows();
  fn(profile_t, m, slab, k, ids, count, readable, logits, ld);
}

void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out) {
  static const EpilogueFn fn = PickEpilogue();
  fn(logits, ld, m, n, denom, out);
}

}  // namespace subrec::la
