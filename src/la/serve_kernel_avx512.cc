// AVX-512F serve-kernel TU: compiled with -mavx512f -ffp-contract=off on
// x86-64 GNU/Clang builds (src/CMakeLists.txt) — note NO -mfma and
// contraction explicitly off: -mavx512f by itself enables 512-bit FMA
// instructions and GCC's default contraction mode would fuse the kernel's
// multiply-adds, silently breaking bit-equality with the scalar oracle.
// With contraction off this TU is bit-identical to the AVX2 and generic
// serve kernels; the 8-lane vectors only regroup profile rows. Anywhere
// else it degrades to the AVX2 kernel (which itself degrades to generic)
// and ServeKernelAvx512Available() reports false.

#include "la/serve_kernel.h"

#include <cstddef>
#include <cstdint>

#include "la/score_math.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX512F__)

#define SUBREC_SERVE_ROWS_NS serve_avx512
#include "la/serve_rows_kernel.h"  // NOLINT(build/include)
#undef SUBREC_SERVE_ROWS_NS

namespace subrec::la::internal {

void ServeScoreRowsAvx512(const double* profile_t, size_t m,
                          const double* slab, size_t k, const int32_t* ids,
                          size_t count, size_t readable, double* logits,
                          size_t ld) {
  serve_avx512::ScoreRows(profile_t, m, slab, k, ids, count, readable,
                          logits, ld);
}

void ServeSigmoidMeanColumnsAvx512(const double* logits, size_t ld, size_t m,
                                   size_t n, double denom, double* out) {
  // Same source as the generic epilogue: ScoreSigmoid is element-wise and
  // contraction is off, so auto-vectorization under -mavx512f (8-wide with
  // gathered table loads) cannot change any element's bits.
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (size_t p = 0; p < m; ++p) {
    const double* row = logits + p * ld;
    for (size_t j = 0; j < n; ++j) out[j] += ScoreSigmoid(row[j]);
  }
  if (m == 0) return;
  for (size_t j = 0; j < n; ++j) out[j] /= denom;
}

bool ServeKernelAvx512Available() {
  return __builtin_cpu_supports("avx512f");
}

}  // namespace subrec::la::internal

#else  // !__AVX512F__

namespace subrec::la::internal {

void ServeScoreRowsAvx512(const double* profile_t, size_t m,
                          const double* slab, size_t k, const int32_t* ids,
                          size_t count, size_t readable, double* logits,
                          size_t ld) {
  ServeScoreRowsAvx2(profile_t, m, slab, k, ids, count, readable, logits, ld);
}

void ServeSigmoidMeanColumnsAvx512(const double* logits, size_t ld, size_t m,
                                   size_t n, double denom, double* out) {
  ServeSigmoidMeanColumnsAvx2(logits, ld, m, n, denom, out);
}

bool ServeKernelAvx512Available() { return false; }

}  // namespace subrec::la::internal

#endif
