// AVX-512F exact-kernel TU: compiled with -mavx512f -ffp-contract=off on
// x86-64 GNU/Clang builds (src/CMakeLists.txt). -mavx512f alone enables
// FMA instructions and GCC contracts by default, so pinning contraction
// off is what keeps this TU on the generic TU's bits (la/exact_kernel.h).
// Anywhere else it has no kernels and ExactKernelsAvx512() returns null.

#include "la/exact_kernel.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX512F__)

#define SUBREC_EXACT_NS exact_avx512
#include "la/ann_kernel_impl.h"    // NOLINT(build/include)
#include "la/serve_rows_kernel.h"  // NOLINT(build/include)
#undef SUBREC_EXACT_NS

namespace subrec::la::internal {

const ExactKernels* ExactKernelsAvx512() {
  static constexpr ExactKernels kAvx512 = {
      "avx512", exact_avx512::DotBatch, exact_avx512::ScoreRows,
      exact_avx512::SigmoidMeanColumns};
  return __builtin_cpu_supports("avx512f") ? &kAvx512 : nullptr;
}

}  // namespace subrec::la::internal

#else  // !__AVX512F__

namespace subrec::la::internal {

const ExactKernels* ExactKernelsAvx512() { return nullptr; }

}  // namespace subrec::la::internal

#endif
