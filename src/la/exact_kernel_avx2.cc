// AVX2 exact-kernel TU: compiled with -mavx2 -ffp-contract=off on x86-64
// GNU/Clang builds (src/CMakeLists.txt), never -mfma, so it writes the
// generic TU's bits (la/exact_kernel.h). Anywhere else it has no kernels
// and ExactKernelsAvx2() returns null.

#include "la/exact_kernel.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__AVX2__)

#define SUBREC_EXACT_NS exact_avx2
#include "la/ann_kernel_impl.h"    // NOLINT(build/include)
#include "la/serve_rows_kernel.h"  // NOLINT(build/include)
#undef SUBREC_EXACT_NS

namespace subrec::la::internal {

const ExactKernels* ExactKernelsAvx2() {
  static constexpr ExactKernels kAvx2 = {"avx2", exact_avx2::DotBatch,
                                         exact_avx2::ScoreRows,
                                         exact_avx2::SigmoidMeanColumns};
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

}  // namespace subrec::la::internal

#else  // !__AVX2__

namespace subrec::la::internal {

const ExactKernels* ExactKernelsAvx2() { return nullptr; }

}  // namespace subrec::la::internal

#endif
