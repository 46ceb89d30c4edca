// Compiled with -mavx2 -mfma on x86-64 GNU/Clang builds (see
// src/CMakeLists.txt); anywhere else it has no kernel and
// GemmKernelAvx2() returns null.

#include "la/gemm.h"

#if defined(__AVX2__) && defined(__FMA__)

#define SUBREC_GEMM_NS gemm_avx2
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

namespace subrec::la::internal {

GemmRowRangeFn GemmKernelAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? gemm_avx2::GemmRowBlock
             : nullptr;
}

}  // namespace subrec::la::internal

#else  // !(__AVX2__ && __FMA__)

namespace subrec::la::internal {

GemmRowRangeFn GemmKernelAvx2() { return nullptr; }

}  // namespace subrec::la::internal

#endif
