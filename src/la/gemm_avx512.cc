// Compiled with -mavx512f -mfma on x86-64 GNU/Clang builds (see
// src/CMakeLists.txt); anywhere else it has no kernel and
// GemmKernelAvx512() returns null. Its 4x16 tile is twice the AVX2
// tile's width, so columns the AVX2 build computes in a fused tile can
// land in this build's edge loop: the two builds differ in low bits
// (la/gemm.h).

#include "la/gemm.h"

#if defined(__AVX512F__) && defined(__FMA__)

#define SUBREC_GEMM_NS gemm_avx512
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

namespace subrec::la::internal {

GemmRowRangeFn GemmKernelAvx512() {
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")
             ? gemm_avx512::GemmRowBlock
             : nullptr;
}

}  // namespace subrec::la::internal

#else  // !(__AVX512F__ && __FMA__)

namespace subrec::la::internal {

GemmRowRangeFn GemmKernelAvx512() { return nullptr; }

}  // namespace subrec::la::internal

#endif
