#include "la/gemm.h"

#include <cstddef>
#include <vector>

#define SUBREC_GEMM_NS gemm_generic
#include "la/gemm_kernel.h"  // NOLINT(build/include)
#undef SUBREC_GEMM_NS

namespace subrec::la::internal {

const std::vector<GemmRowRangeFn>& GemmKernelList() {
  static const std::vector<GemmRowRangeFn> list = [] {
    std::vector<GemmRowRangeFn> kernels = {gemm_generic::GemmRowBlock};
    for (GemmRowRangeFn fn : {GemmKernelAvx2(), GemmKernelAvx512()})
      if (fn != nullptr) kernels.push_back(fn);
    return kernels;
  }();
  return list;
}

}  // namespace subrec::la::internal
