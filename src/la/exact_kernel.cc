// Baseline exact-kernel TU, the kernel list and the public entry points.
// Compiled with -ffp-contract=off (src/CMakeLists.txt) like the vector
// TUs, so no default-flag change can re-enable fusion here: the batched
// distances and logits must stay bit-identical to la::Dot — see
// la/exact_kernel.h.

#include "la/exact_kernel.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#define SUBREC_EXACT_NS exact_generic
#include "la/ann_kernel_impl.h"    // NOLINT(build/include)
#include "la/serve_rows_kernel.h"  // NOLINT(build/include)
#undef SUBREC_EXACT_NS

namespace subrec::la {
namespace internal {

const std::vector<const ExactKernels*>& ExactKernelList() {
  static constexpr ExactKernels kGeneric = {
      "generic", exact_generic::DotBatch, exact_generic::ScoreRows,
      exact_generic::SigmoidMeanColumns};
  static const std::vector<const ExactKernels*> list = [] {
    std::vector<const ExactKernels*> kernels = {&kGeneric};
    for (const ExactKernels* k : {ExactKernelsAvx2(), ExactKernelsAvx512()})
      if (k != nullptr) kernels.push_back(k);
    return kernels;
  }();
  return list;
}

}  // namespace internal

void AnnDotBatch(const double* query, const double* slab, size_t dim,
                 const int32_t* nodes, size_t count, double* out) {
  static const auto fn = internal::ExactKernelList().back()->dot_batch;
  fn(query, slab, dim, nodes, count, out);
}

void ServeScoreRows(const double* profile_t, size_t m, const double* slab,
                    size_t k, const int32_t* ids, size_t count,
                    size_t readable, double* logits, size_t ld) {
  static const auto fn = internal::ExactKernelList().back()->score_rows;
  fn(profile_t, m, slab, k, ids, count, readable, logits, ld);
}

void ServeSigmoidMeanColumns(const double* logits, size_t ld, size_t m,
                             size_t n, double denom, double* out) {
  static const auto fn =
      internal::ExactKernelList().back()->sigmoid_mean_columns;
  fn(logits, ld, m, n, denom, out);
}

}  // namespace subrec::la
