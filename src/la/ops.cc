#include "la/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/gemm.h"
#include "par/parallel.h"

namespace subrec::la {
namespace {

// Size routing for the three matmul entry points, in units of m*n*k.
// Below kGemmBlockedMinWork the original scalar loops run — the autodiff
// tapes issue thousands of tiny products and those must stay bit-identical
// to the seed code (and free of dispatch overhead). At or above it the
// register-tiled kernel takes over, and from kGemmParallelMinWork the row
// blocks are spread over the par runtime. Chunk grain is derived from the
// problem shape only, so the split is the same for every thread count.
constexpr size_t kGemmBlockedMinWork = size_t{32} * 1024;
constexpr size_t kGemmParallelMinWork = size_t{1} << 21;
constexpr size_t kGemmChunkWork = size_t{1} << 18;

// Blocked path body shared by MatMul and the transposed wrappers. `c` must
// be zero-initialized; all dims are >= 1 here (work >= kGemmBlockedMinWork).
void BlockedGemm(const Matrix& a, const Matrix& b, Matrix* c) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  const size_t work = m * n * k;
  // Widest kernel the host supports. Each gives the same bits for every
  // thread count, but the builds differ from each other in low bits, so a
  // blocked product depends on the host's ISA; see la/gemm.h.
  static const internal::GemmRowRangeFn fn = internal::GemmKernelList().back();
  const size_t blocks = (m + internal::kGemmMr - 1) / internal::kGemmMr;
  size_t grain = blocks;  // single chunk -> runs inline on the caller
  if (work >= kGemmParallelMinWork) {
    const size_t block_work = internal::kGemmMr * n * k;
    grain = std::clamp<size_t>(kGemmChunkWork / std::max<size_t>(block_work, 1),
                               1, blocks);
  }
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c->data();
  par::ParallelFor(blocks, grain, [&](size_t b0, size_t b1) {
    fn(pa, k, pb, n, pc, n, b0 * internal::kGemmMr,
       std::min(m, b1 * internal::kGemmMr), k, n);
  });
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  out->ResizeZero(a.rows(), b.cols());
  if (a.rows() * a.cols() * b.cols() >= kGemmBlockedMinWork) {
    BlockedGemm(a, b, out);
    return;
  }
  // ikj loop order: streams over b and c rows for cache friendliness.
  for (size_t i = 0; i < a.rows(); ++i) {
    double* crow = out->row_data(i);
    const double* arow = a.row_data(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row_data(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

namespace {

// Per-thread buffer for the transposed copy the blocked branches feed the
// streaming kernel. The matrices involved are often right at the allocator's
// mmap threshold (128 x 128 doubles = 128 KiB), where a fresh allocation per
// call means mmap/munmap plus page faults; reusing one slab per thread makes
// the transpose pure memory traffic. Contents are fully overwritten each
// call, so results are unchanged.
Matrix& TransposeScratch() {
  static thread_local Matrix scratch;
  return scratch;
}

}  // namespace

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK_EQ(a.rows(), b.rows()) << "MatMulTransA shape mismatch";
  if (a.rows() * a.cols() * b.cols() >= kGemmBlockedMinWork) {
    // One cheap O(k*m) transpose buys the blocked kernel's row layout.
    Matrix& at = TransposeScratch();
    TransposeInto(a, &at);
    MatMulInto(at, b, out);
    return;
  }
  out->ResizeZero(a.cols(), b.cols());
  for (size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.row_data(k);
    const double* brow = b.row_data(k);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = out->row_data(i);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransAInto(a, b, &c);
  return c;
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransB shape mismatch";
  if (a.rows() * a.cols() * b.rows() >= kGemmBlockedMinWork) {
    // The dot-product form below defeats vectorization (FP reductions
    // can't be reassociated); transposing B recovers the streaming kernel.
    Matrix& bt = TransposeScratch();
    TransposeInto(b, &bt);
    MatMulInto(a, bt, out);
    return;
  }
  out->ResizeZero(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* crow = out->row_data(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.row_data(j);
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      crow[j] = acc;
    }
  }
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTransBInto(a, b, &c);
  return c;
}

void TransposeInto(const Matrix& a, Matrix* out) {
  // Every entry is written below, so skip ResizeZero's memset. Blocking
  // keeps the column-strided writes inside a cache-resident tile; element
  // order is irrelevant for pure moves, so results are unchanged.
  out->ResizeOverwrite(a.cols(), a.rows());
  constexpr size_t kB = 32;
  const size_t m = a.rows();
  const size_t n = a.cols();
  for (size_t ib = 0; ib < m; ib += kB) {
    const size_t ie = std::min(m, ib + kB);
    for (size_t jb = 0; jb < n; jb += kB) {
      const size_t je = std::min(n, jb + kB);
      for (size_t i = ib; i < ie; ++i) {
        const double* ar = a.row_data(i);
        for (size_t j = jb; j < je; ++j) (*out)(j, i) = ar[j];
      }
    }
  }
}

Matrix Transpose(const Matrix& a) {
  Matrix t;
  TransposeInto(a, &t);
  return t;
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK(a.SameShape(b));
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] += b[i];
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix c;
  AddInto(a, b, &c);
  return c;
}

void SubInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK(a.SameShape(b));
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] -= b[i];
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix c;
  SubInto(a, b, &c);
  return c;
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out) {
  SUBREC_CHECK(a.SameShape(b));
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] *= b[i];
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  Matrix c;
  HadamardInto(a, b, &c);
  return c;
}

void Axpy(double alpha, const Matrix& b, Matrix& a) {
  SUBREC_CHECK(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) a[i] += alpha * b[i];
}

void ScaleInto(const Matrix& a, double alpha, Matrix* out) {
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] *= alpha;
}

Matrix Scale(const Matrix& a, double alpha) {
  Matrix c;
  ScaleInto(a, alpha, &c);
  return c;
}

void AddRowBroadcastInto(const Matrix& a, const Matrix& bias, Matrix* out) {
  SUBREC_CHECK_EQ(bias.rows(), 1u);
  SUBREC_CHECK_EQ(bias.cols(), a.cols());
  out->CopyFrom(a);
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) (*out)(i, j) += bias(0, j);
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias) {
  Matrix c;
  AddRowBroadcastInto(a, bias, &c);
  return c;
}

void TanhInto(const Matrix& a, Matrix* out) {
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i) (*out)[i] = std::tanh((*out)[i]);
}

Matrix Tanh(const Matrix& a) {
  Matrix c;
  TanhInto(a, &c);
  return c;
}

void SigmoidInto(const Matrix& a, Matrix* out) {
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i)
    (*out)[i] = 1.0 / (1.0 + std::exp(-(*out)[i]));
}

Matrix Sigmoid(const Matrix& a) {
  Matrix c;
  SigmoidInto(a, &c);
  return c;
}

void ReluInto(const Matrix& a, Matrix* out) {
  out->CopyFrom(a);
  for (size_t i = 0; i < out->size(); ++i)
    (*out)[i] = (*out)[i] > 0.0 ? (*out)[i] : 0.0;
}

Matrix Relu(const Matrix& a) {
  Matrix c;
  ReluInto(a, &c);
  return c;
}

Matrix Exp(const Matrix& a) {
  Matrix c = a;
  for (size_t i = 0; i < c.size(); ++i) c[i] = std::exp(c[i]);
  return c;
}

void RowSoftmaxInto(const Matrix& a, Matrix* out) {
  out->CopyFrom(a);
  // A 0-column matrix has no row[0] to seed the max scan with; every row
  // is an empty softmax, so the copy is already the answer.
  if (a.cols() == 0) return;
  for (size_t i = 0; i < a.rows(); ++i) {
    double* row = out->row_data(i);
    double mx = row[0];
    for (size_t j = 1; j < a.cols(); ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (size_t j = 0; j < a.cols(); ++j) row[j] /= sum;
  }
}

Matrix RowSoftmax(const Matrix& a) {
  Matrix c;
  RowSoftmaxInto(a, &c);
  return c;
}

double Sum(const Matrix& a) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i];
  return s;
}

void ColMeanInto(const Matrix& a, Matrix* out) {
  SUBREC_CHECK_GT(a.rows(), 0u);
  out->ResizeZero(1, a.cols());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) (*out)(0, j) += a(i, j);
  for (size_t j = 0; j < a.cols(); ++j)
    (*out)(0, j) /= static_cast<double>(a.rows());
}

Matrix ColMean(const Matrix& a) {
  Matrix m;
  ColMeanInto(a, &m);
  return m;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  SUBREC_CHECK_EQ(a.size(), b.size());
  return Dot(a.data(), b.data(), a.size());
}

double Dot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const std::vector<double>& a) { return std::sqrt(Dot(a, a)); }

void NormalizeL2(std::vector<double>& a) {
  const double n = Norm2(a);
  if (n == 0.0) return;
  for (double& v : a) v /= n;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  SUBREC_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  const double na = Norm2(a), nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

void AxpyVec(double alpha, const std::vector<double>& b,
             std::vector<double>& a) {
  SUBREC_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += alpha * b[i];
}

std::vector<size_t> TopKIndices(const std::vector<double>& scores, size_t k) {
  k = std::min(k, scores.size());
  std::vector<size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](size_t a, size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

void SoftmaxInPlace(std::vector<double>& v) {
  SUBREC_CHECK(!v.empty());
  double mx = *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

Matrix StackRows(const std::vector<std::vector<double>>& rows) {
  SUBREC_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) m.SetRow(i, rows[i]);
  return m;
}

}  // namespace subrec::la
