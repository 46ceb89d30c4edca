#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "la/exact_kernel.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "la/score_math.h"
#include "par/parallel.h"
#include "serve/snapshot.h"

namespace subrec::la {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m[i], 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(Matrix, IdentityAndReshape) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(1, 1), 1.0);
  EXPECT_EQ(id(1, 2), 0.0);
  Matrix m(2, 6, 1.0);
  m.Reshape(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
}

TEST(Matrix, RowRoundTrip) {
  Matrix m(2, 3);
  m.SetRow(1, {7, 8, 9});
  EXPECT_EQ(m.RowToVector(1), (std::vector<double>{7, 8, 9}));
}

TEST(Ops, MatMulMatchesHandComputation) {
  Matrix a = {{1, 2, 3}, {4, 5, 6}};
  Matrix b = {{7, 8}, {9, 10}, {11, 12}};
  Matrix c = MatMul(a, b);
  EXPECT_EQ(c(0, 0), 58.0);
  EXPECT_EQ(c(0, 1), 64.0);
  EXPECT_EQ(c(1, 0), 139.0);
  EXPECT_EQ(c(1, 1), 154.0);
}

TEST(Ops, TransposedMultipliesAgree) {
  Rng rng(1);
  Matrix a = Matrix::Random(4, 3, rng);
  Matrix b = Matrix::Random(4, 5, rng);
  Matrix direct = MatMulTransA(a, b);
  Matrix via = MatMul(Transpose(a), b);
  ASSERT_TRUE(direct.SameShape(via));
  for (size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct[i], via[i], 1e-12);

  Matrix c = Matrix::Random(6, 3, rng);
  Matrix d = Matrix::Random(5, 3, rng);
  Matrix direct2 = MatMulTransB(c, d);
  Matrix via2 = MatMul(c, Transpose(d));
  for (size_t i = 0; i < direct2.size(); ++i)
    EXPECT_NEAR(direct2[i], via2[i], 1e-12);
}

TEST(Ops, ElementwiseAndAxpy) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix sum = Add(a, b);
  EXPECT_EQ(sum(1, 1), 12.0);
  Matrix diff = Sub(b, a);
  EXPECT_EQ(diff(0, 0), 4.0);
  Matrix prod = Hadamard(a, b);
  EXPECT_EQ(prod(1, 0), 21.0);
  Axpy(2.0, b, a);
  EXPECT_EQ(a(0, 0), 11.0);
}

TEST(Ops, RowSoftmaxRowsSumToOne) {
  Rng rng(2);
  Matrix a = Matrix::Random(5, 7, rng, -10, 10);
  Matrix s = RowSoftmax(a);
  for (size_t i = 0; i < s.rows(); ++i) {
    double total = 0.0;
    for (size_t j = 0; j < s.cols(); ++j) {
      EXPECT_GT(s(i, j), 0.0);
      total += s(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(Ops, RowSoftmaxStableUnderLargeValues) {
  Matrix a = {{1000.0, 1000.0, 999.0}};
  Matrix s = RowSoftmax(a);
  EXPECT_TRUE(std::isfinite(s(0, 0)));
  EXPECT_GT(s(0, 0), s(0, 2));
}

TEST(Ops, ColMean) {
  Matrix a = {{1, 2}, {3, 4}, {5, 6}};
  Matrix m = ColMean(a);
  EXPECT_EQ(m(0, 0), 3.0);
  EXPECT_EQ(m(0, 1), 4.0);
}

TEST(Ops, VectorKernels) {
  std::vector<double> a = {3, 4};
  std::vector<double> b = {4, 3};
  EXPECT_EQ(Dot(a, b), 24.0);
  EXPECT_EQ(Norm2(a), 5.0);
  EXPECT_NEAR(EuclideanDistance(a, b), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(a, b), 24.0 / 25.0, 1e-12);
  EXPECT_EQ(CosineSimilarity(a, {0, 0}), 0.0);
}

TEST(Ops, NormalizeL2) {
  std::vector<double> v = {3, 4};
  NormalizeL2(v);
  EXPECT_NEAR(Norm2(v), 1.0, 1e-12);
  std::vector<double> zero = {0, 0};
  NormalizeL2(zero);  // must not divide by zero
  EXPECT_EQ(zero[0], 0.0);
}

TEST(Ops, TopKIndices) {
  std::vector<double> scores = {0.1, 0.9, 0.5, 0.9, 0.2};
  auto top = TopKIndices(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // ties broken by smaller index
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
  EXPECT_EQ(TopKIndices(scores, 100).size(), scores.size());
}

TEST(Ops, SoftmaxInPlace) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  SoftmaxInPlace(v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
  EXPECT_LT(v[0], v[2]);
}

TEST(Ops, StackRows) {
  Matrix m = StackRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m(2, 1), 6.0);
}

TEST(Ops, AddRowBroadcast) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix bias = {{10, 20}};
  Matrix out = AddRowBroadcast(a, bias);
  EXPECT_EQ(out(0, 0), 11.0);
  EXPECT_EQ(out(1, 1), 24.0);
}

// Property sweep: matmul associativity-ish checks over random shapes.
class MatMulShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapes, DistributesOverAddition) {
  const auto [m, k, n] = GetParam();
  Rng rng(99);
  Matrix a = Matrix::Random(m, k, rng);
  Matrix b = Matrix::Random(k, n, rng);
  Matrix c = Matrix::Random(k, n, rng);
  Matrix lhs = MatMul(a, Add(b, c));
  Matrix rhs = Add(MatMul(a, b), MatMul(a, c));
  for (size_t i = 0; i < lhs.size(); ++i) EXPECT_NEAR(lhs[i], rhs[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8)));

// ---- Blocked GEMM: the cache-blocked/register-tiled path kicks in above
// a work cutoff; validate it against the naive triple loop on shapes that
// straddle the cutoff, including odd sizes that exercise the edge tiles,
// through the dispatched path and through every GEMM build this host can
// run (the builds differ in low bits; see la/gemm.h).

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t k = 0; k < a.cols(); ++k)
      for (size_t j = 0; j < b.cols(); ++j)
        c(i, j) += a(i, k) * b(k, j);
  return c;
}

class BlockedGemmShapes
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(BlockedGemmShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(1234);
  Matrix a = Matrix::Random(m, k, rng);
  Matrix b = Matrix::Random(k, n, rng);
  const Matrix ref = NaiveMatMul(a, b);
  const Matrix c = MatMul(a, b);
  ASSERT_EQ(c.rows(), ref.rows());
  ASSERT_EQ(c.cols(), ref.cols());
  for (size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-9);
  // Transposed variants route through the same kernel above the cutoff.
  const Matrix ta = MatMulTransA(Transpose(a), b);
  const Matrix tb = MatMulTransB(a, Transpose(b));
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(ta[i], ref[i], 1e-9);
    EXPECT_NEAR(tb[i], ref[i], 1e-9);
  }
  const auto& builds = internal::GemmKernelList();
  for (size_t build = 0; build < builds.size(); ++build) {
    Matrix cb(m, n);
    builds[build](a.data(), k, b.data(), n, cb.data(), n, 0, m, k, n);
    for (size_t i = 0; i < cb.size(); ++i)
      ASSERT_NEAR(cb[i], ref[i], 1e-9) << "build " << build << " entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedGemmShapes,
    ::testing::Values(std::make_tuple(31, 33, 29),    // below cutoff, odd
                      std::make_tuple(32, 32, 32),    // at the boundary
                      std::make_tuple(64, 64, 64),    // blocked, full tiles
                      std::make_tuple(67, 61, 59),    // blocked, edge tiles
                      std::make_tuple(128, 37, 77),   // tall-skinny-wide
                      std::make_tuple(1, 4096, 64),   // single-row blocked
                      std::make_tuple(129, 129, 129)  // all edges at once
                      ));

TEST(BlockedGemm, BitIdenticalAcrossThreadCounts) {
  Rng rng(77);
  Matrix a = Matrix::Random(150, 130, rng);
  Matrix b = Matrix::Random(130, 140, rng);
  std::vector<Matrix> outs;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    par::ScopedNumThreads scoped(threads);
    outs.push_back(MatMul(a, b));
  }
  for (size_t v = 1; v < outs.size(); ++v) {
    ASSERT_EQ(outs[0].size(), outs[v].size());
    for (size_t i = 0; i < outs[0].size(); ++i)
      ASSERT_EQ(outs[0][i], outs[v][i]) << "flat index " << i;
  }
}

// ---- Degenerate shapes: zero-dimension inputs must not read out of
// bounds or divide by zero anywhere in the op layer.

TEST(OpsDegenerate, ZeroDimMatMulShapes) {
  Matrix a(0, 5);
  Matrix b(5, 3);
  const Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);

  Matrix d(4, 0);
  Matrix e(0, 3);
  const Matrix f = MatMul(d, e);  // inner dimension zero: all-zero result
  EXPECT_EQ(f.rows(), 4u);
  EXPECT_EQ(f.cols(), 3u);
  for (size_t i = 0; i < f.size(); ++i) EXPECT_EQ(f[i], 0.0);

  Matrix g(2, 4);
  Matrix h(4, 0);
  const Matrix i = MatMul(g, h);
  EXPECT_EQ(i.rows(), 2u);
  EXPECT_EQ(i.cols(), 0u);
}

TEST(OpsDegenerate, RowSoftmaxZeroColumns) {
  Matrix a(3, 0);
  const Matrix s = RowSoftmax(a);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_EQ(s.cols(), 0u);
}

TEST(OpsDegenerate, ColMeanZeroRowsDies) {
  Matrix a(0, 4);
  EXPECT_DEATH(ColMean(a), "rows");
}

// --- ScoreExp / ScoreSigmoid ----------------------------------------------

int64_t UlpDistance(double a, double b) {
  int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map the sign-magnitude bit patterns onto a monotone integer line.
  if (ia < 0) ia = INT64_MIN - ia;
  if (ib < 0) ib = INT64_MIN - ib;
  return ia > ib ? ia - ib : ib - ia;
}

TEST(ScoreExp, TracksLibmWithinAFewUlp) {
  // The serving exp is its own deterministic implementation, so it need
  // not equal libm bit-for-bit — but it must agree to a few ulp across the
  // whole non-clamped range or scores would visibly drift from the
  // mathematical sigmoid.
  Rng rng(7);
  int64_t worst = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.Uniform(-700.0, 700.0);
    worst = std::max(worst, UlpDistance(ScoreExp(x), std::exp(x)));
  }
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.Uniform(-4.0, 4.0);  // the logit hot range
    worst = std::max(worst, UlpDistance(ScoreExp(x), std::exp(x)));
  }
  EXPECT_LE(worst, 4) << "ScoreExp drifted from exp";
}

TEST(ScoreExp, KnownValuesAndClampEdges) {
  EXPECT_EQ(ScoreExp(0.0), 1.0);
  EXPECT_EQ(ScoreExp(-0.0), 1.0);
  // The clamp keeps every result a normal, finite double: overflow and
  // underflow inputs saturate at e^{+/-708} instead of inf/0.
  const double top = ScoreExp(708.0);
  EXPECT_TRUE(std::isfinite(top));
  EXPECT_EQ(ScoreExp(709.0), top);
  EXPECT_EQ(ScoreExp(1e300), top);
  const double bottom = ScoreExp(-708.0);
  EXPECT_GT(bottom, 0.0);
  EXPECT_EQ(ScoreExp(-709.0), bottom);
  EXPECT_EQ(ScoreExp(-1e300), bottom);
  // Monotone on a fine grid — table/polynomial seams must not wiggle.
  double prev = ScoreExp(-20.0);
  for (int i = 1; i <= 80000; ++i) {
    const double x = -20.0 + static_cast<double>(i) * (40.0 / 80000.0);
    const double y = ScoreExp(x);
    ASSERT_GE(y, prev) << "non-monotone at x=" << x;
    prev = y;
  }
}

TEST(ScoreSigmoid, RangeAndSymmetryAnchors) {
  EXPECT_EQ(ScoreSigmoid(0.0), 0.5);
  Rng rng(8);
  // Strictly interior while exp(-|x|) is above one ulp of 1.0.
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-30.0, 30.0);
    const double s = ScoreSigmoid(x);
    ASSERT_GT(s, 0.0);
    ASSERT_LT(s, 1.0);
  }
  // Past that, the upper side rounds to exactly 1.0 (1 + 2^-54 is 1.0 in
  // doubles) while the lower side stays a positive denormal-free value —
  // the exp clamp guarantees no inf/NaN either way.
  EXPECT_EQ(ScoreSigmoid(1e308), 1.0);
  EXPECT_GT(ScoreSigmoid(-1e308), 0.0);
}

// --- serve kernels --------------------------------------------------------

TEST(Dot, PointerOverloadIsTheVectorOverload) {
  Rng rng(9);
  std::vector<double> a(37), b(37);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = rng.Gaussian();
  }
  EXPECT_EQ(Dot(a, b), Dot(a.data(), b.data(), a.size()));
  EXPECT_EQ(Dot(a.data(), b.data(), 0), 0.0);
}

TEST(ServeKernel, GemmIsBitIdenticalToScalarDot) {
  // The whole batched-scorer determinism argument rests on this: every
  // logit ServeScoreRows writes must be EXACTLY la::Dot of its profile row
  // and candidate row, for every kernel this host can run (the dispatched
  // one first, then each build in the exact-kernel list). Dims sweep the
  // scalar loops, profile rows sweep the 4- and 8-lane halves and the
  // 8-row blocks of profiles wider than eight, counts sweep the 4- and
  // 8-candidate blocks and their scalar tails. Ids are scattered, repeat,
  // and include the slab's last row, and the id list runs past `count`
  // (prefetched, not scored), so an over-wide read runs off the end under
  // ASan. Nothing outside the m x count logits may be written: neither the
  // gap column before the next row (ld = count + 1) nor a guard band that
  // covers every padding row.
  using Kernel = void (*)(const double*, size_t, const double*, size_t,
                          const int32_t*, size_t, size_t, double*, size_t);
  std::vector<std::pair<const char*, Kernel>> kernels = {
      {"dispatched", &ServeScoreRows}};
  for (const internal::ExactKernels* build : internal::ExactKernelList())
    kernels.emplace_back(build->name, build->score_rows);

  constexpr size_t kRows = 37;
  constexpr size_t kPastCount = 20;
  constexpr double kUntouched = -12345.0;
  Rng rng(10);
  for (const size_t k : {0, 1, 3, 4, 7, 8, 9, 24, 48, 50}) {
    Matrix slab(kRows, k);
    for (size_t i = 0; i < slab.size(); ++i) slab[i] = rng.Gaussian();
    for (const size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}) {
      Matrix profile(m, k);
      for (size_t i = 0; i < profile.size(); ++i) profile[i] = rng.Gaussian();
      const size_t stride = ServeProfileStride(m);
      std::vector<double> packed(k * stride, 0.0);
      for (size_t p = 0; p < m; ++p)
        for (size_t d = 0; d < k; ++d) packed[d * stride + p] = profile(p, d);
      for (const size_t count : {0, 1, 3, 4, 5, 7, 8, 9, 16, 17, 80, 81}) {
        std::vector<int32_t> ids(count + kPastCount);
        for (int32_t& id : ids)
          id = static_cast<int32_t>(rng.UniformInt(kRows));
        if (count > 0) ids[count - 1] = static_cast<int32_t>(kRows - 1);
        if (count > 2) ids[count / 2] = ids[0];
        const size_t ld = count + 1;
        for (const auto& [name, kernel] : kernels) {
          std::vector<double> logits(m * ld + 8 * ld + 8, kUntouched);
          kernel(packed.data(), m, slab.data(), k, ids.data(), count,
                 ids.size(), logits.data(), ld);
          for (size_t p = 0; p < m; ++p) {
            for (size_t j = 0; j < count; ++j) {
              const double want =
                  Dot(profile.row_data(p),
                      slab.row_data(static_cast<size_t>(ids[j])), k);
              ASSERT_EQ(std::memcmp(&logits[p * ld + j], &want,
                                    sizeof(double)),
                        0)
                  << name << " k=" << k << " m=" << m << " count=" << count
                  << " logit (" << p << "," << j << ")";
            }
            ASSERT_EQ(logits[p * ld + count], kUntouched)
                << name << " k=" << k << " m=" << m << " count=" << count
                << " wrote past row " << p;
          }
          for (size_t g = m * ld; g < logits.size(); ++g)
            ASSERT_EQ(logits[g], kUntouched)
                << name << " k=" << k << " m=" << m << " count=" << count
                << " wrote a padding row";
        }
      }
    }
  }
}

TEST(AnnKernel, DotBatchIsBitIdenticalToScalarDot) {
  // The ANN traversal's determinism rests on this the way the batched
  // scorer's rests on ServeScoreRows: every batched distance must be EXACTLY
  // la::Dot against the gathered row, whichever kernel the dispatcher
  // picked. Dims sweep the 8-block/4-block/scalar-tail boundaries of the
  // transpose kernel, counts sweep the lane-block boundaries, and the
  // node list is scattered and repeats rows (the stamp filter upstream
  // normally dedups, but the kernel must not rely on it). Odd dims leave
  // rows 8-byte aligned only. Every kernel this host can run is swept
  // directly, not just the one the dispatcher picks.
  using Kernel = void (*)(const double*, const double*, size_t,
                          const int32_t*, size_t, double*);
  std::vector<std::pair<const char*, Kernel>> kernels = {
      {"dispatched", &AnnDotBatch}};
  for (const internal::ExactKernels* build : internal::ExactKernelList())
    kernels.emplace_back(build->name, build->dot_batch);
  for (const auto& [name, kernel] : kernels) {
    Rng rng(13);
    for (const size_t dim : {1u, 3u, 4u, 7u, 8u, 11u, 16u, 24u, 48u, 50u}) {
      constexpr size_t kRows = 64;
      std::vector<double> slab(kRows * dim), query(dim);
      for (double& x : slab) x = rng.Gaussian();
      for (double& x : query) x = rng.Gaussian();
      for (const size_t count : {1u, 2u, 5u, 8u, 9u, 16u, 33u}) {
        std::vector<int32_t> nodes(count);
        for (int32_t& node : nodes)
          node = static_cast<int32_t>(rng.UniformInt(kRows));
        std::vector<double> got(count, -1.0);
        kernel(query.data(), slab.data(), dim, nodes.data(), count,
               got.data());
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(got[i], Dot(query.data(),
                                slab.data() +
                                    static_cast<size_t>(nodes[i]) * dim,
                                dim))
              << name << " dim " << dim << " count " << count << " slot "
              << i;
        }
      }
    }
  }
}

TEST(ServeKernel, SigmoidMeanColumnsIsBitIdenticalToScalarLoop) {
  // Vectorized epilogue vs the oracle's ascending-profile accumulate +
  // divide, dispatched and for every build in the exact-kernel list.
  // Widths around the SIMD register boundaries catch remainder lanes; the
  // divide (never a reciprocal multiply) is what keeps non-power-of-two
  // profile sizes exact.
  using Epilogue = void (*)(const double*, size_t, size_t, size_t, double,
                            double*);
  std::vector<std::pair<const char*, Epilogue>> epilogues = {
      {"dispatched", &ServeSigmoidMeanColumns}};
  for (const internal::ExactKernels* build : internal::ExactKernelList())
    epilogues.emplace_back(build->name, build->sigmoid_mean_columns);
  for (const auto& [name, epilogue] : epilogues) {
    Rng rng(12);
    for (const size_t m : {1u, 3u, 7u}) {
      for (const size_t n : {1u, 4u, 8u, 9u, 15u, 16u, 17u, 64u, 100u}) {
        std::vector<double> logits(m * n), got(n);
        for (double& x : logits) x = rng.Uniform(-30.0, 30.0);
        epilogue(logits.data(), n, m, n, static_cast<double>(m), got.data());
        for (size_t j = 0; j < n; ++j) {
          double total = 0.0;
          for (size_t i = 0; i < m; ++i)
            total += ScoreSigmoid(logits[i * n + j]);
          ASSERT_EQ(got[j], total / static_cast<double>(m))
              << name << " " << m << "x" << n << " column " << j;
        }
      }
    }
  }
}

TEST(KernelGetters, ReturnTheirBuildExactlyWhereTheCpuReportsItsIsa) {
  // src/CMakeLists.txt gives the vector TUs their ISA flags in x86-64
  // GNU/Clang builds, and each getter must then return its build exactly
  // when the CPU reports the ISA. A getter that wrongly returned null
  // would drop its build from dispatch and from every sweep above, and
  // nothing else would notice.
  bool avx2 = false, avx512 = false, fma = false, pclmul = false;
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
  avx2 = __builtin_cpu_supports("avx2");
  avx512 = __builtin_cpu_supports("avx512f");
  fma = __builtin_cpu_supports("fma");
  pclmul = __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#endif
  std::vector<std::string> names, want = {"generic"};
  for (const internal::ExactKernels* build : internal::ExactKernelList())
    names.emplace_back(build->name);
  if (avx2) want.emplace_back("avx2");
  if (avx512) want.emplace_back("avx512");
  EXPECT_EQ(names, want);
  EXPECT_EQ(internal::GemmKernelAvx2() != nullptr, avx2 && fma);
  EXPECT_EQ(internal::GemmKernelAvx512() != nullptr, avx512 && fma);
  EXPECT_EQ(serve::internal::Crc32FoldKernel() != nullptr, pclmul);
}

}  // namespace
}  // namespace subrec::la
