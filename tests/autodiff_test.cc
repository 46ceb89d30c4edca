#include <gtest/gtest.h>

#include "autodiff/grad_check.h"
#include "autodiff/tape.h"
#include "autodiff/tape_pool.h"
#include "common/rng.h"
#include "la/ops.h"

namespace subrec::autodiff {
namespace {

constexpr double kTol = 1e-6;

// Builds a ScalarFn from a tape program over the parameter list.
ScalarFn MakeFn(
    const std::function<VarId(Tape*, const std::vector<VarId>&)>& program) {
  return [program](const std::vector<la::Matrix>& params,
                   std::vector<la::Matrix>* grads) {
    Tape tape;
    std::vector<VarId> leaves;
    leaves.reserve(params.size());
    for (const auto& p : params) leaves.push_back(tape.Input(p, true));
    VarId loss = program(&tape, leaves);
    if (grads != nullptr) {
      tape.Backward(loss);
      grads->clear();
      for (VarId leaf : leaves) grads->push_back(tape.grad(leaf));
    }
    return tape.value(loss)(0, 0);
  };
}

TEST(Tape, ForwardValuesMatchPlainOps) {
  Tape tape;
  la::Matrix a = {{1, 2}, {3, 4}};
  la::Matrix b = {{5, 6}, {7, 8}};
  VarId va = tape.Constant(a);
  VarId vb = tape.Constant(b);
  EXPECT_EQ(tape.value(tape.MatMul(va, vb))(0, 0), 19.0);
  EXPECT_EQ(tape.value(tape.Add(va, vb))(1, 1), 12.0);
  EXPECT_EQ(tape.value(tape.Sum(va))(0, 0), 10.0);
  EXPECT_EQ(tape.value(tape.SumSquares(vb))(0, 0), 174.0);
  EXPECT_EQ(tape.value(tape.Transpose(va))(0, 1), 3.0);
}

TEST(GradCheck, MatMul) {
  Rng rng(1);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->Sum(t->MatMul(p[0], p[1]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 4, rng),
                               la::Matrix::Random(4, 2, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, MatMulTransB) {
  Rng rng(2);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->Sum(t->MatMulTransB(p[0], p[1]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 4, rng),
                               la::Matrix::Random(5, 4, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, ElementwiseChain) {
  Rng rng(3);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    VarId x = t->Mul(p[0], p[1]);
    x = t->Sub(x, t->Scale(p[0], 0.3));
    return t->SumSquares(x);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 3, rng),
                               la::Matrix::Random(3, 3, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Activations) {
  Rng rng(4);
  for (int which = 0; which < 3; ++which) {
    auto fn = MakeFn([which](Tape* t, const std::vector<VarId>& p) {
      VarId y = which == 0   ? t->Tanh(p[0])
                : which == 1 ? t->Sigmoid(p[0])
                             : t->Relu(p[0]);
      return t->SumSquares(y);
    });
    // Keep ReLU inputs away from the kink.
    la::Matrix x = la::Matrix::Random(4, 3, rng, 0.1, 2.0);
    auto r = CheckGradients(fn, {x});
    EXPECT_LT(r.max_rel_error, kTol) << "activation " << which;
  }
}

TEST(GradCheck, RowSoftmaxAndMean) {
  Rng rng(5);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    VarId s = t->RowSoftmax(p[0]);
    VarId m = t->RowMean(s);
    return t->SumSquares(m);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(4, 5, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(6);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->AddRowBroadcast(p[0], p[1]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(4, 3, rng),
                               la::Matrix::Random(1, 3, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, ConcatRowsAndCols) {
  Rng rng(7);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    VarId rows = t->ConcatRows({p[0], p[1]});
    VarId cols = t->ConcatCols({rows, t->Scale(rows, 2.0)});
    return t->SumSquares(cols);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(2, 3, rng),
                               la::Matrix::Random(4, 3, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Transpose) {
  Rng rng(8);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->Sum(t->MatMul(t->Transpose(p[0]), p[0]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 2, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, SigmoidBce) {
  Rng rng(9);
  la::Matrix targets(2, 3);
  targets(0, 0) = 1.0;
  targets(1, 2) = 1.0;
  auto fn = MakeFn([targets](Tape* t, const std::vector<VarId>& p) {
    return t->SigmoidBce(p[0], targets);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(2, 3, rng, -2, 2)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, TwoLayerMlpComposite) {
  Rng rng(10);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    // x fixed inside: use p[3] as input treated as trainable too.
    VarId h = t->Tanh(t->AddRowBroadcast(t->MatMul(p[3], p[0]), p[1]));
    VarId out = t->MatMul(h, p[2]);
    return t->SumSquares(out);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(4, 6, rng),   // W1
                               la::Matrix::Random(1, 6, rng),   // b1
                               la::Matrix::Random(6, 2, rng),   // W2
                               la::Matrix::Random(3, 4, rng)});  // x
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, AttentionPoolingComposite) {
  // The exact pooling structure used by the subspace encoder: softmax
  // attention over rows followed by a weighted sum.
  Rng rng(11);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    VarId proj = t->Tanh(t->MatMul(p[0], p[1]));       // n x a
    VarId scores = t->MatMul(proj, p[2]);              // n x 1
    VarId weights = t->RowSoftmax(t->Transpose(scores));  // 1 x n
    VarId pooled = t->MatMul(weights, p[0]);           // 1 x d
    return t->SumSquares(pooled);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(5, 4, rng),
                               la::Matrix::Random(4, 3, rng),
                               la::Matrix::Random(3, 1, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

// Direct (single-op) finite-difference tests: the composites above could
// mask a backward rule whose error cancels through the surrounding ops, so
// each rewritten opcode also gets checked in isolation.

TEST(GradCheck, ConcatRowsDirect) {
  Rng rng(12);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->ConcatRows({p[0], p[1], p[2]}));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(1, 3, rng),
                               la::Matrix::Random(4, 3, rng),
                               la::Matrix::Random(2, 3, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, ConcatColsDirect) {
  Rng rng(13);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->ConcatCols({p[0], p[1], p[2]}));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 1, rng),
                               la::Matrix::Random(3, 4, rng),
                               la::Matrix::Random(3, 2, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, RowSoftmaxDirect) {
  Rng rng(14);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->RowSoftmax(p[0]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 5, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, RowMeanDirect) {
  Rng rng(15);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->RowMean(p[0]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(5, 4, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, TransposeDirect) {
  Rng rng(16);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->Transpose(p[0]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(2, 5, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, AddRowBroadcastDirect) {
  Rng rng(17);
  auto fn = MakeFn([](Tape* t, const std::vector<VarId>& p) {
    return t->SumSquares(t->AddRowBroadcast(p[0], p[1]));
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(6, 2, rng),
                               la::Matrix::Random(1, 2, rng)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, SigmoidBceDirect) {
  Rng rng(18);
  la::Matrix targets(3, 2);
  targets(0, 1) = 1.0;
  targets(2, 0) = 1.0;
  auto fn = MakeFn([targets](Tape* t, const std::vector<VarId>& p) {
    return t->SigmoidBce(p[0], targets);
  });
  auto r = CheckGradients(fn, {la::Matrix::Random(3, 2, rng, -3, 3)});
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(Tape, ConstantGetsNoGradient) {
  Tape tape;
  VarId c = tape.Constant(la::Matrix(2, 2, 1.0));
  VarId x = tape.Input(la::Matrix(2, 2, 3.0), true);
  VarId loss = tape.Sum(tape.Mul(c, x));
  tape.Backward(loss);
  EXPECT_TRUE(tape.grad(c).empty());
  EXPECT_EQ(tape.grad(x)(0, 0), 1.0);
}

TEST(Tape, GradientAccumulatesAcrossReuse) {
  Tape tape;
  VarId x = tape.Input(la::Matrix(1, 1, 2.0), true);
  // loss = x*x -> dloss/dx = 2x = 4.
  VarId loss = tape.Sum(tape.Mul(x, x));
  tape.Backward(loss);
  EXPECT_NEAR(tape.grad(x)(0, 0), 4.0, 1e-12);
}

TEST(Tape, ResetInvalidatesNodes) {
  Tape tape;
  tape.Input(la::Matrix(1, 1), true);
  EXPECT_EQ(tape.size(), 1u);
  tape.Reset();
  EXPECT_EQ(tape.size(), 0u);
}

TEST(Tape, ArenaReusesSlabsAcrossReset) {
  Tape tape;
  const auto build = [&tape]() {
    VarId x = tape.Input(la::Matrix(8, 8, 0.01), true);
    VarId y = tape.Tanh(tape.MatMul(x, x));
    VarId loss = tape.SumSquares(y);
    tape.Backward(loss);
    return tape.grad(x)(0, 0);
  };
  const double g1 = build();
  tape.Reset();
  const size_t warm_bytes = tape.bytes_reserved();
  const uint64_t hits_before = tape.slab_reuse_hits();
  EXPECT_GT(warm_bytes, 0u);
  // The second identical pass must recycle every slab: reuse hits go up,
  // the reserved footprint does not, and the result is bitwise unchanged.
  const double g2 = build();
  tape.Reset();
  EXPECT_GT(tape.slab_reuse_hits(), hits_before);
  EXPECT_EQ(tape.bytes_reserved(), warm_bytes);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(tape.nodes_built(), 8u);  // 4 nodes per pass, 2 passes
}

TEST(Tape, InputRefReadsExternalStorageWithoutCopy) {
  la::Matrix w(2, 2, 1.5);
  Tape tape;
  VarId x = tape.InputRef(&w, true);
  EXPECT_EQ(&tape.value(x), &w);
  VarId loss = tape.SumSquares(x);
  tape.Backward(loss);
  EXPECT_EQ(tape.grad(x)(0, 0), 3.0);  // d/dx sum(x^2) = 2x
  // A rebuild observes the pointee's current contents.
  tape.Reset();
  w.Fill(2.0);
  VarId x2 = tape.InputRef(&w, true);
  EXPECT_EQ(tape.value(x2)(1, 1), 2.0);
}

TEST(Tape, ConstantRefGetsNoGradient) {
  la::Matrix c(2, 2, 1.0);
  Tape tape;
  VarId vc = tape.ConstantRef(&c);
  VarId x = tape.Input(la::Matrix(2, 2, 3.0), true);
  VarId loss = tape.Sum(tape.Mul(vc, x));
  tape.Backward(loss);
  EXPECT_TRUE(tape.grad(vc).empty());
  EXPECT_EQ(tape.grad(x)(0, 0), 1.0);
}

TEST(TapePool, RecyclesReleasedTapes) {
  TapePool pool;
  std::unique_ptr<Tape> t1 = pool.Acquire();
  t1->Input(la::Matrix(4, 4, 1.0), true);
  Tape* raw = t1.get();
  pool.Release(std::move(t1));
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_GT(pool.bytes_reserved(), 0u);
  std::unique_ptr<Tape> t2 = pool.Acquire();
  EXPECT_EQ(t2.get(), raw);          // same arena comes back
  EXPECT_EQ(t2->size(), 0u);         // ... already reset
  EXPECT_GT(t2->bytes_reserved(), 0u);  // ... with its slabs intact
  EXPECT_EQ(pool.idle(), 0u);
  pool.Release(std::move(t2));
  pool.Release(nullptr);  // ignored
  EXPECT_EQ(pool.idle(), 1u);
}

}  // namespace
}  // namespace subrec::autodiff
