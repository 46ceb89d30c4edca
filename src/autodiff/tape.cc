#include "autodiff/tape.h"

#include <algorithm>
#include <cmath>

#include "la/check_finite.h"
#include "la/ops.h"
#include "obs/metrics.h"

namespace subrec::autodiff {

using la::Matrix;

Tape::~Tape() { FlushStats(); }

VarId Tape::NewNode(Op op, bool requires_grad, VarId a, VarId b) {
  ++nodes_built_;
  if (live_nodes_ < nodes_.size()) {
    // Recycle the record left behind by a previous pass: its value/grad
    // matrices keep their heap blocks, so filling a same-shaped result is
    // allocation-free.
    Node& n = nodes_[live_nodes_];
    if (n.value.capacity() > 0 || n.grad.capacity() > 0) ++slab_reuse_hits_;
    n.value.ClearKeepCapacity();
    n.grad.ClearKeepCapacity();
    n.ext = nullptr;
    n.op = op;
    n.requires_grad = requires_grad;
    n.a = a;
    n.b = b;
    n.alpha = 0.0;
    n.extra_begin = 0;
    n.extra_count = 0;
  } else {
    nodes_.emplace_back();
    Node& n = nodes_.back();
    n.op = op;
    n.requires_grad = requires_grad;
    n.a = a;
    n.b = b;
  }
  return live_nodes_++;
}

Tape::Node& Tape::node(VarId id) {
  SUBREC_CHECK_LT(id, live_nodes_);
  return nodes_[id];
}

void Tape::StoreOperands(Node* n, const std::vector<VarId>& parts) {
  n->extra_begin = static_cast<uint32_t>(live_operands_);
  n->extra_count = static_cast<uint32_t>(parts.size());
  if (live_operands_ + parts.size() <= operands_.size()) {
    std::copy(parts.begin(), parts.end(), operands_.begin() + live_operands_);
  } else {
    operands_.resize(live_operands_);
    operands_.insert(operands_.end(), parts.begin(), parts.end());
  }
  live_operands_ += parts.size();
}

VarId Tape::Input(const Matrix& value, bool requires_grad) {
  VarId id = NewNode(Op::kLeaf, requires_grad);
  nodes_[id].value.CopyFrom(value);
  return id;
}

VarId Tape::InputRef(const Matrix* value, bool requires_grad) {
  SUBREC_CHECK(value != nullptr);
  VarId id = NewNode(Op::kLeaf, requires_grad);
  nodes_[id].ext = value;
  return id;
}

void Tape::AccumulateScaled(VarId id, double alpha, const Matrix& g) {
  Node& n = node(id);
  if (!n.requires_grad) return;
  SUBREC_CHECK(n.grad.SameShape(g));
  SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
  double* a = n.grad.data();
  const double* b = g.data();
  const size_t m = n.grad.size();
  for (size_t k = 0; k < m; ++k) a[k] += alpha * b[k];
}

void Tape::AccumulateHadamard(VarId id, const Matrix& g, const Matrix& v) {
  Node& n = node(id);
  if (!n.requires_grad) return;
  SUBREC_CHECK(n.grad.SameShape(g));
  SUBREC_DCHECK(g.SameShape(v));
  SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
  double* a = n.grad.data();
  const double* gp = g.data();
  const double* vp = v.data();
  const size_t m = n.grad.size();
  for (size_t k = 0; k < m; ++k) a[k] += gp[k] * vp[k];
}

const Matrix& Tape::value(VarId id) const {
  SUBREC_CHECK_LT(id, live_nodes_);
  const Node& n = nodes_[id];
  return n.ext != nullptr ? *n.ext : n.value;
}

const Matrix& Tape::grad(VarId id) const {
  SUBREC_CHECK_LT(id, live_nodes_);
  return nodes_[id].grad;
}

void Tape::Reset() {
  live_nodes_ = 0;
  live_operands_ = 0;
  FlushStats();
}

size_t Tape::bytes_reserved() const {
  size_t bytes = nodes_.capacity() * sizeof(Node) +
                 operands_.capacity() * sizeof(VarId) +
                 scratch_.capacity() * sizeof(double);
  for (const Node& n : nodes_) {
    bytes += (n.value.capacity() + n.grad.capacity()) * sizeof(double);
  }
  return bytes;
}

void Tape::FlushStats() {
  namespace obs = subrec::obs;
  static obs::Counter* built =
      obs::MetricsRegistry::Global().GetCounter("tape.nodes_built");
  static obs::Counter* reuse =
      obs::MetricsRegistry::Global().GetCounter("tape.slab_reuse_hits");
  static obs::Gauge* arena =
      obs::MetricsRegistry::Global().GetGauge("tape.arena_bytes");
  if (nodes_built_ != flushed_nodes_built_) {
    built->Increment(static_cast<int64_t>(nodes_built_ - flushed_nodes_built_));
    flushed_nodes_built_ = nodes_built_;
  }
  if (slab_reuse_hits_ != flushed_slab_reuse_hits_) {
    reuse->Increment(
        static_cast<int64_t>(slab_reuse_hits_ - flushed_slab_reuse_hits_));
    flushed_slab_reuse_hits_ = slab_reuse_hits_;
  }
  // Gauge semantics: footprint of the most recently reset tape. Steady
  // state shows a flat value because every pass reuses the same slabs.
  arena->Set(static_cast<double>(bytes_reserved()));
}

// --- op construction ---------------------------------------------------
//
// Pattern: read the `requires_grad` bits first, then NewNode (which may
// reallocate nodes_), and only then take matrix references for the *Into
// call — references into nodes_ obtained before NewNode would dangle.

VarId Tape::Add(VarId a, VarId b) {
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  VarId out = NewNode(Op::kAdd, rg, a, b);
  la::AddInto(value(a), value(b), &nodes_[out].value);
  return out;
}

VarId Tape::Sub(VarId a, VarId b) {
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  VarId out = NewNode(Op::kSub, rg, a, b);
  la::SubInto(value(a), value(b), &nodes_[out].value);
  return out;
}

VarId Tape::Mul(VarId a, VarId b) {
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  VarId out = NewNode(Op::kMul, rg, a, b);
  la::HadamardInto(value(a), value(b), &nodes_[out].value);
  return out;
}

VarId Tape::Scale(VarId a, double alpha) {
  VarId out = NewNode(Op::kScale, node(a).requires_grad, a);
  nodes_[out].alpha = alpha;
  la::ScaleInto(value(a), alpha, &nodes_[out].value);
  return out;
}

VarId Tape::MatMul(VarId a, VarId b) {
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  VarId out = NewNode(Op::kMatMul, rg, a, b);
  la::MatMulInto(value(a), value(b), &nodes_[out].value);
  return out;
}

VarId Tape::MatMulTransB(VarId a, VarId b) {
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  VarId out = NewNode(Op::kMatMulTransB, rg, a, b);
  la::MatMulTransBInto(value(a), value(b), &nodes_[out].value);
  return out;
}

VarId Tape::AddRowBroadcast(VarId a, VarId bias) {
  const bool rg = node(a).requires_grad || node(bias).requires_grad;
  VarId out = NewNode(Op::kAddRowBroadcast, rg, a, bias);
  la::AddRowBroadcastInto(value(a), value(bias), &nodes_[out].value);
  return out;
}

VarId Tape::Tanh(VarId a) {
  VarId out = NewNode(Op::kTanh, node(a).requires_grad, a);
  la::TanhInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::Sigmoid(VarId a) {
  VarId out = NewNode(Op::kSigmoid, node(a).requires_grad, a);
  la::SigmoidInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::Relu(VarId a) {
  VarId out = NewNode(Op::kRelu, node(a).requires_grad, a);
  la::ReluInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::RowSoftmax(VarId a) {
  VarId out = NewNode(Op::kRowSoftmax, node(a).requires_grad, a);
  la::RowSoftmaxInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::Transpose(VarId a) {
  VarId out = NewNode(Op::kTranspose, node(a).requires_grad, a);
  la::TransposeInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::RowMean(VarId a) {
  VarId out = NewNode(Op::kRowMean, node(a).requires_grad, a);
  la::ColMeanInto(value(a), &nodes_[out].value);
  return out;
}

VarId Tape::ConcatRows(const std::vector<VarId>& parts) {
  SUBREC_CHECK(!parts.empty());
  size_t rows = 0;
  const size_t cols = value(parts[0]).cols();
  bool rg = false;
  for (VarId p : parts) {
    SUBREC_CHECK_EQ(value(p).cols(), cols);
    rows += value(p).rows();
    rg = rg || node(p).requires_grad;
  }
  VarId out = NewNode(Op::kConcatRows, rg);
  StoreOperands(&nodes_[out], parts);
  Matrix& v = nodes_[out].value;
  v.ResizeZero(rows, cols);
  size_t r = 0;
  for (VarId p : parts) {
    const Matrix& pv = value(p);
    for (size_t i = 0; i < pv.rows(); ++i, ++r)
      for (size_t j = 0; j < cols; ++j) v(r, j) = pv(i, j);
  }
  return out;
}

VarId Tape::ConcatCols(const std::vector<VarId>& parts) {
  SUBREC_CHECK(!parts.empty());
  const size_t rows = value(parts[0]).rows();
  size_t cols = 0;
  bool rg = false;
  for (VarId p : parts) {
    SUBREC_CHECK_EQ(value(p).rows(), rows);
    cols += value(p).cols();
    rg = rg || node(p).requires_grad;
  }
  VarId out = NewNode(Op::kConcatCols, rg);
  StoreOperands(&nodes_[out], parts);
  Matrix& v = nodes_[out].value;
  v.ResizeZero(rows, cols);
  size_t c = 0;
  for (VarId p : parts) {
    const Matrix& pv = value(p);
    for (size_t j = 0; j < pv.cols(); ++j, ++c)
      for (size_t i = 0; i < rows; ++i) v(i, c) = pv(i, j);
  }
  return out;
}

VarId Tape::Sum(VarId a) {
  VarId out = NewNode(Op::kSum, node(a).requires_grad, a);
  Matrix& v = nodes_[out].value;
  v.ResizeZero(1, 1);
  v(0, 0) = la::Sum(value(a));
  return out;
}

VarId Tape::SumSquares(VarId a) {
  VarId out = NewNode(Op::kSumSquares, node(a).requires_grad, a);
  const Matrix& x = value(a);
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) s += x[i] * x[i];
  Matrix& v = nodes_[out].value;
  v.ResizeZero(1, 1);
  v(0, 0) = s;
  return out;
}

VarId Tape::SigmoidBce(VarId logits, const Matrix& targets) {
  SUBREC_CHECK(value(logits).SameShape(targets));
  SUBREC_CHECK_GT(value(logits).size(), 0u);
  // The targets live on the tape as a hidden gradient-free leaf so the
  // backward rule can reach them without a captured copy.
  VarId t = Input(targets, /*requires_grad=*/false);
  VarId out = NewNode(Op::kSigmoidBce, node(logits).requires_grad, logits, t);
  const Matrix& x = value(logits);
  const Matrix& y = value(t);
  // mean over entries of: max(x,0) - x*y + log(1 + exp(-|x|))
  double loss = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    loss += std::max(xi, 0.0) - xi * y[i] +
            std::log1p(std::exp(-std::fabs(xi)));
  }
  Matrix& v = nodes_[out].value;
  v.ResizeZero(1, 1);
  v(0, 0) = loss / static_cast<double>(x.size());
  return out;
}

// --- backward ----------------------------------------------------------

void Tape::BackwardNode(size_t i) {
  Node& n = nodes_[i];
  const Matrix& g = n.grad;
  switch (n.op) {
    case Op::kLeaf:
      return;
    case Op::kAdd:
      AccumulateScaled(n.a, 1.0, g);
      AccumulateScaled(n.b, 1.0, g);
      return;
    case Op::kSub:
      AccumulateScaled(n.a, 1.0, g);
      AccumulateScaled(n.b, -1.0, g);
      return;
    case Op::kMul:
      AccumulateHadamard(n.a, g, value(n.b));
      AccumulateHadamard(n.b, g, value(n.a));
      return;
    case Op::kScale:
      AccumulateScaled(n.a, n.alpha, g);
      return;
    case Op::kMatMul:
      // dA = G * B^T ; dB = A^T * G. Computed into the shared scratch and
      // added in one axpy — the same temp-then-single-add rounding as the
      // closure tape, without a fresh allocation in steady state.
      if (nodes_[n.a].requires_grad) {
        la::MatMulTransBInto(g, value(n.b), &scratch_);
        AccumulateScaled(n.a, 1.0, scratch_);
      }
      if (nodes_[n.b].requires_grad) {
        la::MatMulTransAInto(value(n.a), g, &scratch_);
        AccumulateScaled(n.b, 1.0, scratch_);
      }
      return;
    case Op::kMatMulTransB:
      // c = a b^T  =>  dA = G * B ; dB = G^T * A
      if (nodes_[n.a].requires_grad) {
        la::MatMulInto(g, value(n.b), &scratch_);
        AccumulateScaled(n.a, 1.0, scratch_);
      }
      if (nodes_[n.b].requires_grad) {
        la::MatMulTransAInto(g, value(n.a), &scratch_);
        AccumulateScaled(n.b, 1.0, scratch_);
      }
      return;
    case Op::kAddRowBroadcast: {
      AccumulateScaled(n.a, 1.0, g);
      if (nodes_[n.b].requires_grad) {
        scratch_.ResizeZero(1, g.cols());
        for (size_t r = 0; r < g.rows(); ++r)
          for (size_t j = 0; j < g.cols(); ++j) scratch_(0, j) += g(r, j);
        AccumulateScaled(n.b, 1.0, scratch_);
      }
      return;
    }
    case Op::kTanh: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK(an.grad.SameShape(g));
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      const Matrix& y = n.value;
      double* da = an.grad.data();
      for (size_t k = 0; k < g.size(); ++k)
        da[k] += g[k] * (1.0 - y[k] * y[k]);
      return;
    }
    case Op::kSigmoid: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK(an.grad.SameShape(g));
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      const Matrix& y = n.value;
      double* da = an.grad.data();
      for (size_t k = 0; k < g.size(); ++k)
        da[k] += g[k] * (y[k] * (1.0 - y[k]));
      return;
    }
    case Op::kRelu: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK(an.grad.SameShape(g));
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      const Matrix& x = value(n.a);
      double* da = an.grad.data();
      // Adds an explicit 0.0 on the inactive side (instead of skipping the
      // store) so a -0.0 in the accumulator flips to +0.0 exactly as the
      // closure tape's dense axpy did.
      for (size_t k = 0; k < g.size(); ++k)
        da[k] += x[k] > 0.0 ? g[k] : 0.0;
      return;
    }
    case Op::kRowSoftmax: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK(an.grad.SameShape(g));
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      const Matrix& y = n.value;
      Matrix& da = an.grad;
      for (size_t r = 0; r < g.rows(); ++r) {
        double dot = 0.0;
        for (size_t j = 0; j < g.cols(); ++j) dot += g(r, j) * y(r, j);
        for (size_t j = 0; j < g.cols(); ++j)
          da(r, j) += y(r, j) * (g(r, j) - dot);
      }
      return;
    }
    case Op::kTranspose: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      Matrix& da = an.grad;
      SUBREC_CHECK(da.rows() == g.cols() && da.cols() == g.rows());
      for (size_t r = 0; r < g.rows(); ++r)
        for (size_t j = 0; j < g.cols(); ++j) da(j, r) += g(r, j);
      return;
    }
    case Op::kRowMean: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      Matrix& da = an.grad;
      const double inv = 1.0 / static_cast<double>(da.rows());
      for (size_t r = 0; r < da.rows(); ++r)
        for (size_t j = 0; j < da.cols(); ++j) da(r, j) += g(0, j) * inv;
      return;
    }
    case Op::kConcatRows: {
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      size_t r = 0;
      for (uint32_t s = 0; s < n.extra_count; ++s) {
        const VarId p = operands_[n.extra_begin + s];
        Node& pn = node(p);
        const Matrix& pv = value(p);
        if (!pn.requires_grad) {
          r += pv.rows();
          continue;
        }
        Matrix& gp = pn.grad;
        for (size_t i = 0; i < pv.rows(); ++i, ++r)
          for (size_t j = 0; j < pv.cols(); ++j) gp(i, j) += g(r, j);
      }
      return;
    }
    case Op::kConcatCols: {
      SUBREC_CHECK_FINITE(g, "autodiff backward gradient");
      size_t c = 0;
      for (uint32_t s = 0; s < n.extra_count; ++s) {
        const VarId p = operands_[n.extra_begin + s];
        Node& pn = node(p);
        const Matrix& pv = value(p);
        if (!pn.requires_grad) {
          c += pv.cols();
          continue;
        }
        Matrix& gp = pn.grad;
        for (size_t j = 0; j < pv.cols(); ++j, ++c)
          for (size_t i = 0; i < pv.rows(); ++i) gp(i, j) += g(i, c);
      }
      return;
    }
    case Op::kSum: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      const double gs = g(0, 0);
      SUBREC_CHECK_FINITE(gs, "autodiff backward gradient");
      double* da = an.grad.data();
      for (size_t k = 0; k < an.grad.size(); ++k) da[k] += gs;
      return;
    }
    case Op::kSumSquares:
      AccumulateScaled(n.a, 2.0 * g(0, 0), value(n.a));
      return;
    case Op::kSigmoidBce: {
      Node& an = node(n.a);
      if (!an.requires_grad) return;
      const double gs = g(0, 0);
      SUBREC_CHECK_FINITE(gs, "autodiff backward gradient");
      const Matrix& x = value(n.a);
      const Matrix& y = value(n.b);
      const double inv = gs / static_cast<double>(x.size());
      double* da = an.grad.data();
      for (size_t k = 0; k < x.size(); ++k) {
        const double sig = 1.0 / (1.0 + std::exp(-x[k]));
        da[k] += (sig - y[k]) * inv;
      }
      return;
    }
  }
}

void Tape::Backward(VarId root) {
  SUBREC_CHECK_LT(root, live_nodes_);
  const la::Matrix& rv = value(root);
  SUBREC_CHECK(rv.rows() == 1 && rv.cols() == 1)
      << "Backward root must be a 1x1 loss";
  SUBREC_CHECK_FINITE(rv(0, 0), "autodiff backward root loss");
  // (Re)initialize grads in place — slabs persist across Backward calls.
  for (size_t i = 0; i < live_nodes_; ++i) {
    Node& n = nodes_[i];
    if (n.requires_grad) {
      const Matrix& v = n.ext != nullptr ? *n.ext : n.value;
      n.grad.ResizeZero(v.rows(), v.cols());
    } else {
      n.grad.ClearKeepCapacity();
    }
  }
  if (!nodes_[root].requires_grad) return;  // nothing to differentiate
  nodes_[root].grad(0, 0) = 1.0;
  for (size_t i = root + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (n.op != Op::kLeaf && n.requires_grad) BackwardNode(i);
  }
}

}  // namespace subrec::autodiff
