#ifndef SUBREC_AUTODIFF_TAPE_H_
#define SUBREC_AUTODIFF_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace subrec::autodiff {

/// Handle to a node on a Tape. Valid only for the tape that produced it and
/// only until Tape::Reset().
using VarId = size_t;

/// Reverse-mode automatic differentiation over dense matrices.
///
/// Usage: create leaf nodes with Input() (trainable) or Constant() (frozen),
/// compose ops, call Backward() on a 1x1 loss node, then read grad() of the
/// leaves and feed an optimizer. The tape is rebuilt every forward pass
/// (define-by-run); Reset() rewinds the node arena without releasing its
/// storage, so the second and later passes of an identical (or smaller)
/// topology perform no heap allocation at all.
///
/// Internals: each node is a compact opcode + operand-slot record —
/// Backward() dispatches a switch over the opcode instead of calling a
/// per-node std::function closure — and node values/grads live in
/// la::Matrix slabs that are capacity-preservingly resized in place on
/// reuse. Gradient accumulation is in-place (axpy-style); the few backward
/// rules that need a real temporary (matmul, bias row-sum) share one
/// pooled scratch matrix. The floating-point sequence is fixed: the SEM and
/// NPRec goldens in tests/par_determinism_test.cc pin it bit for bit.
///
/// All shapes are validated eagerly with SUBREC_CHECK — shape bugs are
/// programmer errors, not recoverable conditions.
class Tape {
 public:
  Tape() = default;
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Leaf node holding a copy of `value` (in recycled arena storage). If
  /// `requires_grad`, gradients are accumulated into it.
  VarId Input(const la::Matrix& value, bool requires_grad = true);

  /// Leaf node that never receives gradient.
  VarId Constant(const la::Matrix& value) { return Input(value, false); }

  /// Leaf node that reads its value through `value` without copying. The
  /// pointee must outlive every use of this tape's values/grads and must
  /// not change between this call and the last such use. This is how
  /// loop-invariant constants (cached per-paper rows) and parameter
  /// bindings avoid re-uploading a fresh matrix every forward pass.
  VarId InputRef(const la::Matrix* value, bool requires_grad = true);

  /// Gradient-free InputRef.
  VarId ConstantRef(const la::Matrix* value) {
    return InputRef(value, false);
  }

  // --- ops ------------------------------------------------------------

  VarId Add(VarId a, VarId b);
  VarId Sub(VarId a, VarId b);
  /// Elementwise product.
  VarId Mul(VarId a, VarId b);
  VarId Scale(VarId a, double alpha);
  /// c = a * b (matrix product).
  VarId MatMul(VarId a, VarId b);
  /// c = a * b^T.
  VarId MatMulTransB(VarId a, VarId b);
  /// Adds a 1 x n bias row to every row of a (m x n).
  VarId AddRowBroadcast(VarId a, VarId bias);
  VarId Tanh(VarId a);
  VarId Sigmoid(VarId a);
  VarId Relu(VarId a);
  /// Softmax over each row.
  VarId RowSoftmax(VarId a);
  /// Transposed copy.
  VarId Transpose(VarId a);
  /// Mean over rows: n x d -> 1 x d.
  VarId RowMean(VarId a);
  /// Stacks row-compatible nodes vertically.
  VarId ConcatRows(const std::vector<VarId>& parts);
  /// Concatenates column-wise (all parts share the row count).
  VarId ConcatCols(const std::vector<VarId>& parts);
  /// Sum of all entries -> 1x1.
  VarId Sum(VarId a);
  /// Sum of squared entries -> 1x1 (L2 regularizer building block).
  VarId SumSquares(VarId a);
  /// Mean binary cross-entropy with logits against constant targets
  /// (same shape as `logits`); numerically stable log-sum-exp form -> 1x1.
  VarId SigmoidBce(VarId logits, const la::Matrix& targets);

  // --- access -----------------------------------------------------------

  const la::Matrix& value(VarId id) const;
  /// Gradient accumulated by the last Backward(); zero matrix if the node
  /// was not reached or does not require grad.
  const la::Matrix& grad(VarId id) const;

  /// Runs reverse accumulation from `root` (must be 1x1; seeded with 1).
  void Backward(VarId root);

  /// Number of live nodes.
  size_t size() const { return live_nodes_; }

  /// Rewinds the arena: previously returned VarIds become invalid, but
  /// every node slab (value/grad matrices, operand lists, scratch) is kept
  /// for the next forward pass. Also flushes the tape.* obs counters.
  void Reset();

  // --- arena stats ------------------------------------------------------

  /// Heap bytes currently reserved by the arena across node value/grad
  /// slabs, operand slots, the node records themselves and the backward
  /// scratch. Flat across steady-state epochs.
  size_t bytes_reserved() const;
  /// Nodes recorded since construction (across Resets).
  uint64_t nodes_built() const { return nodes_built_; }
  /// Node records whose slab storage was reused after a Reset() instead of
  /// freshly allocated. Positive once the steady state is reached.
  uint64_t slab_reuse_hits() const { return slab_reuse_hits_; }

 private:
  enum class Op : unsigned char {
    kLeaf,
    kAdd,
    kSub,
    kMul,
    kScale,
    kMatMul,
    kMatMulTransB,
    kAddRowBroadcast,
    kTanh,
    kSigmoid,
    kRelu,
    kRowSoftmax,
    kTranspose,
    kRowMean,
    kConcatRows,
    kConcatCols,
    kSum,
    kSumSquares,
    kSigmoidBce,
  };

  struct Node {
    la::Matrix value;  // owned slab; unused when ext is set
    la::Matrix grad;
    const la::Matrix* ext = nullptr;  // external value for Ref leaves
    Op op = Op::kLeaf;
    bool requires_grad = false;
    VarId a = 0;
    VarId b = 0;
    double alpha = 0.0;  // Scale factor
    // Span into operands_ for variadic ops (Concat*).
    uint32_t extra_begin = 0;
    uint32_t extra_count = 0;
  };

  /// Appends (or recycles) a node record and returns its id. The node's
  /// value/grad slabs keep their prior capacity; grad is cleared.
  VarId NewNode(Op op, bool requires_grad, VarId a = 0, VarId b = 0);
  Node& node(VarId id);
  const la::Matrix& val(const Node& n) const {
    return n.ext != nullptr ? *n.ext : n.value;
  }
  /// grad(id) += alpha * g if the node requires grad.
  void AccumulateScaled(VarId id, double alpha, const la::Matrix& g);
  /// grad(id) += g ⊙ v if the node requires grad.
  void AccumulateHadamard(VarId id, const la::Matrix& g, const la::Matrix& v);
  /// Opcode-dispatched reverse rule for node i.
  void BackwardNode(size_t i);
  /// Bump-allocates `parts` into operands_ and stamps the span on `n`.
  void StoreOperands(Node* n, const std::vector<VarId>& parts);
  /// Adds the pending stat deltas to the global tape.* metrics.
  void FlushStats();

  std::vector<Node> nodes_;
  std::vector<VarId> operands_;
  size_t live_nodes_ = 0;
  size_t live_operands_ = 0;
  la::Matrix scratch_;  // backward temporaries (matmul grads, bias row-sum)

  uint64_t nodes_built_ = 0;
  uint64_t slab_reuse_hits_ = 0;
  uint64_t flushed_nodes_built_ = 0;
  uint64_t flushed_slab_reuse_hits_ = 0;
};

}  // namespace subrec::autodiff

#endif  // SUBREC_AUTODIFF_TAPE_H_
