#ifndef SUBREC_NN_PARAMETER_H_
#define SUBREC_NN_PARAMETER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autodiff/tape.h"
#include "la/matrix.h"
#include "la/ops.h"

namespace subrec::nn {

/// A named trainable matrix that persists across tape rebuilds. Gradients
/// accumulate into `grad` between optimizer steps (so several forward/
/// backward passes can contribute to one step).
struct Parameter {
  std::string name;
  la::Matrix value;
  la::Matrix grad;
};

/// Owns the Parameters of a model. Models hand out raw Parameter* whose
/// lifetime is that of the store.
class ParameterStore {
 public:
  ParameterStore() = default;
  ParameterStore(const ParameterStore&) = delete;
  ParameterStore& operator=(const ParameterStore&) = delete;

  /// Registers a new parameter initialized to `init`.
  Parameter* Create(std::string name, la::Matrix init) {
    auto p = std::make_unique<Parameter>();
    p->name = std::move(name);
    p->grad = la::Matrix(init.rows(), init.cols());
    p->value = std::move(init);
    params_.push_back(std::move(p));
    return params_.back().get();
  }

  std::vector<Parameter*> params() const {
    std::vector<Parameter*> out;
    out.reserve(params_.size());
    for (const auto& p : params_) out.push_back(p.get());
    return out;
  }

  void ZeroGrads() {
    for (const auto& p : params_) p->grad.Fill(0.0);
  }

  /// Total number of scalar weights (for logging / sanity checks).
  size_t TotalSize() const {
    size_t n = 0;
    for (const auto& p : params_) n += p->value.size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

/// Binds parameters onto a Tape for one forward pass: Use() creates the leaf
/// node, PullGradients() adds the tape's leaf gradients back into each
/// Parameter::grad after Tape::Backward(). A parameter bound twice shares
/// one leaf (gradient contributions from both uses accumulate naturally).
///
/// The leaf is an InputRef reading Parameter::value in place, so binding is
/// copy-free — which requires that parameter values stay frozen between
/// Use() and the last Backward() on the tape. The batch-parallel trainers
/// already guarantee this (the optimizer steps only between batches).
/// A binding is reusable across items: Reset(tape) forgets the bound leaves
/// but keeps the vector's capacity.
class TapeBinding {
 public:
  /// An unbound binding; call Reset() before the first Use().
  TapeBinding() = default;
  explicit TapeBinding(autodiff::Tape* tape) : tape_(tape) {}

  /// Rebinds to `tape` (typically a freshly Reset pooled tape) and drops
  /// all leaf associations without releasing storage.
  void Reset(autodiff::Tape* tape) {
    tape_ = tape;
    bound_.clear();
  }

  autodiff::VarId Use(Parameter* p) {
    for (const auto& [param, id] : bound_) {
      if (param == p) return id;
    }
    autodiff::VarId id = tape_->InputRef(&p->value, /*requires_grad=*/true);
    bound_.emplace_back(p, id);
    return id;
  }

  void PullGradients() {
    for (const auto& [param, id] : bound_) {
      const la::Matrix& g = tape_->grad(id);
      if (g.SameShape(param->grad)) la::Axpy(1.0, g, param->grad);
    }
  }

 private:
  autodiff::Tape* tape_ = nullptr;
  std::vector<std::pair<Parameter*, autodiff::VarId>> bound_;
};

}  // namespace subrec::nn

#endif  // SUBREC_NN_PARAMETER_H_
