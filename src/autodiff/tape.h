// Reverse-mode automatic differentiation over dense matrices.
//
// The tape is a define-by-run graph, rebuilt on every forward pass (the
// PyTorch execution model the paper's training code uses). Values are
// sqvae::Matrix with the batch dimension in rows. Model parameters live
// outside the tape in ad::Parameter objects; Tape::leaf() brings a
// parameter into a graph and Tape::backward() accumulates its gradient back
// into Parameter::grad, so one optimizer step can follow several
// accumulating backward passes.
//
// The op set is exactly what the paper's autoencoders need (affine layers,
// ReLU/sigmoid/tanh, Gaussian reparameterisation, MSE + KL losses, column
// concat/slice for patched circuits) plus Tape::custom(), the escape hatch
// through which the quantum circuit inserts itself as a differentiable node
// (models/quantum_layer.*).
//
// Inference builds the same graph on a values-only tape (Tape(ValuesOnly)):
// leaf() brings a parameter in as a constant, so no node requires a
// gradient, no op records a backward closure, and a custom op can tell from
// its inputs that it need keep nothing for a backward pass (QuantumLayer
// then holds no final states). Values are bit-identical to a
// differentiable tape's.
#pragma once

#include <functional>
#include <vector>

#include "common/matrix.h"

namespace sqvae::ad {

using sqvae::Matrix;

/// A trainable tensor: value plus accumulated gradient, persistent across
/// tape rebuilds. The optimizer consumes and zeroes `grad`.
struct Parameter {
  Matrix value;
  Matrix grad;

  explicit Parameter(Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void zero_grad() { grad = Matrix(value.rows(), value.cols()); }
  std::size_t size() const { return value.size(); }
};

class Tape;

/// Destination for Parameter-leaf gradients during Tape::backward(). By
/// default leaves accumulate into their Parameter::grad (shared, mutable);
/// a sink redirects that accumulation so several tapes can backpropagate
/// through the *same* parameters concurrently, each into private buffers —
/// the mechanism behind the data-parallel trainer's per-thread gradients.
class GradSink {
 public:
  virtual ~GradSink() = default;
  /// Called once per parameter leaf with that leaf's full gradient.
  virtual void accumulate(Parameter* p, const Matrix& grad) = 0;
};

/// Lightweight handle to a tape node. Valid only for the tape that created
/// it and only until that tape is cleared.
struct Var {
  int id = -1;
  bool valid() const { return id >= 0; }
};

/// Tag selecting a values-only tape (see the file comment).
struct ValuesOnly {};

class Tape {
 public:
  Tape() = default;
  explicit Tape(ValuesOnly) : values_only_(true) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- graph sources ------------------------------------------------
  /// Non-differentiable input (data batches, sampled noise, targets).
  Var constant(Matrix value);
  /// Differentiable leaf bound to an external parameter; backward()
  /// accumulates into p->grad. On a values-only tape, a constant holding
  /// p->value.
  Var leaf(Parameter* p);

  // ---- elementwise / linear algebra ----------------------------------
  Var matmul(Var a, Var b);
  /// Same-shape elementwise sum.
  Var add(Var a, Var b);
  /// Adds a 1 x cols bias row to every row of `a`.
  Var add_bias(Var a, Var bias);
  Var sub(Var a, Var b);
  /// Elementwise product (same shape).
  Var mul(Var a, Var b);
  Var scale(Var a, double s);
  Var relu(Var a);
  Var sigmoid(Var a);
  Var tanh_(Var a);
  Var exp_(Var a);

  // ---- shape ----------------------------------------------------------
  /// Horizontal concatenation; all inputs share the row count.
  Var concat_cols(const std::vector<Var>& parts);
  /// Columns [start, start+len) of `a`.
  Var slice_cols(Var a, std::size_t start, std::size_t len);

  // ---- losses (scalar 1x1 outputs) -------------------------------------
  /// Mean over batch *and* features of squared error against a constant
  /// target (PyTorch MSELoss 'mean' reduction, as used for reconstruction).
  Var mse_loss(Var pred, const Matrix& target);
  /// KL( N(mu, exp(logvar)) || N(0, I) ), summed over latent dims and
  /// averaged over the batch: mean_b 0.5 sum_d (exp(lv)+mu^2-1-lv).
  Var kl_gaussian(Var mu, Var logvar);

  // ---- custom ops -------------------------------------------------------
  /// Backward callback for custom(): receives the upstream gradient of the
  /// custom node and must push input gradients via accum_grad().
  using CustomBackward = std::function<void(Tape&, const Matrix& out_grad)>;

  /// Inserts a node with an externally computed `value` depending on
  /// `inputs`. `backward` is invoked during Tape::backward() with the
  /// node's output gradient.
  Var custom(const std::vector<Var>& inputs, Matrix value,
             CustomBackward backward);

  /// Adds `g` into the gradient buffer of `v` (no-op when `v` does not
  /// require a gradient). For use inside CustomBackward callbacks.
  void accum_grad(Var v, const Matrix& g);

  // ---- access -----------------------------------------------------------
  const Matrix& value(Var v) const;
  /// Gradient buffer of `v` after backward(); zero matrix when untouched.
  const Matrix& grad(Var v) const;
  bool requires_grad(Var v) const;
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Reverse sweep from a scalar (1x1) node. Parameter leaves accumulate
  /// into their Parameter::grad, or into the installed GradSink when one is
  /// set.
  void backward(Var loss);

  /// Redirects parameter-leaf accumulation in backward() to `sink`
  /// (nullptr restores the default Parameter::grad accumulation). The sink
  /// must outlive every subsequent backward() call.
  void set_grad_sink(GradSink* sink) { grad_sink_ = sink; }

 private:
  struct Node {
    Matrix value;
    Matrix grad;
    bool needs_grad = false;
    Parameter* param = nullptr;  // leaf binding
    std::function<void(Tape&)> backward;
  };

  Node& node(Var v);
  const Node& node(Var v) const;
  Var push(Matrix value, bool needs_grad, std::function<void(Tape&)> backward);
  void ensure_grad(Var v);

  std::vector<Node> nodes_;
  GradSink* grad_sink_ = nullptr;
  bool values_only_ = false;
};

}  // namespace sqvae::ad
