// Dense statevector for an n-qubit register with in-place gate kernels.
//
// Qubit index convention: qubit q corresponds to bit q of the basis-state
// index, i.e. basis state |b_{n-1} ... b_1 b_0> has index sum b_q 2^q and
// qubit 0 is the least significant bit. This matches the tensor-order used
// throughout the embedding and measurement code.
//
// All amplitude loops delegate to the runtime-dispatched kernel layer
// (qsim/kernels.h): scalar reference kernels or AVX2+FMA, selected once at
// startup, so every caller — interpreter, executor, adjoint sweep,
// stochastic backends — runs the same vectorised code. States at or above
// kernels::parallel_threshold() amplitudes additionally route through the
// OpenMP amplitude-parallel table (kernels::table_for), which runs on the
// calling thread's budget (common/thread_budget.h).
#pragma once

#include <cstddef>
#include <vector>

#include "qsim/kernels.h"
#include "qsim/types.h"

namespace sqvae::qsim {

class Statevector {
 public:
  /// |0...0> state on `num_qubits` qubits. Requires 1 <= num_qubits <= 24
  /// (2^24 amplitudes is already 256 MiB; the models in this project use at
  /// most 10 qubits per circuit patch).
  explicit Statevector(int num_qubits);

  /// Takes ownership of raw amplitudes; size must be a power of two.
  /// The caller is responsible for normalisation (see is_normalized()).
  explicit Statevector(std::vector<cplx> amplitudes);

  int num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }

  cplx& operator[](std::size_t i) { return amps_[i]; }
  const cplx& operator[](std::size_t i) const { return amps_[i]; }

  std::vector<cplx>& amplitudes() { return amps_; }
  const std::vector<cplx>& amplitudes() const { return amps_; }

  /// Resets to |0...0>.
  void reset();

  /// Sum of |a_i|^2.
  double norm_squared() const;

  /// True when norm_squared() is within `tol` of 1.
  bool is_normalized(double tol = 1e-9) const;

  /// Applies a general single-qubit gate to `target`.
  void apply_single(const Mat2& m, int target);

  /// Applies a single-qubit gate to `target` only on the subspace where
  /// `control` is |1>.
  void apply_controlled_single(const Mat2& m, int control, int target);

  /// CNOT with the given control and target (specialised amplitude swap).
  void apply_cnot(int control, int target);

  /// Controlled-Z (specialised phase flip).
  void apply_cz(int control, int target);

  /// SWAP of two qubits.
  void apply_swap(int a, int b);

  /// Applies a fused diagonal run (see kernels::DiagonalRun) in one
  /// elementwise pass.
  void apply_diagonal_run(const kernels::DiagonalRun& run);

  /// <psi| Z_q |psi> in [-1, 1] for normalised states.
  double expectation_z(int qubit) const;

  /// |<i|psi>|^2 for every basis state i.
  std::vector<double> probabilities() const;

  /// <psi| diag(d) |psi> = sum_i d_i |a_i|^2 for a real diagonal observable.
  double expectation_diag(const std::vector<double>& diag) const;

  /// <a|b> inner product of two statevectors of equal dimension.
  static cplx inner(const Statevector& a, const Statevector& b);

 private:
  int num_qubits_ = 0;
  std::vector<cplx> amps_;
};

}  // namespace sqvae::qsim
