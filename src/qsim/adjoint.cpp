#include "qsim/adjoint.h"

#include <cassert>

#include "qsim/kernels.h"
#include "qsim/observable.h"

namespace sqvae::qsim {

namespace {

/// Applies dU/dtheta for a parameterized gate to `state` in place.
/// For controlled rotations dU/dtheta = |1><1|_c (x) dR/dtheta, i.e. the
/// control=|0> subspace is annihilated (derivative of identity is zero) and
/// dR/dtheta acts on the control=|1> subspace.
void apply_op_derivative(Statevector& state, const GateOp& op, double theta) {
  const Mat2 d = gate_matrix_derivative(op.kind, theta);
  switch (op.kind) {
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ: {
      const std::size_t cbit = std::size_t{1} << op.control;
      for (std::size_t i = 0; i < state.dim(); ++i) {
        if ((i & cbit) == 0) state[i] = cplx{0.0, 0.0};
      }
      state.apply_controlled_single(d, op.control, op.target);
      return;
    }
    default:
      state.apply_single(d, op.target);
      return;
  }
}

/// Reverse half of the per-gate sweep. On entry `psi` holds the final
/// state U|phi0> and `lambda` the vector O psi. On exit `psi` holds the
/// initial state, `lambda` holds U^dag O psi, and `param_grads` has
/// accumulated dE/d(slot) for every parameterized slot-bound gate.
void adjoint_reverse_sweep(const std::vector<GateOp>& ops,
                           const std::vector<double>& params, Statevector& psi,
                           Statevector& lambda,
                           std::vector<double>& param_grads) {
  Statevector mu(psi.num_qubits());
  for (std::size_t k = ops.size(); k > 0; --k) {
    const GateOp& op = ops[k - 1];
    apply_op_dagger(psi, op, params);  // psi is now the state before gate k
    if (is_parameterized(op.kind) && op.param.is_slot()) {
      mu = psi;
      apply_op_derivative(mu, op, resolve_param(op, params));
      const cplx overlap = Statevector::inner(lambda, mu);
      param_grads[static_cast<std::size_t>(op.param.index)] +=
          2.0 * overlap.real();
    }
    apply_op_dagger(lambda, op, params);
  }
}

}  // namespace

AdjointResult adjoint_gradient(const Circuit& circuit,
                               const std::vector<double>& params,
                               const Statevector& initial,
                               const std::vector<double>& diag) {
  assert(initial.num_qubits() == circuit.num_qubits());
  assert(diag.size() == initial.dim());

  AdjointResult result;
  result.param_grads.assign(
      static_cast<std::size_t>(circuit.num_param_slots()), 0.0);

  // Forward pass.
  Statevector psi = initial;
  run(circuit, params, psi);

  // Value and lambda = O psi (diagonal observable => elementwise product).
  Statevector lambda = psi;
  result.value = apply_diag_observable(diag, psi, lambda);

  // Reverse sweep.
  adjoint_reverse_sweep(circuit.ops(), params, psi, lambda,
                        result.param_grads);
  result.initial_lambda = lambda.amplitudes();
  return result;
}

double apply_diag_observable(const std::vector<double>& diag,
                             const Statevector& psi, Statevector& lambda) {
  assert(diag.size() == psi.dim());
  assert(lambda.dim() == psi.dim());
  // One fused kernel pass: value = <psi|diag|psi> and lambda = diag * psi.
  return kernels::active().apply_diag_observable(
      diag.data(), psi.amplitudes().data(), lambda.amplitudes().data(),
      psi.dim());
}

AdjointResult adjoint_gradient_z_vjp(const Circuit& circuit,
                                     const std::vector<double>& params,
                                     const Statevector& initial,
                                     const std::vector<double>& cotangent) {
  return adjoint_gradient(
      circuit, params, initial,
      weighted_z_diagonal(circuit.num_qubits(), cotangent));
}

std::vector<double> real_initial_gradient(const AdjointResult& result) {
  std::vector<double> g(result.initial_lambda.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = 2.0 * result.initial_lambda[i].real();
  }
  return g;
}

}  // namespace sqvae::qsim
