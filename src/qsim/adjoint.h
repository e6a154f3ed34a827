// Adjoint-mode differentiation of statevector circuits.
//
// Implements the reverse-sweep method of Jones & Gacon (arXiv:2009.02823),
// the same algorithm behind PennyLane's `diff_method="adjoint"` that the
// paper's training relies on (via simulator backprop). For an expectation
// E(theta) = <phi0| U(theta)^dag O U(theta) |phi0> with diagonal O:
//
//   psi    = U |phi0>                 (one forward pass)
//   lambda = O psi
//   for k = N..1:
//     psi    <- U_k^dag psi           (state before gate k)
//     dE/dtheta_k = 2 Re <lambda| dU_k/dtheta_k |psi>
//     lambda <- U_k^dag lambda
//
// Total cost is O(num_gates * 2^n) — independent of the parameter count —
// versus O(num_params * num_gates * 2^n) for parameter shift. After the
// sweep, lambda = U^dag O psi, which is exactly the gradient of E with
// respect to the *initial state*: dE/dRe(phi0_j) = 2 Re(lambda_j) and
// dE/dIm(phi0_j) = 2 Im(lambda_j). Hybrid models use this to backpropagate
// through amplitude embedding into upstream classical layers.
//
// adjoint_gradient below runs this loop gate by gate over the interpreter
// (one derivative matrix, a state copy and an inner product per
// parameterized gate): it is the oracle. The training path,
// CircuitExecutor::adjoint_batch (executor.h), runs the same algorithm
// over the compiled plan, one fused step at a time, and is tested against
// this one at 1e-10.
#pragma once

#include <vector>

#include "qsim/circuit.h"
#include "qsim/statevector.h"

namespace sqvae::qsim {

struct AdjointResult {
  /// E = <psi| diag |psi> at the supplied parameters.
  double value = 0.0;
  /// dE/d(params[s]) for every slot s; gates sharing a slot accumulate.
  std::vector<double> param_grads;
  /// lambda = U^dag O psi. Gradient w.r.t. the initial amplitudes:
  /// dE/dRe(phi0_j) = 2*Re(initial_lambda[j]), dE/dIm = 2*Im(...).
  std::vector<cplx> initial_lambda;
};

/// Differentiates <psi_final| diag |psi_final> where psi_final is the result
/// of running `circuit` with `params` on `initial`. `initial` must be
/// normalised for the value to be an expectation, but the gradient formulas
/// hold for any initial vector (useful when the upstream embedding handles
/// normalisation).
AdjointResult adjoint_gradient(const Circuit& circuit,
                               const std::vector<double>& params,
                               const Statevector& initial,
                               const std::vector<double>& diag);

/// Real-input gradient helper: 2*Re(initial_lambda), the gradient of E with
/// respect to real initial amplitudes.
std::vector<double> real_initial_gradient(const AdjointResult& result);

/// Forward half shared by the sweep implementations: writes
/// lambda = diag(O) psi elementwise and returns <psi| diag |psi>. `lambda`
/// must already have psi's dimension (it is typically a copy of psi).
double apply_diag_observable(const std::vector<double>& diag,
                             const Statevector& psi, Statevector& lambda);

}  // namespace sqvae::qsim
