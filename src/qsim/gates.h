// Gate alphabet of the simulator.
//
// The paper's circuits (Fig. 2(b), Fig. 3(d)) use the general rotation
// R(phi, theta, omega) on every qubit of every entangling layer, ring CNOTs
// for entanglement, RY rotations for angle embedding, and mention CRZ in the
// gate table. R(phi, theta, omega) = RZ(omega) RY(theta) RZ(phi) is emitted
// by the circuit builders as three primitive one-parameter gates so that the
// adjoint/parameter-shift differentiation only ever deals with
// one-parameter gate generators.
#pragma once

#include <string>

#include "qsim/types.h"

namespace sqvae::qsim {

enum class GateKind {
  kRX,    // exp(-i theta X / 2)
  kRY,    // exp(-i theta Y / 2)
  kRZ,    // exp(-i theta Z / 2)
  kH,     // Hadamard
  kX,     // Pauli-X
  kY,     // Pauli-Y
  kZ,     // Pauli-Z
  kS,     // phase gate diag(1, i)
  kT,     // diag(1, e^{i pi/4})
  kCNOT,  // controlled-X
  kCZ,    // controlled-Z
  kCRX,   // controlled RX(theta)
  kCRY,   // controlled RY(theta)
  kCRZ,   // controlled RZ(theta)
  kSWAP,  // swap two qubits
};

/// True for gates carrying one trainable rotation angle.
bool is_parameterized(GateKind k);

/// True for two-qubit gates (control/target pair or SWAP).
bool is_two_qubit(GateKind k);

/// True for gates whose full matrix is diagonal in the computational basis
/// (RZ/Z/S/T single-qubit, CZ/CRZ two-qubit). Diagonal gates commute with
/// each other, which is what lets the executor collapse adjacent diagonal
/// plan steps into one fused elementwise pass (kernels::DiagonalRun).
bool is_diagonal(GateKind k);

/// Short mnemonic ("RY", "CNOT", ...), used in circuit dumps and tests.
std::string gate_name(GateKind k);

/// 2x2 matrix of a single-qubit gate. For controlled rotations this is the
/// matrix applied on the control=|1> block. `theta` is ignored for
/// non-parameterized gates.
Mat2 gate_matrix(GateKind k, double theta);

/// Elementwise derivative d(gate_matrix)/d(theta) for parameterized gates.
/// The result is generally not unitary.
Mat2 gate_matrix_derivative(GateKind k, double theta);

/// (-i/2) P for a rotation exp(-i theta P / 2) (P = X, Y, Z; the controlled
/// block of CRX/CRY/CRZ likewise), so that
/// gate_matrix_derivative(k, theta) = rotation_generator(k) *
/// gate_matrix(k, theta). Lets a bound matrix be differentiated without
/// evaluating sin/cos again.
Mat2 rotation_generator(GateKind k);

}  // namespace sqvae::qsim
