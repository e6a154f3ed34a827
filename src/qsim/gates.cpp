#include "qsim/gates.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace sqvae::qsim {

bool is_parameterized(GateKind k) {
  switch (k) {
    case GateKind::kRX:
    case GateKind::kRY:
    case GateKind::kRZ:
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      return true;
    default:
      return false;
  }
}

bool is_two_qubit(GateKind k) {
  switch (k) {
    case GateKind::kCNOT:
    case GateKind::kCZ:
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
    case GateKind::kSWAP:
      return true;
    default:
      return false;
  }
}

bool is_diagonal(GateKind k) {
  switch (k) {
    case GateKind::kRZ:
    case GateKind::kZ:
    case GateKind::kS:
    case GateKind::kT:
    case GateKind::kCZ:
    case GateKind::kCRZ:
      return true;
    default:
      return false;
  }
}

std::string gate_name(GateKind k) {
  switch (k) {
    case GateKind::kRX: return "RX";
    case GateKind::kRY: return "RY";
    case GateKind::kRZ: return "RZ";
    case GateKind::kH: return "H";
    case GateKind::kX: return "X";
    case GateKind::kY: return "Y";
    case GateKind::kZ: return "Z";
    case GateKind::kS: return "S";
    case GateKind::kT: return "T";
    case GateKind::kCNOT: return "CNOT";
    case GateKind::kCZ: return "CZ";
    case GateKind::kCRX: return "CRX";
    case GateKind::kCRY: return "CRY";
    case GateKind::kCRZ: return "CRZ";
    case GateKind::kSWAP: return "SWAP";
  }
  return "?";
}

Mat2 gate_matrix(GateKind k, double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  constexpr cplx i{0.0, 1.0};
  switch (k) {
    case GateKind::kRX:
    case GateKind::kCRX:
      return {cplx{c, 0}, -i * s, -i * s, cplx{c, 0}};
    case GateKind::kRY:
    case GateKind::kCRY:
      return {cplx{c, 0}, cplx{-s, 0}, cplx{s, 0}, cplx{c, 0}};
    case GateKind::kRZ:
    case GateKind::kCRZ:
      // e^{-/+ i theta/2} from the one cos/sin pair above (glibc's cexp of
      // a pure imaginary argument returns exactly this pair).
      return {cplx{c, -s}, cplx{0, 0}, cplx{0, 0}, cplx{c, s}};
    case GateKind::kH: {
      const double r = 1.0 / std::numbers::sqrt2;
      return {cplx{r, 0}, cplx{r, 0}, cplx{r, 0}, cplx{-r, 0}};
    }
    case GateKind::kX:
      return {cplx{0, 0}, cplx{1, 0}, cplx{1, 0}, cplx{0, 0}};
    case GateKind::kY:
      return {cplx{0, 0}, -i, i, cplx{0, 0}};
    case GateKind::kZ:
      return {cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, cplx{-1, 0}};
    case GateKind::kS:
      return {cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, i};
    case GateKind::kT:
      return {cplx{1, 0}, cplx{0, 0}, cplx{0, 0},
              std::exp(i * (std::numbers::pi / 4.0))};
    case GateKind::kCNOT:
      // Matrix applied on the control=|1> block.
      return gate_matrix(GateKind::kX, 0.0);
    case GateKind::kCZ:
      return gate_matrix(GateKind::kZ, 0.0);
    case GateKind::kSWAP:
      // SWAP has no meaningful 2x2 block; the statevector kernel handles it
      // directly. Return identity to keep callers total.
      return {cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, cplx{1, 0}};
  }
  return {cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, cplx{1, 0}};
}

Mat2 rotation_generator(GateKind k) {
  assert(is_parameterized(k));
  switch (k) {
    case GateKind::kRX:
    case GateKind::kCRX:
      return {cplx{0, 0}, cplx{0, -0.5}, cplx{0, -0.5}, cplx{0, 0}};
    case GateKind::kRY:
    case GateKind::kCRY:
      return {cplx{0, 0}, cplx{-0.5, 0}, cplx{0.5, 0}, cplx{0, 0}};
    case GateKind::kRZ:
    case GateKind::kCRZ:
      return {cplx{0, -0.5}, cplx{0, 0}, cplx{0, 0}, cplx{0, 0.5}};
    default:
      break;
  }
  return {cplx{0, 0}, cplx{0, 0}, cplx{0, 0}, cplx{0, 0}};
}

Mat2 gate_matrix_derivative(GateKind k, double theta) {
  assert(is_parameterized(k));
  const double c = 0.5 * std::cos(theta / 2.0);
  const double s = 0.5 * std::sin(theta / 2.0);
  constexpr cplx i{0.0, 1.0};
  switch (k) {
    case GateKind::kRX:
    case GateKind::kCRX:
      // d/dtheta [cos(t/2) I - i sin(t/2) X]
      return {cplx{-s, 0}, -i * c, -i * c, cplx{-s, 0}};
    case GateKind::kRY:
    case GateKind::kCRY:
      return {cplx{-s, 0}, cplx{-c, 0}, cplx{c, 0}, cplx{-s, 0}};
    case GateKind::kRZ:
    case GateKind::kCRZ:
      return {-i * 0.5 * std::exp(-i * (theta / 2.0)), cplx{0, 0}, cplx{0, 0},
              i * 0.5 * std::exp(i * (theta / 2.0))};
    default:
      break;
  }
  return {cplx{0, 0}, cplx{0, 0}, cplx{0, 0}, cplx{0, 0}};
}

}  // namespace sqvae::qsim
