#include "qsim/noise.h"

#include "qsim/gates.h"

namespace sqvae::qsim {

const Mat2& random_pauli(sqvae::Rng& rng) {
  static const Mat2 kPauli[3] = {gate_matrix(GateKind::kX, 0.0),
                                 gate_matrix(GateKind::kY, 0.0),
                                 gate_matrix(GateKind::kZ, 0.0)};
  return kPauli[rng.uniform_int(0, 2)];
}

}  // namespace sqvae::qsim
