// Stochastic Pauli noise (quantum-trajectory method).
//
// The paper's evaluation is noiseless simulation; this extension models
// NISQ-device imperfections for the robustness ablation (bench_shot_noise):
// after every gate, each touched qubit suffers a Pauli error (X, Y, or Z
// uniformly) with probability p — the depolarizing channel unravelled into
// pure-state trajectories. Averaging M trajectories converges to the
// density-matrix result with O(1/sqrt(M)) error while keeping statevector
// cost, the standard trade-off for simulating noise at this scale.
//
// This header defines the channel. The trajectory regime of
// qsim::measure_batch (qsim/backend.h) samples it through the executor's
// pre-bound plan; run_density (qsim/density_matrix.h) applies it exactly
// and is the oracle that qsim_backend_test.cpp pins the trajectory
// estimate to at 3 sigma.
#pragma once

#include "common/rng.h"
#include "qsim/types.h"

namespace sqvae::qsim {

struct NoiseModel {
  /// Per-qubit Pauli error probability applied after every gate on each
  /// qubit the gate touches. 0 disables noise.
  double gate_error = 0.0;
};

/// Uniformly random Pauli matrix (X, Y, or Z with probability 1/3 each) —
/// the single draw that unravels the depolarizing channel in each
/// trajectory of the trajectory regime (qsim/backend.h).
const Mat2& random_pauli(sqvae::Rng& rng);

}  // namespace sqvae::qsim
