// QuantumLayer: a variational quantum circuit as a differentiable node in
// the classical autodiff graph.
//
// This is the C++ equivalent of wrapping a PennyLane QNode in a
// torch.nn.Module, which is how the paper's hybrid models are built. One
// layer = data embedding (angle or amplitude) -> L strongly entangling
// layers (Fig. 2(b)) -> measurement (per-qubit <Z> or basis probabilities).
//
// Measurement: every forward runs qsim::measure_batch under the layer's
// SimulationOptions (config().sim: exact, trajectory noise or finite
// shots, qsim/backend.h). The regime is fixed when the layer is built.
//
// Differentiation: the tape sees the layer as one custom op. Its forward
// keeps each row's slot vector and noiseless final state (measure_batch
// hands them over): 2^n amplitudes per row, 2 KiB at 7 qubits. Its
// backward starts each row's adjoint sweep from that state — no second
// forward pass — with the *weighted* observable diag(sum_q w_q Z_q)
// (expectation output) or diag(w) (probability output), where w is the
// upstream cotangent — so the full vector-Jacobian product costs a single
// reverse walk regardless of output dimension, and the same walk yields
// input gradients: through the angle-embedding rotation slots (angle
// mode) or through the L2-normalisation Jacobian of the initial state
// (amplitude mode). On a values-only tape (inference, ad::ValuesOnly) the
// layer records a constant and keeps no states.
//
// Weight convention: a 1 x (3 * num_qubits * layers) row parameter, slots
// ordered layer-major then qubit-major then (phi, theta, omega) — the
// StronglyEntanglingLayers layout. Initialised uniform in [-pi, pi], the
// paper's quantum parameter range.
#pragma once

#include "autodiff/tape.h"
#include "common/rng.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"

namespace sqvae::models {

struct QuantumLayerConfig {
  int num_qubits = 4;
  int entangling_layers = 3;

  enum class InputMode {
    kAngle,      // input dim = num_qubits rotation angles
    kAmplitude,  // input dim <= 2^num_qubits real features
  };

  InputMode input = InputMode::kAngle;
  /// Output dim: num_qubits for kExpectationZ, 2^num_qubits for
  /// kProbabilities.
  qsim::Readout output = qsim::Readout::kExpectationZ;

  /// Input feature count. For kAngle this must equal num_qubits; for
  /// kAmplitude it may be any value <= 2^num_qubits (zero-padded).
  int input_dim = 4;

  /// Which simulation regime the layer's measurements run under: exact
  /// statevector (default), Monte-Carlo noise trajectories, or finite
  /// measurement shots. Gradients always use the exact adjoint path from
  /// the noiseless final states, so they do not depend on the regime; see
  /// qsim/backend.h.
  qsim::SimulationOptions sim{};
};

class QuantumLayer {
 public:
  QuantumLayer(const QuantumLayerConfig& config, sqvae::Rng& rng);

  /// Builds the forward pass for a batch (rows = samples) and registers the
  /// adjoint backward. Input column count must equal config().input_dim.
  ad::Var forward(ad::Tape& tape, ad::Var input);

  /// Inference-only forward (no tape).
  Matrix forward_values(const Matrix& input) const;

  const QuantumLayerConfig& config() const { return config_; }
  int output_dim() const;
  std::size_t num_parameters() const { return weights_.size(); }
  ad::Parameter& weights() { return weights_; }
  const qsim::Circuit& circuit() const { return circuit_; }
  /// The compiled (gate-fused, batch-parallel) execution plan every forward
  /// and adjoint pass of this layer runs through.
  const qsim::CircuitExecutor& executor() const { return executor_; }

 private:
  /// Measures `input` under config_.sim: fills `slots` with each row's slot
  /// vector and, when non-null, `finals` with its noiseless final state.
  Matrix measure(const Matrix& input, std::vector<std::vector<double>>& slots,
                 std::vector<qsim::Statevector>* finals) const;

  /// Assembles the full slot vector for one sample (angle mode prepends the
  /// input angles to the weights) and the initial state.
  std::vector<double> slot_values(const std::vector<double>& input_row) const;
  qsim::Statevector initial_state(const std::vector<double>& input_row) const;

  QuantumLayerConfig config_;
  // Angle mode: embedding inputs occupy slots [0, num_qubits); weights
  // start at this offset. Declared before circuit_ so the builder can rely
  // on it being final.
  int weight_slot_offset_ = 0;
  qsim::Circuit circuit_;
  qsim::CircuitExecutor executor_;  // compiled from circuit_, kept in sync
  ad::Parameter weights_;
};

}  // namespace sqvae::models
