#include "models/quantum_layer.h"

#include <cassert>
#include <numbers>

#include "qsim/adjoint.h"
#include "qsim/embedding.h"
#include "qsim/observable.h"

namespace sqvae::models {

using qsim::Circuit;
using qsim::Statevector;

namespace {

Matrix init_weights(int count, sqvae::Rng& rng) {
  Matrix w(1, static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = rng.uniform(-std::numbers::pi, std::numbers::pi);
  }
  return w;
}

int weight_offset_for(const QuantumLayerConfig& config) {
  return config.input == QuantumLayerConfig::InputMode::kAngle
             ? config.num_qubits
             : 0;
}

Circuit build_circuit(const QuantumLayerConfig& config) {
  Circuit c(config.num_qubits);
  int slot = 0;
  if (config.input == QuantumLayerConfig::InputMode::kAngle) {
    slot = c.angle_embedding(slot);  // slots [0, num_qubits)
  }
  c.strongly_entangling_layers(config.entangling_layers, slot);
  return c;
}

}  // namespace

QuantumLayer::QuantumLayer(const QuantumLayerConfig& config, sqvae::Rng& rng)
    : config_(config),
      weight_slot_offset_(weight_offset_for(config)),
      circuit_(build_circuit(config)),
      executor_(circuit_),
      weights_(init_weights(
          Circuit::entangling_layer_param_count(config.num_qubits,
                                                config.entangling_layers),
          rng)) {
  if (config_.input == QuantumLayerConfig::InputMode::kAngle) {
    assert(config_.input_dim == config_.num_qubits &&
           "angle embedding uses one qubit per feature");
  } else {
    assert(config_.input_dim <= (1 << config_.num_qubits) &&
           "amplitude embedding fits at most 2^n features");
  }
}

int QuantumLayer::output_dim() const {
  return config_.output == qsim::Readout::kExpectationZ
             ? config_.num_qubits
             : (1 << config_.num_qubits);
}

std::vector<double> QuantumLayer::slot_values(
    const std::vector<double>& input_row) const {
  std::vector<double> slots;
  if (config_.input == QuantumLayerConfig::InputMode::kAngle) {
    slots = input_row;
  }
  slots.insert(slots.end(), weights_.value.data(),
               weights_.value.data() + weights_.value.size());
  return slots;
}

Statevector QuantumLayer::initial_state(
    const std::vector<double>& input_row) const {
  if (config_.input == QuantumLayerConfig::InputMode::kAmplitude) {
    return qsim::amplitude_embedding(input_row, config_.num_qubits);
  }
  return Statevector(config_.num_qubits);
}

Matrix QuantumLayer::measure(const Matrix& input,
                             std::vector<std::vector<double>>& slots,
                             std::vector<Statevector>* finals) const {
  assert(input.cols() == static_cast<std::size_t>(config_.input_dim));
  const std::size_t batch = input.rows();

  // Assemble per-sample slot vectors and initial states, then measure the
  // whole mini-batch under the layer's regime (exact statevector, noise
  // trajectories, or shot sampling — all share the compiled plan).
  slots.resize(batch);
  std::vector<Statevector> initials;
  initials.reserve(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    const std::vector<double> row = input.row(r);
    slots[r] = slot_values(row);
    initials.push_back(initial_state(row));
  }
  const std::vector<std::vector<double>> measured = qsim::measure_batch(
      config_.sim, executor_, slots, initials, config_.output, finals);

  Matrix out(batch, static_cast<std::size_t>(output_dim()));
  for (std::size_t r = 0; r < batch; ++r) {
    const std::vector<double>& y = measured[r];
    for (std::size_t c = 0; c < y.size(); ++c) out(r, c) = y[c];
  }
  return out;
}

Matrix QuantumLayer::forward_values(const Matrix& input) const {
  std::vector<std::vector<double>> slots;
  return measure(input, slots, nullptr);
}

ad::Var QuantumLayer::forward(ad::Tape& tape, ad::Var input) {
  // Copy, not reference: tape.leaf() below appends a node and may
  // reallocate the tape's node storage.
  const Matrix in_value = tape.value(input);
  ad::Var w = tape.leaf(&weights_);
  // A values-only tape (inference) records the measurement as a constant
  // and keeps nothing for a backward pass.
  if (!tape.requires_grad(input) && !tape.requires_grad(w)) {
    return tape.constant(forward_values(in_value));
  }

  // The forward keeps each row's slot vector and noiseless final state;
  // the backward walks the plan back from them and runs no forward pass.
  std::vector<std::vector<double>> slots;
  std::vector<Statevector> finals;
  Matrix out = measure(in_value, slots, &finals);

  auto backward = [this, input, w, slots = std::move(slots),
                   finals = std::move(finals)](ad::Tape& t,
                                               const Matrix& out_grad) {
    const Matrix& in_v = t.value(input);
    const std::size_t batch = in_v.rows();
    // A constant input (every SQ encoder patch reads a slice of the batch)
    // has no reader for its cotangent: skip the per-row input gradients.
    const bool input_grad = t.requires_grad(input);
    Matrix grad_in(input_grad ? batch : 0,
                   static_cast<std::size_t>(config_.input_dim));
    Matrix grad_w(1, weights_.value.size());

    // One adjoint sweep per sample, run as a batch through the executor.
    std::vector<std::vector<double>> diags(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      const std::vector<double> cotangent = out_grad.row(r);
      if (config_.output == qsim::Readout::kExpectationZ) {
        diags[r] = qsim::weighted_z_diagonal(config_.num_qubits, cotangent);
      } else {
        diags[r] = qsim::probability_vjp_diagonal(cotangent);
      }
    }
    const std::vector<qsim::AdjointResult> batch_res =
        executor_.adjoint_batch(slots, finals, diags);

    for (std::size_t r = 0; r < batch; ++r) {
      const qsim::AdjointResult& res = batch_res[r];

      // Weight gradients: slots [offset, offset + W).
      for (std::size_t k = 0; k < weights_.value.size(); ++k) {
        grad_w(0, k) +=
            res.param_grads[static_cast<std::size_t>(weight_slot_offset_) + k];
      }
      // Input gradients.
      if (!input_grad) continue;
      if (config_.input == QuantumLayerConfig::InputMode::kAngle) {
        for (int q = 0; q < config_.num_qubits; ++q) {
          grad_in(r, static_cast<std::size_t>(q)) =
              res.param_grads[static_cast<std::size_t>(q)];
        }
      } else {
        const std::vector<double> state_grad =
            qsim::real_initial_gradient(res);
        const std::vector<double> dx =
            qsim::amplitude_embedding_backward(in_v.row(r), state_grad);
        for (std::size_t c = 0; c < dx.size(); ++c) grad_in(r, c) = dx[c];
      }
    }
    if (input_grad) t.accum_grad(input, grad_in);
    t.accum_grad(w, grad_w);
  };

  return tape.custom({input, w}, std::move(out), std::move(backward));
}

}  // namespace sqvae::models
