// Gradient cross-check for the executor-backed training path: the adjoint
// sweep run through CircuitExecutor::run_batch then adjoint_batch (fused
// forward, then the exact reverse walk from its final state) must agree
// with the parameter-shift oracle — which shares no code with the
// executor beyond the raw statevector kernels — on the exact
// circuits QuantumLayer trains: angle/amplitude embedding × expectation/
// probability measurement, for every parameter slot including the embedding
// slots that carry input gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "models/quantum_layer.h"
#include "qsim/embedding.h"
#include "qsim/executor.h"
#include "qsim/observable.h"
#include "qsim/paramshift.h"

namespace sqvae::models {
namespace {

using qsim::CircuitExecutor;
using qsim::Statevector;

constexpr double kTol = 1e-6;

struct ModeCase {
  QuantumLayerConfig::InputMode input;
  qsim::Readout output;
  const char* name;
};

const ModeCase kModes[] = {
    {QuantumLayerConfig::InputMode::kAngle,
     qsim::Readout::kExpectationZ, "angle/expZ"},
    {QuantumLayerConfig::InputMode::kAngle,
     qsim::Readout::kProbabilities, "angle/probs"},
    {QuantumLayerConfig::InputMode::kAmplitude,
     qsim::Readout::kExpectationZ, "amplitude/expZ"},
    {QuantumLayerConfig::InputMode::kAmplitude,
     qsim::Readout::kProbabilities, "amplitude/probs"},
};

TEST(ExecutorGradientCrossCheck, AdjointBatchAgreesWithParameterShift) {
  for (const ModeCase& mode : kModes) {
    for (const int qubits : {2, 3, 4}) {
      sqvae::Rng rng(1000 + qubits);
      QuantumLayerConfig config;
      config.num_qubits = qubits;
      config.entangling_layers = 2;
      config.input = mode.input;
      config.output = mode.output;
      config.input_dim =
          mode.input == QuantumLayerConfig::InputMode::kAngle
              ? qubits
              : (1 << qubits);
      QuantumLayer layer(config, rng);

      // Random input row and upstream cotangent.
      std::vector<double> input(static_cast<std::size_t>(config.input_dim));
      for (double& v : input) v = rng.uniform(0.1, 1.5);
      std::vector<double> cotangent(
          static_cast<std::size_t>(layer.output_dim()));
      for (double& v : cotangent) v = rng.uniform(-1, 1);

      // Full slot vector in QuantumLayer's layout: angle mode prepends the
      // input angles to the weights; amplitude mode is weights only.
      std::vector<double> slots;
      if (mode.input == QuantumLayerConfig::InputMode::kAngle) {
        slots = input;
      }
      const Matrix& w = layer.weights().value;
      slots.insert(slots.end(), w.data(), w.data() + w.size());

      Statevector initial =
          mode.input == QuantumLayerConfig::InputMode::kAmplitude
              ? qsim::amplitude_embedding(input, qubits)
              : Statevector(qubits);

      std::vector<double> diag;
      if (mode.output == qsim::Readout::kExpectationZ) {
        diag = qsim::weighted_z_diagonal(qubits, cotangent);
      } else {
        diag = qsim::probability_vjp_diagonal(cotangent);
      }

      std::vector<Statevector> finals{initial};
      layer.executor().run_batch({slots}, finals);
      const auto results =
          layer.executor().adjoint_batch({slots}, finals, {diag});
      ASSERT_EQ(results.size(), 1u);
      const std::vector<double>& adjoint_grads = results[0].param_grads;

      const std::vector<double> shift_grads = qsim::parameter_shift_gradient(
          layer.circuit(), slots, initial, diag);

      ASSERT_EQ(adjoint_grads.size(), shift_grads.size())
          << mode.name << " q=" << qubits;
      for (std::size_t s = 0; s < shift_grads.size(); ++s) {
        EXPECT_NEAR(adjoint_grads[s], shift_grads[s], kTol)
            << mode.name << " q=" << qubits << " slot " << s;
      }
    }
  }
}

TEST(ExecutorGradientCrossCheck, ExecutorValueMatchesMeasuredExpectation) {
  // The adjoint value (the weighted observable expectation) must equal the
  // cotangent-weighted layer output computed by the forward path.
  for (const ModeCase& mode : kModes) {
    sqvae::Rng rng(77);
    QuantumLayerConfig config;
    config.num_qubits = 3;
    config.entangling_layers = 2;
    config.input = mode.input;
    config.output = mode.output;
    config.input_dim =
        mode.input == QuantumLayerConfig::InputMode::kAngle ? 3 : 8;
    QuantumLayer layer(config, rng);

    Matrix input(1, static_cast<std::size_t>(config.input_dim));
    for (std::size_t i = 0; i < input.size(); ++i) {
      input[i] = rng.uniform(0.1, 1.0);
    }
    const Matrix out = layer.forward_values(input);

    std::vector<double> cotangent(
        static_cast<std::size_t>(layer.output_dim()));
    for (double& v : cotangent) v = rng.uniform(-1, 1);
    double expected = 0.0;
    for (std::size_t i = 0; i < cotangent.size(); ++i) {
      expected += cotangent[i] * out(0, i);
    }

    std::vector<double> slots;
    const std::vector<double> row = input.row(0);
    if (mode.input == QuantumLayerConfig::InputMode::kAngle) slots = row;
    const Matrix& w = layer.weights().value;
    slots.insert(slots.end(), w.data(), w.data() + w.size());

    Statevector initial =
        mode.input == QuantumLayerConfig::InputMode::kAmplitude
            ? qsim::amplitude_embedding(row, 3)
            : Statevector(3);
    std::vector<double> diag =
        mode.output == qsim::Readout::kExpectationZ
            ? qsim::weighted_z_diagonal(3, cotangent)
            : qsim::probability_vjp_diagonal(cotangent);

    std::vector<Statevector> finals{initial};
    layer.executor().run_batch({slots}, finals);
    const auto results =
        layer.executor().adjoint_batch({slots}, finals, {diag});
    EXPECT_NEAR(results[0].value, expected, 1e-9) << mode.name;
  }
}

}  // namespace
}  // namespace sqvae::models
