#include "models/quantum_layer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "qsim/backend.h"

namespace sqvae::models {
namespace {

using ad::Parameter;
using ad::Tape;
using ad::Var;

QuantumLayerConfig angle_config(int qubits, int layers) {
  QuantumLayerConfig c;
  c.num_qubits = qubits;
  c.entangling_layers = layers;
  c.input = QuantumLayerConfig::InputMode::kAngle;
  c.output = qsim::Readout::kExpectationZ;
  c.input_dim = qubits;
  return c;
}

QuantumLayerConfig amplitude_config(int qubits, int layers, int input_dim,
                                    bool probs = false) {
  QuantumLayerConfig c;
  c.num_qubits = qubits;
  c.entangling_layers = layers;
  c.input = QuantumLayerConfig::InputMode::kAmplitude;
  c.output = probs ? qsim::Readout::kProbabilities
                   : qsim::Readout::kExpectationZ;
  c.input_dim = input_dim;
  return c;
}

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double lo,
                     double hi) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.uniform(lo, hi);
  return m;
}

TEST(QuantumLayer, OutputShapes) {
  Rng rng(1);
  QuantumLayer expectation_layer(angle_config(4, 2), rng);
  EXPECT_EQ(expectation_layer.output_dim(), 4);
  EXPECT_EQ(expectation_layer.num_parameters(), 4u * 2u * 3u);

  QuantumLayer prob_layer(amplitude_config(3, 1, 8, /*probs=*/true), rng);
  EXPECT_EQ(prob_layer.output_dim(), 8);

  Tape tape;
  Var x = tape.constant(random_matrix(5, 4, rng, -1, 1));
  Var y = expectation_layer.forward(tape, x);
  EXPECT_EQ(tape.value(y).rows(), 5u);
  EXPECT_EQ(tape.value(y).cols(), 4u);
}

TEST(QuantumLayer, ExpectationsInPhysicalRange) {
  Rng rng(2);
  QuantumLayer layer(angle_config(3, 3), rng);
  const Matrix x = random_matrix(8, 3, rng, -3, 3);
  const Matrix y = layer.forward_values(x);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_GE(y[i], -1.0);
    EXPECT_LE(y[i], 1.0);
  }
}

TEST(QuantumLayer, ProbabilitiesSumToOne) {
  Rng rng(3);
  QuantumLayer layer(amplitude_config(4, 2, 16, /*probs=*/true), rng);
  const Matrix x = random_matrix(6, 16, rng, 0, 5);
  const Matrix y = layer.forward_values(x);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < y.cols(); ++c) sum += y(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(QuantumLayer, RowsAreIndependent) {
  // A batch forward must equal per-row forwards (no cross-sample state).
  Rng rng(4);
  QuantumLayer layer(angle_config(3, 2), rng);
  const Matrix batch = random_matrix(4, 3, rng, -2, 2);
  const Matrix batched = layer.forward_values(batch);
  for (std::size_t r = 0; r < 4; ++r) {
    Matrix single(1, 3);
    for (std::size_t c = 0; c < 3; ++c) single(0, c) = batch(r, c);
    const Matrix one = layer.forward_values(single);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(one(0, c), batched(r, c), 1e-14);
    }
  }
}

/// FD check of d(loss)/d(p) for every element of a parameter through a
/// quantum layer graph.
void check_fd(Parameter& p, const std::function<double()>& eval,
              const Matrix& analytic, double tol = 2e-5) {
  const double eps = 1e-5;
  for (std::size_t i = 0; i < p.value.size(); ++i) {
    const double saved = p.value[i];
    p.value[i] = saved + eps;
    const double plus = eval();
    p.value[i] = saved - eps;
    const double minus = eval();
    p.value[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), tol)
        << "element " << i;
  }
}

class QuantumLayerGradients : public ::testing::TestWithParam<int> {};

TEST_P(QuantumLayerGradients, AngleModeWeightsAndInputsMatchFd) {
  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  const int qubits = GetParam();
  QuantumLayer layer(angle_config(qubits, 2), rng);
  Parameter input(random_matrix(2, static_cast<std::size_t>(qubits), rng,
                                -1.5, 1.5));
  const Matrix target(2, static_cast<std::size_t>(qubits), 0.3);

  auto build = [&](ad::Tape& t) {
    return t.mse_loss(layer.forward(t, t.leaf(&input)), target);
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };

  Tape tape;
  Var loss = build(tape);
  input.zero_grad();
  layer.weights().zero_grad();
  tape.backward(loss);

  check_fd(input, eval, input.grad);
  check_fd(layer.weights(), eval, layer.weights().grad);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantumLayerGradients,
                         ::testing::Values(2, 3, 4));

TEST(QuantumLayerGradients, AmplitudeModeExpectationMatchesFd) {
  Rng rng(200);
  QuantumLayer layer(amplitude_config(3, 2, 8), rng);
  Parameter input(random_matrix(2, 8, rng, 0.2, 2.0));
  const Matrix target(2, 3, -0.1);

  auto build = [&](Tape& t) {
    return t.mse_loss(layer.forward(t, t.leaf(&input)), target);
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  Tape tape;
  Var loss = build(tape);
  input.zero_grad();
  layer.weights().zero_grad();
  tape.backward(loss);
  check_fd(input, eval, input.grad);
  check_fd(layer.weights(), eval, layer.weights().grad);
}

TEST(QuantumLayerGradients, AmplitudeModeProbabilitiesMatchesFd) {
  Rng rng(201);
  QuantumLayer layer(amplitude_config(2, 2, 4, /*probs=*/true), rng);
  Parameter input(random_matrix(1, 4, rng, 0.3, 2.0));
  const Matrix target(1, 4, 0.25);

  auto build = [&](Tape& t) {
    return t.mse_loss(layer.forward(t, t.leaf(&input)), target);
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  Tape tape;
  Var loss = build(tape);
  input.zero_grad();
  layer.weights().zero_grad();
  tape.backward(loss);
  check_fd(input, eval, input.grad);
  check_fd(layer.weights(), eval, layer.weights().grad);
}

TEST(QuantumLayerGradients, AngleModeProbabilitiesDecoderPath) {
  // The F-BQ decoder configuration: angle in, probabilities out.
  Rng rng(202);
  QuantumLayerConfig c;
  c.num_qubits = 3;
  c.entangling_layers = 2;
  c.input = QuantumLayerConfig::InputMode::kAngle;
  c.output = qsim::Readout::kProbabilities;
  c.input_dim = 3;
  QuantumLayer layer(c, rng);
  Parameter input(random_matrix(2, 3, rng, -1, 1));
  const Matrix target(2, 8, 0.125);

  auto build = [&](Tape& t) {
    return t.mse_loss(layer.forward(t, t.leaf(&input)), target);
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  Tape tape;
  Var loss = build(tape);
  input.zero_grad();
  layer.weights().zero_grad();
  tape.backward(loss);
  check_fd(input, eval, input.grad);
  check_fd(layer.weights(), eval, layer.weights().grad);
}

TEST(QuantumLayerGradients, ConstantInputLeavesWeightGradientsBitIdentical) {
  // A constant input (every SQ encoder patch reads a slice of the batch)
  // skips the per-row input cotangents; the weight gradients must not move
  // by a bit against the same graph with a trainable input.
  Rng rng(300);
  for (const bool amplitude : {true, false}) {
    const QuantumLayerConfig config =
        amplitude ? amplitude_config(4, 2, 16) : angle_config(4, 2);
    QuantumLayer layer(config, rng);
    const Matrix x = random_matrix(
        5, static_cast<std::size_t>(config.input_dim), rng, 0.1, 1.2);
    const Matrix target(5, static_cast<std::size_t>(layer.output_dim()), 0.2);

    auto weight_grads = [&](bool trainable_input) {
      Parameter input(x);
      Tape t;
      Var in = trainable_input ? t.leaf(&input) : t.constant(x);
      layer.weights().zero_grad();
      input.zero_grad();
      t.backward(t.mse_loss(layer.forward(t, in), target));
      if (trainable_input) {
        double norm = 0.0;
        for (std::size_t i = 0; i < input.grad.size(); ++i) {
          norm += std::abs(input.grad[i]);
        }
        EXPECT_GT(norm, 0.0);
      }
      return layer.weights().grad;
    };
    const Matrix with_input = weight_grads(true);
    const Matrix constant_input = weight_grads(false);
    ASSERT_EQ(with_input.size(), constant_input.size());
    EXPECT_EQ(std::memcmp(with_input.data(), constant_input.data(),
                          with_input.size() * sizeof(double)),
              0)
        << (amplitude ? "amplitude" : "angle");
  }
}

TEST(QuantumLayerGradients, EveryBackendGivesTheExactGradientBitwise) {
  // The backward walks the plan back from the noiseless final state the
  // forward's measure_batch call handed over. With the cotangent c fixed
  // by the loss sum(y * c), weight and input gradients must not move by a
  // bit between measurement regimes: a trajectory regime that handed back
  // its unfused noiseless pass would differ in the last bits.
  qsim::SimulationOptions trajectory;
  trajectory.backend = qsim::BackendKind::kTrajectory;
  trajectory.noise.gate_error = 0.05;
  trajectory.shots = 16;
  qsim::SimulationOptions shots;
  shots.backend = qsim::BackendKind::kShotSampling;
  shots.shots = 64;
  for (const bool amplitude : {true, false}) {
    QuantumLayerConfig config =
        amplitude ? amplitude_config(4, 2, 16) : angle_config(4, 2);
    std::vector<Matrix> weight_grads;
    std::vector<Matrix> input_grads;
    for (const qsim::SimulationOptions& sim :
         {qsim::SimulationOptions{}, trajectory, shots}) {
      config.sim = sim;
      Rng rng(310);  // the same weights, inputs and cotangent every time
      QuantumLayer layer(config, rng);
      Parameter input(random_matrix(
          3, static_cast<std::size_t>(config.input_dim), rng, 0.1, 1.2));
      const Matrix c = random_matrix(
          3, static_cast<std::size_t>(layer.output_dim()), rng, -1.0, 1.0);
      Tape t;
      const Var y = layer.forward(t, t.leaf(&input));
      double value = 0.0;
      for (std::size_t i = 0; i < c.size(); ++i) value += t.value(y)[i] * c[i];
      const Var loss = t.custom(
          {y}, Matrix(1, 1, value), [y, c](Tape& tape, const Matrix& g) {
            tape.accum_grad(y, c * g(0, 0));
          });
      t.backward(loss);
      weight_grads.push_back(layer.weights().grad);
      input_grads.push_back(input.grad);
    }
    for (std::size_t b = 1; b < weight_grads.size(); ++b) {
      ASSERT_EQ(weight_grads[b].size(), weight_grads[0].size());
      EXPECT_EQ(std::memcmp(weight_grads[b].data(), weight_grads[0].data(),
                            weight_grads[0].size() * sizeof(double)),
                0)
          << (amplitude ? "amplitude" : "angle") << " backend " << b;
      ASSERT_EQ(input_grads[b].size(), input_grads[0].size());
      EXPECT_EQ(std::memcmp(input_grads[b].data(), input_grads[0].data(),
                            input_grads[0].size() * sizeof(double)),
                0)
          << (amplitude ? "amplitude" : "angle") << " backend " << b;
    }
  }
}

TEST(QuantumLayer, ValuesOnlyTapeRecordsAConstantWithTheSameBits) {
  Rng rng(320);
  QuantumLayer layer(amplitude_config(4, 2, 16), rng);
  const Matrix x = random_matrix(3, 16, rng, 0.1, 1.2);
  Tape differentiable;
  const Var y = layer.forward(differentiable, differentiable.constant(x));
  EXPECT_TRUE(differentiable.requires_grad(y));
  Tape values_only{ad::ValuesOnly{}};
  const Var v = layer.forward(values_only, values_only.constant(x));
  EXPECT_FALSE(values_only.requires_grad(v));
  const Matrix& a = differentiable.value(y);
  const Matrix& b = values_only.value(v);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(QuantumLayer, WeightsInitializedInPiRange) {
  Rng rng(5);
  QuantumLayer layer(angle_config(5, 4), rng);
  for (std::size_t i = 0; i < layer.weights().value.size(); ++i) {
    EXPECT_GE(layer.weights().value[i], -M_PI);
    EXPECT_LE(layer.weights().value[i], M_PI);
  }
}

}  // namespace
}  // namespace sqvae::models
