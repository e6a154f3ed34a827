#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>

#include "common/rng.h"
#include "qsim/density_matrix.h"
#include "qsim/embedding.h"
#include "qsim/serialize.h"

namespace sqvae::qsim {
namespace {

Circuit random_layered_circuit(int qubits, int layers, std::uint64_t seed,
                               std::vector<double>* params) {
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  Rng rng(seed);
  params->resize(static_cast<std::size_t>(c.num_param_slots()));
  for (double& p : *params) p = rng.uniform(-3, 3);
  return c;
}

TEST(DensityMatrix, PureEvolutionMatchesStatevector) {
  std::vector<double> params;
  const Circuit c = random_layered_circuit(3, 2, 42, &params);

  const Statevector psi = run_from_zero(c, params);
  DensityMatrix rho(3);
  for (const GateOp& op : c.ops()) rho.apply_op(op, params);

  const DensityMatrix expected = DensityMatrix::from_pure(psi);
  for (std::size_t r = 0; r < rho.dim(); ++r) {
    for (std::size_t col = 0; col < rho.dim(); ++col) {
      EXPECT_NEAR(std::abs(rho.at(r, col) - expected.at(r, col)), 0.0, 1e-12);
    }
  }
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(rho.expectation_z(q), psi.expectation_z(q), 1e-12);
  }
}

TEST(DensityMatrix, ControlledGatesMatchStatevector) {
  Circuit c(3);
  c.h(0).cry(0, 1, Param::value(0.8)).crz(1, 2, Param::value(-1.2));
  c.swap(0, 2).cz(0, 1);
  const Statevector psi = run_from_zero(c, {});
  DensityMatrix rho(3);
  for (const GateOp& op : c.ops()) rho.apply_op(op, {});
  const auto p_sv = psi.probabilities();
  const auto p_dm = rho.probabilities();
  for (std::size_t i = 0; i < p_sv.size(); ++i) {
    EXPECT_NEAR(p_dm[i], p_sv[i], 1e-12) << i;
  }
}

TEST(DensityMatrix, DepolarizingPreservesTraceLowersPurity) {
  std::vector<double> params;
  const Circuit c = random_layered_circuit(3, 2, 7, &params);
  DensityMatrix rho(3);
  for (const GateOp& op : c.ops()) rho.apply_op(op, params);
  const double purity_before = rho.purity();
  rho.apply_depolarizing(1, 0.2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), purity_before);
}

TEST(DensityMatrix, FullDepolarizationApproachesMaximallyMixedQubit) {
  // Repeated strong channels on one qubit of |+>: <Z> and <X>-coherence
  // vanish on that qubit.
  DensityMatrix rho(1);
  rho.apply_single(gate_matrix(GateKind::kH, 0.0), 0);
  for (int i = 0; i < 50; ++i) rho.apply_depolarizing(0, 0.5);
  EXPECT_NEAR(rho.expectation_z(0), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(rho.at(0, 1)), 0.0, 1e-9);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-9);
}

TEST(DensityMatrix, AnalyticDepolarizingDamping) {
  // k channels of strength p on Z eigenstate: <Z> = (1 - 4p/3)^k, exactly.
  DensityMatrix rho(1);
  const double p = 0.1;
  const int k = 6;
  for (int i = 0; i < k; ++i) rho.apply_depolarizing(0, p);
  EXPECT_NEAR(rho.expectation_z(0), std::pow(1.0 - 4.0 * p / 3.0, k), 1e-12);
}

TEST(DensityMatrix, TrajectoryAverageConvergesToExactChannel) {
  // The load-bearing cross-validation: stochastic Pauli trajectories
  // (noise.h) must converge to the exact density-matrix channel.
  std::vector<double> params;
  const Circuit c = random_layered_circuit(3, 2, 99, &params);
  const NoiseModel noise{0.03};

  const DensityMatrix exact = run_density(c, params, noise);
  Rng rng(123);
  const auto sampled = noisy_expectations_z(c, params, noise, 20000, rng);
  for (int q = 0; q < 3; ++q) {
    EXPECT_NEAR(sampled[static_cast<std::size_t>(q)], exact.expectation_z(q),
                0.02)
        << q;
  }
}

TEST(Serialize, RoundTripPreservesCircuit) {
  Circuit c(4);
  c.h(0).ry(1, Param::slot(0)).rz(2, Param::value(0.5));
  c.cnot(0, 3).crz(1, 2, Param::slot(5)).swap(0, 2);
  c.x(3).s(1).t(0).cry(3, 0, Param::value(-1.25));

  const std::string text = circuit_to_text(c);
  const auto parsed = circuit_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_qubits(), 4);
  EXPECT_EQ(parsed->num_ops(), c.num_ops());
  EXPECT_EQ(parsed->num_param_slots(), c.num_param_slots());
  // Behavioural equality: identical statevectors for random parameters.
  std::vector<double> params(static_cast<std::size_t>(c.num_param_slots()));
  Rng rng(3);
  for (double& p : params) p = rng.uniform(-3, 3);
  const Statevector a = run_from_zero(c, params);
  const Statevector b = run_from_zero(*parsed, params);
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-14);
  }
  // Text is stable under a second round trip.
  EXPECT_EQ(circuit_to_text(*parsed), text);
}

TEST(Serialize, ConstantAnglesRoundTripBitExactly) {
  for (const double theta : {std::numbers::pi / 3, 1e-300, -0.0, 0.1}) {
    Circuit c(2);
    c.ry(0, Param::value(theta)).crz(0, 1, Param::value(-theta));
    const auto parsed = circuit_from_text(circuit_to_text(c));
    ASSERT_TRUE(parsed.has_value()) << theta;
    ASSERT_EQ(parsed->num_ops(), 2u);
    const double back = parsed->ops()[0].param.constant;
    EXPECT_EQ(std::memcmp(&back, &theta, sizeof(theta)), 0) << theta;
    EXPECT_EQ(parsed->ops()[1].param.constant, -theta);
    EXPECT_EQ(circuit_to_text(*parsed), circuit_to_text(c));
  }
}

TEST(Serialize, EntanglingLayersRoundTrip) {
  Circuit c(5);
  c.angle_embedding(0);
  c.strongly_entangling_layers(3, 5);
  const auto parsed = circuit_from_text(circuit_to_text(c));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_param_slots(), c.num_param_slots());
  EXPECT_EQ(parsed->num_ops(), c.num_ops());
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_FALSE(circuit_from_text("").has_value());
  EXPECT_FALSE(circuit_from_text("wires 3\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 0\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 2\nFOO t=0\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 2\nRY t=5 theta=0.1\n").has_value());
  // no theta
  EXPECT_FALSE(circuit_from_text("qubits 2\nRY t=0\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 2\nH t=0 theta=1\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 2\nCNOT t=0\n").has_value());
  EXPECT_FALSE(
      circuit_from_text("qubits 2\nCNOT c=0 t=0\n").has_value());  // c == t
  EXPECT_FALSE(
      circuit_from_text("qubits 2\nRY t=0 theta=p[-1]\n").has_value());
  EXPECT_FALSE(circuit_from_text("qubits 2\nRY t=0 theta=abc\n").has_value());
  // Each number must be the whole value, and angles must be finite.
  for (const char* bad : {"0.5abc", "nan", "inf", "-inf", "1e400", "+0.5",
                          "p[1x]"}) {
    EXPECT_FALSE(circuit_from_text(std::string("qubits 2\nRY t=0 theta=") +
                                   bad + "\n")
                     .has_value())
        << bad;
  }
  EXPECT_FALSE(circuit_from_text("qubits 2\nRY t=0x theta=1\n").has_value());
  EXPECT_FALSE(
      circuit_from_text("qubits 2\nCNOT c=1.5 t=0\n").has_value());
}

}  // namespace
}  // namespace sqvae::qsim
