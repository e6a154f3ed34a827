#include "qsim/circuit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/rng.h"
#include "qsim/embedding.h"

namespace sqvae::qsim {
namespace {

TEST(Circuit, SlotAccountingTracksHighestSlot) {
  Circuit c(3);
  EXPECT_EQ(c.num_param_slots(), 0);
  c.rx(0, Param::slot(0));
  EXPECT_EQ(c.num_param_slots(), 1);
  c.ry(1, Param::slot(5));
  EXPECT_EQ(c.num_param_slots(), 6);
  c.rz(2, Param::value(1.0));  // constants do not consume slots
  EXPECT_EQ(c.num_param_slots(), 6);
}

TEST(Circuit, RotDecomposesToRzRyRz) {
  // Rot(phi, theta, omega)|psi> == RZ(omega) RY(theta) RZ(phi) |psi>.
  Rng rng(3);
  const double phi = 0.7, theta = -1.1, omega = 2.3;

  Circuit rot_circuit(1);
  rot_circuit.rot(0, Param::value(phi), Param::value(theta),
                  Param::value(omega));
  Statevector a(1);
  a.apply_single(gate_matrix(GateKind::kH, 0), 0);  // non-trivial input
  Statevector b = a;
  run(rot_circuit, {}, a);

  b.apply_single(gate_matrix(GateKind::kRZ, phi), 0);
  b.apply_single(gate_matrix(GateKind::kRY, theta), 0);
  b.apply_single(gate_matrix(GateKind::kRZ, omega), 0);

  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
  }
}

TEST(Circuit, EntanglingLayerParamCount) {
  // 3 params per qubit per layer (paper: L layers of Rot + CNOT ring).
  EXPECT_EQ(Circuit::entangling_layer_param_count(6, 3), 54);
  EXPECT_EQ(Circuit::entangling_layer_param_count(9, 5), 135);
  Circuit c(6);
  const int next = c.strongly_entangling_layers(3, 0);
  EXPECT_EQ(next, 54);
  EXPECT_EQ(c.num_param_slots(), 54);
  // Per layer: 6 Rot = 18 one-parameter gates + 6 CNOTs = 24 ops.
  EXPECT_EQ(c.num_ops(), 3u * 24u);
}

TEST(Circuit, EntanglingLayerOnSingleQubitHasNoCnot) {
  Circuit c(1);
  c.strongly_entangling_layers(2, 0);
  for (const GateOp& op : c.ops()) {
    EXPECT_NE(op.kind, GateKind::kCNOT);
  }
  EXPECT_EQ(c.num_param_slots(), 6);
}

TEST(Circuit, AngleEmbeddingUsesOneSlotPerQubit) {
  Circuit c(5);
  const int next = c.angle_embedding(0);
  EXPECT_EQ(next, 5);
  EXPECT_EQ(c.num_ops(), 5u);
  // Angle embedding is RY rotations: <Z_q> = cos(x_q) from |0...0>.
  const std::vector<double> x = {0.3, -0.9, 1.7, 0.0, 2.2};
  Statevector s = run_from_zero(c, x);
  for (int q = 0; q < 5; ++q) {
    EXPECT_NEAR(s.expectation_z(q), std::cos(x[static_cast<std::size_t>(q)]),
                1e-12);
  }
}

TEST(Circuit, RunFromZeroMatchesManualRun) {
  Rng rng(5);
  Circuit c(3);
  c.strongly_entangling_layers(2, 0);
  std::vector<double> params(static_cast<std::size_t>(c.num_param_slots()));
  for (double& p : params) p = rng.uniform(-3, 3);
  Statevector manual(3);
  run(c, params, manual);
  Statevector direct = run_from_zero(c, params);
  for (std::size_t i = 0; i < manual.dim(); ++i) {
    EXPECT_NEAR(std::abs(manual[i] - direct[i]), 0.0, 1e-14);
  }
}

TEST(Circuit, DaggerUndoesEveryGateKind) {
  Rng rng(8);
  Circuit c(3);
  c.h(0).rx(1, Param::value(0.4)).cnot(0, 2).crz(1, 2, Param::value(-0.9));
  c.cry(2, 0, Param::value(1.3)).s(1).t(2).swap(0, 1).cz(1, 2);
  c.x(0).y(1).z(2).crx(0, 1, Param::value(0.2));

  Statevector s(3);
  // Random initial state.
  for (int q = 0; q < 3; ++q) {
    s.apply_single(gate_matrix(GateKind::kRY, rng.uniform(-3, 3)), q);
    s.apply_single(gate_matrix(GateKind::kRZ, rng.uniform(-3, 3)), q);
  }
  const Statevector original = s;
  run(c, {}, s);
  // Undo in reverse.
  const auto& ops = c.ops();
  for (std::size_t k = ops.size(); k > 0; --k) {
    apply_op_dagger(s, ops[k - 1], {});
  }
  for (std::size_t i = 0; i < s.dim(); ++i) {
    EXPECT_NEAR(std::abs(s[i] - original[i]), 0.0, 1e-12);
  }
}

TEST(Embedding, AmplitudeEmbeddingNormalizes) {
  const std::vector<double> x = {3.0, 4.0};
  Statevector s = amplitude_embedding(x, 2);
  EXPECT_TRUE(s.is_normalized());
  EXPECT_NEAR(s[0].real(), 0.6, 1e-12);
  EXPECT_NEAR(s[1].real(), 0.8, 1e-12);
  EXPECT_NEAR(std::abs(s[2]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(s[3]), 0.0, 1e-12);
}

TEST(Embedding, ZeroVectorMapsToGroundState) {
  Statevector s = amplitude_embedding({0.0, 0.0, 0.0}, 2);
  EXPECT_NEAR(s[0].real(), 1.0, 1e-12);
}

TEST(Embedding, BackwardMatchesFiniteDifference) {
  // Scalar function f(x) = sum_j g_j * phi_j(x), phi = x/||x||.
  Rng rng(21);
  std::vector<double> x = {0.5, -1.2, 2.0, 0.3};
  std::vector<double> g = {0.7, 0.1, -0.4, 0.9};
  // state_grad must cover the full 2^n amplitudes; pad with zeros.
  std::vector<double> state_grad = g;
  const std::vector<double> dx = amplitude_embedding_backward(x, state_grad);
  auto f = [&](const std::vector<double>& v) {
    const Statevector s = amplitude_embedding(v, 2);
    double sum = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) sum += g[j] * s[j].real();
    return sum;
  };
  const double eps = 1e-7;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    EXPECT_NEAR(dx[i], (f(xp) - f(xm)) / (2 * eps), 1e-6) << "feature " << i;
  }
}

TEST(Embedding, ExpectationsZHelper) {
  Statevector s(3);
  s.apply_single(gate_matrix(GateKind::kRY, 0.9), 1);
  const std::vector<double> e = expectations_z(s);
  ASSERT_EQ(e.size(), 3u);
  EXPECT_NEAR(e[0], 1.0, 1e-12);
  EXPECT_NEAR(e[1], std::cos(0.9), 1e-12);
  EXPECT_NEAR(e[2], 1.0, 1e-12);
}

}  // namespace
}  // namespace sqvae::qsim
