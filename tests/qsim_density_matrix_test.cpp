#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "qsim/density_matrix.h"
#include "qsim/embedding.h"

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

}  // namespace
}  // namespace sqvae::qsim
