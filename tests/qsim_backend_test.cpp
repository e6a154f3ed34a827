// Statistical-equivalence and determinism suite for the simulation-backend
// layer (qsim/backend.h).
//
// The load-bearing checks are the 3-sigma equivalence tests: the trajectory
// backend is an unbiased Monte-Carlo unravelling of the depolarizing
// channel, so over >= 2000 trajectories its per-qubit <Z> means must land
// within 3 standard errors of the exact DensityMatrix result on randomized
// noisy circuits; the shot backend's estimates must converge to the exact
// statevector expectations as shots grow. All stochastic draws are seeded
// and keyed by each circuit's inputs, so every test is deterministic
// run-to-run, and a row's estimate does not depend on its batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "models/quantum_layer.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"
#include "qsim/backend.h"
#include "qsim/density_matrix.h"
#include "qsim/embedding.h"

namespace sqvae::qsim {
namespace {

/// Random embedding + entangling circuit of the models' shape.
Circuit random_circuit(int qubits, int layers) {
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(layers, slot);
  return c;
}

std::vector<double> random_params(const Circuit& c, sqvae::Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(c.num_param_slots()));
  for (double& v : p) v = rng.uniform(-3.14159, 3.14159);
  return p;
}

SimulationOptions trajectory_options(double gate_error, std::size_t shots,
                                     std::uint64_t seed) {
  SimulationOptions o;
  o.backend = BackendKind::kTrajectory;
  o.shots = shots;
  o.noise.gate_error = gate_error;
  o.seed = seed;
  return o;
}

SimulationOptions shot_options(std::size_t shots, std::uint64_t seed) {
  SimulationOptions o;
  o.backend = BackendKind::kShotSampling;
  o.shots = shots;
  o.seed = seed;
  return o;
}

TEST(StatevectorBackend, MatchesDirectExecutorRun) {
  sqvae::Rng rng(1);
  const Circuit c = random_circuit(5, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);

  auto backend = SimulationBackend::create(SimulationOptions{});
  ASSERT_EQ(backend->kind(), BackendKind::kStatevector);

  const Statevector state = exec.run_from_zero(params);
  const auto exact_z = expectations_z(state);
  const auto backend_z = backend->expectations_z(exec, params);
  ASSERT_EQ(backend_z.size(), exact_z.size());
  for (std::size_t q = 0; q < exact_z.size(); ++q) {
    EXPECT_NEAR(backend_z[q], exact_z[q], 1e-12) << q;
  }

  const auto exact_p = state.probabilities();
  const auto backend_p = backend->probabilities(exec, params);
  ASSERT_EQ(backend_p.size(), exact_p.size());
  for (std::size_t i = 0; i < exact_p.size(); ++i) {
    EXPECT_NEAR(backend_p[i], exact_p[i], 1e-12) << i;
  }
}

TEST(TrajectoryBackend, ZeroNoiseReproducesExactExpectations) {
  sqvae::Rng rng(2);
  const Circuit c = random_circuit(4, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);

  TrajectoryBackend backend(trajectory_options(0.0, 8, 7));
  const auto traj = backend.expectations_z(exec, params);
  const auto exact = expectations_z(exec.run_from_zero(params));
  for (std::size_t q = 0; q < exact.size(); ++q) {
    EXPECT_NEAR(traj[q], exact[q], 1e-12) << q;
  }
}

// The core 3-sigma statistical-equivalence check: trajectory means vs the
// exact density-matrix channel, randomized circuits, two error rates.
TEST(TrajectoryBackend, MatchesDensityMatrixWithin3Sigma) {
  const std::size_t kTrajectories = 2500;  // >= 2000 per the suite contract
  std::uint64_t seed = 100;
  for (const double gate_error : {0.02, 0.05}) {
    for (const int qubits : {3, 4}) {
      sqvae::Rng rng(seed);
      const Circuit c = random_circuit(qubits, 3);
      const auto params = random_params(c, rng);
      const CircuitExecutor exec(c);

      NoiseModel noise{gate_error};
      const DensityMatrix rho = run_density(c, params, noise);

      TrajectoryBackend backend(
          trajectory_options(gate_error, kTrajectories, seed));
      const TrajectoryEstimate est =
          backend.expectations_z_with_stats(exec, params);

      for (int q = 0; q < qubits; ++q) {
        const double exact = rho.expectation_z(q);
        const double sigma = est.std_error[static_cast<std::size_t>(q)];
        // Small floor guards the (measure-zero) case of a degenerate
        // per-trajectory spread estimate.
        const double bound = 3.0 * sigma + 1e-6;
        EXPECT_NEAR(est.mean[static_cast<std::size_t>(q)], exact, bound)
            << "p=" << gate_error << " qubits=" << qubits << " q=" << q;
      }
      ++seed;
    }
  }
}

TEST(TrajectoryBackend, ProbabilitiesMatchDensityDiagonalWithin3Sigma) {
  const std::size_t kTrajectories = 2500;
  sqvae::Rng rng(11);
  const Circuit c = random_circuit(4, 2);
  const auto params = random_params(c, rng);
  const CircuitExecutor exec(c);
  const double gate_error = 0.04;

  const DensityMatrix rho = run_density(c, params, NoiseModel{gate_error});
  const auto exact = rho.probabilities();

  TrajectoryBackend backend(
      trajectory_options(gate_error, kTrajectories, 21));
  const std::vector<Statevector> initials(1, Statevector(4));
  const auto probs =
      backend.probabilities_batch(exec, {params}, initials)[0];

  ASSERT_EQ(probs.size(), exact.size());
  double total = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    // Per-trajectory bin values live in [0, 1], so the mean's standard
    // error is bounded by 1/(2 sqrt(M)) (Popoviciu).
    const double bound =
        3.0 * 0.5 / std::sqrt(static_cast<double>(kTrajectories));
    EXPECT_NEAR(probs[i], exact[i], bound) << i;
    total += probs[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-9);  // trajectories stay normalised
}

// One qubit through k RZ(0) gates, each a noise location: a Pauli error
// flips the sign of <Z> with probability 2/3, so E[<Z>] = (1 - 4p/3)^k
// (single-qubit depolarizing algebra). The second row is the strong-noise
// regime, where the estimate must reach full depolarization.
TEST(TrajectoryBackend, MatchesAnalyticDepolarizingRate) {
  const std::size_t kTrajectories = 20000;
  struct Row {
    double gate_error;
    int gates;
  };
  for (const Row& r : {Row{0.08, 10}, Row{0.9, 30}}) {
    Circuit c(1);
    for (int i = 0; i < r.gates; ++i) c.rz(0, Param::value(0.0));
    const CircuitExecutor exec(c);
    TrajectoryBackend backend(
        trajectory_options(r.gate_error, kTrajectories, 10));
    const TrajectoryEstimate est = backend.expectations_z_with_stats(exec, {});
    const double analytic = std::pow(1.0 - 4.0 * r.gate_error / 3.0, r.gates);
    EXPECT_NEAR(est.mean[0], analytic, 3.0 * est.std_error[0] + 1e-6)
        << "p=" << r.gate_error << " k=" << r.gates;
  }
}

TEST(ShotBackend, ConvergesToExactExpectationsAsShotsGrow) {
  sqvae::Rng rng(3);
  const Circuit c = random_circuit(4, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);
  const auto exact = expectations_z(exec.run_from_zero(params));

  double previous_rms = 1e9;
  for (const std::size_t shots : {64u, 4096u, 262144u}) {
    ShotSamplingBackend backend(shot_options(shots, 5));
    const auto est = backend.expectations_z(exec, params);
    double rms = 0.0;
    for (std::size_t q = 0; q < exact.size(); ++q) {
      rms += (est[q] - exact[q]) * (est[q] - exact[q]);
      // Exact binomial-sampling error bar: sigma^2 = (1 - <Z>^2) / shots.
      const double sigma =
          std::sqrt((1.0 - exact[q] * exact[q]) /
                    static_cast<double>(shots));
      EXPECT_NEAR(est[q], exact[q], 3.0 * sigma + 1e-9)
          << "shots=" << shots << " q=" << q;
    }
    rms = std::sqrt(rms / static_cast<double>(exact.size()));
    EXPECT_LT(rms, previous_rms) << "shots=" << shots;
    previous_rms = rms;
  }
}

TEST(ShotBackend, ProbabilityHistogramIsNormalisedAndConverges) {
  sqvae::Rng rng(4);
  const Circuit c = random_circuit(3, 2);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);
  const auto exact = exec.run_from_zero(params).probabilities();

  ShotSamplingBackend backend(shot_options(200000, 6));
  const auto est = backend.probabilities(exec, params);
  double total = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(est[i], exact[i], 0.01) << i;
    total += est[i];
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// A basis state leaves nothing to chance: X on qubit 1 of 3 prepares
// |010>, so every shot lands on index 2.
TEST(ShotBackend, BasisStateLandsEveryShotOnItsIndex) {
  Circuit c(3);
  c.x(1);
  const CircuitExecutor exec(c);
  ShotSamplingBackend backend(shot_options(500, 7));
  EXPECT_EQ(backend.expectations_z(exec, {}),
            (std::vector<double>{1.0, -1.0, 1.0}));
  std::vector<double> one_hot(8, 0.0);
  one_hot[2] = 1.0;
  EXPECT_EQ(backend.probabilities(exec, {}), one_hot);
}

// ---- seed plumbing / determinism -----------------------------------------

TEST(BackendDeterminism, SameSeedIsBitReproducible) {
  sqvae::Rng rng(5);
  const Circuit c = random_circuit(4, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);

  for (const auto& options :
       {trajectory_options(0.03, 500, 42), shot_options(2000, 42)}) {
    auto a = SimulationBackend::create(options);
    auto b = SimulationBackend::create(options);
    const auto za = a->expectations_z(exec, params);
    const auto zb = b->expectations_z(exec, params);
    ASSERT_EQ(za.size(), zb.size());
    for (std::size_t q = 0; q < za.size(); ++q) {
      // Bitwise equality, not approximate: the whole stream design exists
      // to make fixed seeds reproduce exactly.
      EXPECT_EQ(za[q], zb[q]) << q;
    }
  }
}

TEST(BackendDeterminism, DifferentSeedsDecorrelate) {
  sqvae::Rng rng(6);
  const Circuit c = random_circuit(4, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);

  ShotSamplingBackend a(shot_options(1000, 1));
  ShotSamplingBackend b(shot_options(1000, 2));
  const auto za = a.expectations_z(exec, params);
  const auto zb = b.expectations_z(exec, params);
  bool any_different = false;
  for (std::size_t q = 0; q < za.size(); ++q) {
    any_different = any_different || za[q] != zb[q];
  }
  EXPECT_TRUE(any_different);
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

// A stochastic estimate is a function of its circuit's inputs alone: a
// repeat, another batch position and other companions replay its bits,
// while inputs whose measured distribution is the same bit for bit still
// draw independent noise when any slot or initial amplitude differs.
TEST(BackendDeterminism, NoiseIsKeyedByCircuitInputsOnly) {
  sqvae::Rng rng(7);
  Circuit c(3);
  c.strongly_entangling_layers(2, 0);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);
  const auto other_params = random_params(c, rng);
  std::vector<double> x(8), other_x(8);
  for (double& v : x) v = rng.uniform(0.1, 1.0);
  for (double& v : other_x) v = rng.uniform(0.1, 1.0);
  std::vector<double> neg_x = x;
  for (double& v : neg_x) v = -v;
  const Statevector a = amplitude_embedding(x, 3);
  const Statevector other = amplitude_embedding(other_x, 3);
  // -psi: the same distribution, different amplitude bits.
  const Statevector neg = amplitude_embedding(neg_x, 3);
  // The executor reads only the circuit's slots, so a trailing extra slot
  // changes the slot values but not the circuit.
  std::vector<double> extra0 = params, extra1 = params;
  extra0.push_back(0.0);
  extra1.push_back(1.0);

  const auto z = [&exec](const SimulationBackend& backend,
                         const std::vector<double>& p, const Statevector& s) {
    return backend.expectations_z_batch(exec, {p}, {s})[0];
  };
  const StatevectorBackend exact;
  ASSERT_EQ(z(exact, params, a), z(exact, params, neg));
  ASSERT_EQ(z(exact, extra0, a), z(exact, extra1, a));

  for (const auto& options :
       {trajectory_options(0.05, 200, 9), shot_options(500, 9)}) {
    const auto backend = SimulationBackend::create(options);
    SCOPED_TRACE(backend->name());
    const auto single = z(*backend, params, a);
    EXPECT_EQ(z(*backend, params, a), single) << "a repeat";
    const auto batch = backend->expectations_z_batch(
        exec, {other_params, params, params}, {other, a, a});
    EXPECT_EQ(batch[1], single) << "batch position";
    EXPECT_EQ(batch[2], single) << "companions";

    EXPECT_GT(max_abs_diff(z(*backend, extra0, a), z(*backend, extra1, a)),
              1e-6)
        << "different slots share noise";
    EXPECT_GT(max_abs_diff(z(*backend, params, neg), single), 1e-6)
        << "different initial states share noise";
  }
}

// Thread-count invariance: every trajectory/sample owns a stream derived
// from its index (never from the executing thread), and Monte-Carlo means
// reduce from a per-trajectory buffer in fixed order — so a 1-thread run
// must be bit-identical to the default-thread run.
TEST(BackendDeterminism, SingleThreadMatchesParallelBitwise) {
  sqvae::Rng rng(8);
  const Circuit c = random_circuit(5, 3);
  const CircuitExecutor exec(c);
  const auto params = random_params(c, rng);

  const auto traj_opts = trajectory_options(0.03, 800, 13);
  const auto shot_opts = shot_options(5000, 13);

  std::vector<std::vector<double>> parallel_results;
  {
    TrajectoryBackend t(traj_opts);
    ShotSamplingBackend s(shot_opts);
    parallel_results.push_back(t.expectations_z(exec, params));
    parallel_results.push_back(s.expectations_z(exec, params));
  }

  std::vector<std::vector<double>> serial_results;
  {
    const thread_budget::Scope serial(1);
    TrajectoryBackend t(traj_opts);
    ShotSamplingBackend s(shot_opts);
    serial_results.push_back(t.expectations_z(exec, params));
    serial_results.push_back(s.expectations_z(exec, params));
  }

  for (std::size_t k = 0; k < parallel_results.size(); ++k) {
    for (std::size_t q = 0; q < parallel_results[k].size(); ++q) {
      EXPECT_EQ(parallel_results[k][q], serial_results[k][q])
          << "backend " << k << " qubit " << q;
    }
  }
}

// ---- SimulationOptions threading through the model stack -----------------

TEST(BackendIntegration, QuantumLayerHonoursSimulationOptions) {
  using models::QuantumLayer;
  using models::QuantumLayerConfig;

  QuantumLayerConfig config;
  config.num_qubits = 3;
  config.input_dim = 3;
  config.entangling_layers = 2;

  sqvae::Rng init_rng(10);
  QuantumLayer exact_layer(config, init_rng);

  config.sim = shot_options(256, 3);
  sqvae::Rng init_rng2(10);  // identical weights
  QuantumLayer shot_layer(config, init_rng2);
  EXPECT_EQ(shot_layer.backend().kind(), BackendKind::kShotSampling);

  Matrix input(2, 3);
  sqvae::Rng data_rng(11);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = data_rng.uniform(-1, 1);
  }

  const Matrix exact = exact_layer.forward_values(input);
  const Matrix shot = shot_layer.forward_values(input);
  ASSERT_EQ(exact.rows(), shot.rows());
  ASSERT_EQ(exact.cols(), shot.cols());
  bool sampling_noise = false;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(shot[i], exact[i], 0.5) << i;  // coarse: 256 shots
    sampling_noise = sampling_noise || shot[i] != exact[i];
  }
  EXPECT_TRUE(sampling_noise);

  // Switching back to the exact backend restores exact values.
  shot_layer.set_simulation_options(SimulationOptions{});
  const Matrix restored = shot_layer.forward_values(input);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(restored[i], exact[i], 1e-12) << i;
  }
}

// What makes coalesced serving of noisy models sound: under both
// stochastic backends, each row of a batched SQ-VAE encode/decode equals
// the same row computed alone, bit for bit.
TEST(BackendIntegration, BatchedRowsMatchSingleRowsUnderNoise) {
  using namespace models;
  for (const auto& sim :
       {trajectory_options(0.05, 16, 23), shot_options(64, 23)}) {
    SCOPED_TRACE(static_cast<int>(sim.backend));
    ScalableQuantumConfig config;
    config.input_dim = 16;
    config.patches = 2;
    config.entangling_layers = 2;
    config.sim = sim;
    sqvae::Rng rng(24);
    auto model = make_sq_vae(config, rng);

    Matrix x(4, config.input_dim);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(0, 1);
    Matrix z(4, model->latent_dim());
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = rng.normal();

    const Matrix encoded = model->encode_values(x);
    const Matrix decoded = model->decode_values(z);
    for (std::size_t r = 0; r < 4; ++r) {
      Matrix x_row(1, x.cols()), z_row(1, z.cols());
      for (std::size_t c = 0; c < x.cols(); ++c) x_row(0, c) = x(r, c);
      for (std::size_t c = 0; c < z.cols(); ++c) z_row(0, c) = z(r, c);
      EXPECT_EQ(model->encode_values(x_row).row(0), encoded.row(r)) << r;
      EXPECT_EQ(model->decode_values(z_row).row(0), decoded.row(r)) << r;
    }

    // Not vacuous: the noise moves the rows off their exact values.
    model->set_simulation_options(SimulationOptions{});
    EXPECT_NE(model->encode_values(x).row(0), encoded.row(0));
  }
}

TEST(BackendIntegration, TrainerSwitchesRegimeThroughOneOption) {
  using namespace models;

  ScalableQuantumConfig config;
  config.input_dim = 16;
  config.patches = 2;
  config.entangling_layers = 1;
  sqvae::Rng rng(12);
  auto model = make_sq_ae(config, rng);

  Matrix train(8, 16);
  for (std::size_t i = 0; i < train.size(); ++i) {
    train[i] = rng.uniform(0, 1);
  }

  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.sim = shot_options(128, 17);
  Trainer trainer(*model, tc);
  const auto history = trainer.fit(train, nullptr, rng);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(std::isfinite(history[0].train_loss));
  // The trainer must have switched every patch layer's backend.
  // (Spot-check through a fresh forward: values change run to run under
  // shot sampling but stay finite.)
  const double mse = model->evaluate_mse(train, rng);
  EXPECT_TRUE(std::isfinite(mse));
}

}  // namespace
}  // namespace sqvae::qsim
