// Tests of the data-parallel training engine and true checkpoint/resume:
// sample-weighted epoch statistics, bit-identical training across OpenMP
// thread counts, v2 checkpoints that round-trip optimizer + RNG state, and
// kill-and-resume runs reproducing the uninterrupted trajectory exactly —
// under every simulation backend.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "data/dataset.h"
#include "data/digits.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"

namespace sqvae::models {
namespace {

qsim::SimulationOptions trajectory_sim() {
  qsim::SimulationOptions sim;
  sim.backend = qsim::BackendKind::kTrajectory;
  sim.shots = 16;
  sim.noise.gate_error = 0.05;
  return sim;
}

qsim::SimulationOptions shot_sim() {
  qsim::SimulationOptions sim;
  sim.backend = qsim::BackendKind::kShotSampling;
  sim.shots = 64;
  return sim;
}

Matrix digits_matrix(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const auto digits = data::make_digits(count, rng);
  return data::scale(digits.features, 1.0 / 16.0).samples;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return buffer.str();
}

TEST(TrainerEngine, SerialEpochStatsWeightedBySampleCount) {
  // 10 samples in batches of 4 -> sizes 4, 4, 2. With zero learning rates
  // the parameters never move, so the epoch averages must equal the
  // sample-weighted mean of per-batch losses computed independently here.
  const Matrix data = digits_matrix(10, 21);
  Rng model_rng(22);
  ClassicalAe model(classical_config_64(4), model_rng);

  TrainConfig config;
  config.epochs = 1;
  config.batch_size = 4;
  config.quantum_lr = 0.0;
  config.classical_lr = 0.0;
  config.data_parallel = false;
  Trainer trainer(model, config);
  Rng fit_rng(23);
  const auto history = trainer.fit(data, nullptr, fit_rng);
  ASSERT_EQ(history.size(), 1u);

  // Replay the identical batch schedule (same rng seed, same consumption
  // order) and accumulate the expected weighted sums.
  Rng replay_rng(23);
  const auto batches = data::make_batches(data.rows(), 4, replay_rng);
  ASSERT_EQ(batches.size(), 3u);
  ASSERT_EQ(batches.back().size(), 2u);
  double loss_sum = 0.0, mse_sum = 0.0;
  std::size_t samples = 0;
  for (const auto& indices : batches) {
    Matrix batch(indices.size(), data.cols());
    for (std::size_t r = 0; r < indices.size(); ++r) {
      for (std::size_t c = 0; c < data.cols(); ++c) {
        batch(r, c) = data(indices[r], c);
      }
    }
    ad::Tape tape;
    LossStats stats;
    Rng unused(0);
    model.build_loss(tape, batch, unused, &stats);
    loss_sum += stats.total * static_cast<double>(indices.size());
    mse_sum += stats.reconstruction_mse * static_cast<double>(indices.size());
    samples += indices.size();
  }
  ASSERT_EQ(samples, 10u);
  EXPECT_DOUBLE_EQ(history[0].train_loss,
                   loss_sum / static_cast<double>(samples));
  EXPECT_DOUBLE_EQ(history[0].train_mse,
                   mse_sum / static_cast<double>(samples));
}

using ModelFactory = std::function<std::unique_ptr<Autoencoder>(Rng&)>;

/// An SQ-VAE on 64 features (2 patches, 2 layers) measured under `sim`.
ModelFactory sq_vae_under(const qsim::SimulationOptions& sim) {
  return [sim](Rng& rng) -> std::unique_ptr<Autoencoder> {
    ScalableQuantumConfig c;
    c.input_dim = 64;
    c.patches = 2;
    c.entangling_layers = 2;
    c.sim = sim;
    return make_sq_vae(c, rng);
  };
}

/// Trains a fresh model from `make` for 3 epochs at a team of `threads`;
/// returns its parameters as checkpoint text and fills `history`.
std::string train_sharded(const ModelFactory& make, const Matrix& data,
                          int threads, std::vector<EpochStats>* history) {
  Rng model_rng(32);
  auto model = make(model_rng);
  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 8;
  config.quantum_lr = 0.03;
  config.classical_lr = 0.01;
  config.num_threads = threads;
  Trainer trainer(*model, config);
  Rng fit_rng(33);
  *history = trainer.fit(data, &data, fit_rng);
  // Noisy models keep the team too.
  EXPECT_EQ(Trainer::resolve_threads(*model, config),
            thread_budget::kOpenMP ? threads : 1);
  return checkpoint_to_text(*model);
}

/// Trains at teams of 1, 3 and 4 and expects the same parameters and
/// epoch statistics, bit for bit.
void expect_bit_identical_across_teams(const ModelFactory& make,
                                       const Matrix& data) {
  std::vector<EpochStats> h1;
  const std::string params1 = train_sharded(make, data, 1, &h1);
  for (const int threads : {3, 4}) {
    SCOPED_TRACE(threads);
    std::vector<EpochStats> h;
    EXPECT_EQ(train_sharded(make, data, threads, &h), params1);
    ASSERT_EQ(h1.size(), h.size());
    for (std::size_t e = 0; e < h1.size(); ++e) {
      EXPECT_EQ(h1[e].train_loss, h[e].train_loss) << e;
      EXPECT_EQ(h1[e].train_mse, h[e].train_mse) << e;
      EXPECT_EQ(h1[e].train_kl, h[e].train_kl) << e;
      EXPECT_EQ(h1[e].test_mse, h[e].test_mse) << e;
    }
  }
}

TEST(TrainerEngine, ShardedBitIdenticalAcrossThreadCounts) {
  // The engine's contract: shard decomposition, per-sample noise streams,
  // and fixed-order reduction are all independent of the thread count, so
  // training is bit-identical at 1 and N threads — stochastic measurement
  // backends included, whose noise is keyed by each circuit's inputs.
  // The trainer's divergence guard makes every pass a finite one too.
  const Matrix data = digits_matrix(24, 31);
  for (const qsim::SimulationOptions& sim :
       {qsim::SimulationOptions{}, trajectory_sim(), shot_sim()}) {
    SCOPED_TRACE(static_cast<int>(sim.backend));
    expect_bit_identical_across_teams(sq_vae_under(sim), data);
  }

  // The reduction splits the flattened parameter list into fixed element
  // chunks; the 56 x 1024 output layer of a ligand-sized sq-ae spans many
  // of them, split across members at every team size.
  Rng data_rng(34);
  Matrix wide(12, 1024);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = data_rng.uniform();
  const auto sq_ae_1024 = [](Rng& rng) {
    ScalableQuantumConfig c;
    c.input_dim = 1024;
    c.patches = 8;
    c.entangling_layers = 1;
    return make_sq_ae(c, rng);
  };
  expect_bit_identical_across_teams(sq_ae_1024, wide);
}

std::unique_ptr<Autoencoder> classical_vae(Rng& rng) {
  return std::make_unique<ClassicalVae>(classical_config_64(6), rng);
}

// Shared body for the resume tests: train `total` epochs uninterrupted,
// then train `cut` epochs, "kill", and resume to `total` with a freshly
// constructed model; both checkpoints (parameters + Adam + RNG) and the
// post-cut epoch statistics must match bit-for-bit.
void expect_resume_equivalence(bool data_parallel,
                               const ModelFactory& make_model = classical_vae) {
  const Matrix data = digits_matrix(32, 51);
  const std::string full_path = "/tmp/sqvae_engine_full.ckpt";
  const std::string part_path = "/tmp/sqvae_engine_part.ckpt";
  const std::size_t total = 6, cut = 3;

  TrainConfig base;
  base.epochs = total;
  base.batch_size = 8;
  base.classical_lr = 0.01;
  base.lr_decay = 0.9;
  base.data_parallel = data_parallel;
  base.checkpoint_every = 1;

  // Uninterrupted reference.
  std::vector<EpochStats> full_history;
  {
    Rng model_rng(52);
    const auto model = make_model(model_rng);
    TrainConfig config = base;
    config.checkpoint_path = full_path;
    Trainer trainer(*model, config);
    Rng fit_rng(53);
    full_history = trainer.fit(data, &data, fit_rng);
  }
  // Interrupted at `cut`...
  {
    Rng model_rng(52);
    const auto model = make_model(model_rng);
    TrainConfig config = base;
    config.epochs = cut;
    config.checkpoint_path = part_path;
    Trainer trainer(*model, config);
    Rng fit_rng(53);
    trainer.fit(data, &data, fit_rng);
  }
  // ...then resumed in a fresh process stand-in: new model (different
  // init), new rng — everything restored from the checkpoint.
  std::vector<EpochStats> resumed_history;
  {
    Rng model_rng(999);
    const auto model = make_model(model_rng);
    TrainConfig config = base;
    config.checkpoint_path = part_path;
    config.resume = true;
    Trainer trainer(*model, config);
    Rng fit_rng(999);
    resumed_history = trainer.fit(data, &data, fit_rng);
  }

  EXPECT_EQ(read_file(full_path), read_file(part_path));
  ASSERT_EQ(resumed_history.size(), total - cut);
  for (std::size_t e = 0; e < resumed_history.size(); ++e) {
    const EpochStats& r = resumed_history[e];
    const EpochStats& f = full_history[cut + e];
    EXPECT_EQ(r.epoch, f.epoch);
    EXPECT_EQ(r.train_loss, f.train_loss) << e;
    EXPECT_EQ(r.train_mse, f.train_mse) << e;
    EXPECT_EQ(r.train_kl, f.train_kl) << e;
    EXPECT_EQ(r.test_mse, f.test_mse) << e;
  }
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
  std::remove((full_path + ".best").c_str());
  std::remove((part_path + ".best").c_str());
}

TEST(TrainerEngine, ResumeEqualsUninterruptedSharded) {
  expect_resume_equivalence(/*data_parallel=*/true);
}

TEST(TrainerEngine, ResumeEqualsUninterruptedSerial) {
  expect_resume_equivalence(/*data_parallel=*/false);
}

// Measurement noise is keyed by each circuit's inputs, so the restored
// parameters alone replay it: resume stays bit-exact under noise.
TEST(TrainerEngine, ResumeEqualsUninterruptedUnderTrajectoryNoise) {
  expect_resume_equivalence(/*data_parallel=*/true,
                            sq_vae_under(trajectory_sim()));
}

TEST(TrainerEngine, EarlyStoppingAndBestTracking) {
  const Matrix data = digits_matrix(16, 61);
  Rng model_rng(62);
  ClassicalAe model(classical_config_64(4), model_rng);
  TrainConfig config;
  config.epochs = 10;
  config.batch_size = 8;
  config.classical_lr = 0.01;
  // An improvement threshold no real epoch can meet: epoch 0 sets the
  // baseline, epoch 1 fails to improve by min_delta, patience 1 stops.
  config.early_stop_patience = 1;
  config.early_stop_min_delta = 1e9;
  Trainer trainer(model, config);
  Rng fit_rng(63);
  const auto history = trainer.fit(data, nullptr, fit_rng);
  EXPECT_EQ(history.size(), 2u);
  // Best-model tracking is independent of min_delta: it records the true
  // argmin of the monitored metric over the epochs that ran.
  ASSERT_TRUE(trainer.has_best());
  const std::size_t argmin =
      history[0].train_loss <= history[1].train_loss ? 0u : 1u;
  EXPECT_EQ(trainer.best_epoch(), argmin);
  EXPECT_EQ(trainer.best_metric(), history[argmin].train_loss);
}

TEST(TrainerEngine, ResumeAfterEarlyStopStaysStopped) {
  // A run that ended via early stopping must not creep further epochs on
  // each --resume invocation: the stored patience counter keeps it stopped.
  const Matrix data = digits_matrix(16, 81);
  const std::string path = "/tmp/sqvae_engine_earlystop.ckpt";
  TrainConfig config;
  config.epochs = 10;
  config.batch_size = 8;
  config.classical_lr = 0.01;
  config.early_stop_patience = 1;
  config.early_stop_min_delta = 1e9;
  config.checkpoint_path = path;
  {
    Rng model_rng(82);
    ClassicalAe model(classical_config_64(4), model_rng);
    Trainer trainer(model, config);
    Rng fit_rng(83);
    EXPECT_EQ(trainer.fit(data, nullptr, fit_rng).size(), 2u);
  }
  {
    Rng model_rng(84);
    ClassicalAe model(classical_config_64(4), model_rng);
    TrainConfig resume_config = config;
    resume_config.resume = true;
    Trainer trainer(model, resume_config);
    Rng fit_rng(85);
    EXPECT_TRUE(trainer.fit(data, nullptr, fit_rng).empty());
  }
  std::remove(path.c_str());
  std::remove((path + ".best").c_str());
}

// A diverged epoch stops the run after its callback and before best
// tracking or the checkpoint write: the checkpoint and its .best keep the
// last finite epoch's bytes.
TEST(TrainerEngine, DivergedEpochThrowsAndKeepsTheLastFiniteCheckpoint) {
  const Matrix data = digits_matrix(16, 91);
  const std::string path = "/tmp/sqvae_engine_diverged.ckpt";
  Rng model_rng(92);
  ClassicalAe model(classical_config_64(4), model_rng);
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.classical_lr = 0.01;
  config.checkpoint_path = path;
  Trainer trainer(model, config);
  Rng fit_rng(93);
  std::string last, last_best;
  std::size_t callbacks = 0;
  try {
    trainer.fit(data, &data, fit_rng, [&](const EpochStats& e) {
      ++callbacks;
      if (e.epoch != 1) return;
      // Epoch 0's files are on disk; poison a parameter of epoch 1.
      last = read_file(path);
      last_best = read_file(path + ".best");
      model.classical_parameters()[0]->value[0] =
          std::numeric_limits<double>::quiet_NaN();
    });
    ADD_FAILURE() << "fit() returned after a diverged epoch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("epoch 1 diverged"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(callbacks, 2u);
  ASSERT_FALSE(last.empty());
  EXPECT_EQ(read_file(path), last);
  EXPECT_EQ(read_file(path + ".best"), last_best);
  std::remove(path.c_str());
  std::remove((path + ".best").c_str());
}

// A zero batch size would never finish an epoch; fit() refuses it.
TEST(TrainerEngine, ZeroBatchSizeThrows) {
  const Matrix data = digits_matrix(8, 95);
  Rng model_rng(96);
  ClassicalAe model(classical_config_64(4), model_rng);
  TrainConfig config;
  config.batch_size = 0;
  Trainer trainer(model, config);
  Rng fit_rng(97);
  EXPECT_THROW(trainer.fit(data, nullptr, fit_rng), std::invalid_argument);
}

TEST(TrainerEngine, RestoreBestRewindsParameters) {
  const Matrix data = digits_matrix(24, 71);
  const std::string path = "/tmp/sqvae_engine_best.ckpt";
  Rng model_rng(72);
  ClassicalAe model(classical_config_64(4), model_rng);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 8;
  config.classical_lr = 0.01;
  config.checkpoint_path = path;
  config.restore_best = true;
  Trainer trainer(model, config);
  Rng fit_rng(73);
  trainer.fit(data, nullptr, fit_rng);
  ASSERT_TRUE(trainer.has_best());
  // After fit() the model must hold exactly the parameters of the best
  // epoch, which were also persisted to the sibling .best file.
  EXPECT_EQ(checkpoint_to_text(model), read_file(path + ".best"));
  std::remove(path.c_str());
  std::remove((path + ".best").c_str());
}

}  // namespace
}  // namespace sqvae::models
