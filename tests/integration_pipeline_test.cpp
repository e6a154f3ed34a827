// Full-pipeline integration tests: the complete drug-discovery loop the
// repository exists to support, exercised end to end on small instances —
// dataset -> train -> checkpoint -> restore -> sample -> score -> optimize.
#include <gtest/gtest.h>

#include <cstdio>

#include "chem/qed.h"
#include "chem/sanitize.h"
#include "common/rng.h"
#include "data/molecule_dataset.h"
#include "models/checkpoint.h"
#include "models/generation.h"
#include "models/latent_optimize.h"
#include "models/metrics.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"

namespace sqvae::models {
namespace {

TEST(Integration, TrainCheckpointSampleScoreLoop) {
  Rng rng(31);
  constexpr std::size_t kDim = 16;

  // Dataset of small ligands on 16x16 matrices.
  data::MoleculeGenConfig gen = data::pdbbind_config(static_cast<int>(kDim));
  gen.min_atoms = 8;
  data::MoleculeDataset ligands;
  ligands.matrix_dim = kDim;
  ligands.molecules = data::generate_molecules(gen, 80, rng);
  const data::Dataset features = ligands.features();

  // Train an SQ-VAE briefly.
  ScalableQuantumConfig config;
  config.input_dim = kDim * kDim;
  config.patches = 2;
  config.entangling_layers = 2;
  auto model = make_sq_vae(config, rng);
  TrainConfig train;
  train.epochs = 4;
  train.batch_size = 16;
  train.quantum_lr = 0.03;
  train.classical_lr = 0.01;
  const auto history =
      Trainer(*model, train).fit(features.samples, nullptr, rng);
  EXPECT_LT(history.back().train_mse, history.front().train_mse);

  // Checkpoint, perturb, restore: sampling behaviour must be identical for
  // identical RNG state.
  const std::string path = "/tmp/sqvae_integration_ckpt.txt";
  ASSERT_TRUE(save_checkpoint(*model, path));
  Rng sample_rng_a(99);
  const Matrix samples_a = model->sample(20, sample_rng_a);
  for (ad::Parameter* p : model->quantum_parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.7;
  }
  ASSERT_TRUE(load_checkpoint(path, *model));
  std::remove(path.c_str());
  Rng sample_rng_b(99);
  const Matrix samples_b = model->sample(20, sample_rng_b);
  for (std::size_t i = 0; i < samples_a.size(); ++i) {
    EXPECT_EQ(samples_a[i], samples_b[i]);
  }

  // Score samples: pipeline must yield only valid molecules and bounded
  // metrics.
  const GenerationMetrics metrics = evaluate_feature_samples(samples_a, kDim);
  EXPECT_EQ(metrics.requested, 20u);
  for (std::size_t r = 0; r < samples_a.rows(); ++r) {
    EXPECT_TRUE(chem::is_valid(decode_sample(samples_a.row(r), kDim)));
  }
  const ExtendedMetrics extended =
      evaluate_extended(samples_a, kDim, ligands.molecules);
  EXPECT_LE(extended.novelty, 1.0);
  EXPECT_GE(extended.internal_diversity, 0.0);
}

TEST(Integration, LatentOptimizationImprovesQed) {
  Rng rng(32);
  // 16x16 matrices: 256 features split into two power-of-two patches.
  constexpr std::size_t kQDim = 16;
  data::MoleculeGenConfig qgen =
      data::pdbbind_config(static_cast<int>(kQDim));
  qgen.min_atoms = 8;
  data::MoleculeDataset qligands;
  qligands.matrix_dim = kQDim;
  qligands.molecules = data::generate_molecules(qgen, 60, rng);
  const data::Dataset qfeatures = qligands.features();

  ScalableQuantumConfig qconfig;
  qconfig.input_dim = kQDim * kQDim;
  qconfig.patches = 2;
  qconfig.entangling_layers = 2;
  auto model = make_sq_vae(qconfig, rng);
  TrainConfig train;
  // Enough epochs that decoded diagonals cross the atom-code rounding
  // threshold (an undertrained decoder emits only empty molecules).
  train.epochs = 10;
  train.batch_size = 16;
  train.quantum_lr = 0.03;
  train.classical_lr = 0.02;
  Trainer(*model, train).fit(qfeatures.samples, nullptr, rng);

  // Lead optimization: seed the search at the encoding of a dataset ligand
  // so that early decodes are molecule-like even for a briefly trained
  // model.
  Matrix lead(1, kQDim * kQDim);
  for (std::size_t c = 0; c < lead.cols(); ++c) {
    lead(0, c) = qfeatures.samples(0, c);
  }
  ad::Tape encode_tape;
  const Matrix lead_latent = encode_tape.value(
      model->encode_mean(encode_tape, encode_tape.constant(lead)));

  LatentOptimizeConfig opt;
  opt.population = 16;
  opt.elites = 4;
  opt.generations = 6;
  opt.initial_sigma = 0.3;
  opt.initial_mu = lead_latent.row(0);
  const LatentOptimizeResult result =
      optimize_latent(*model, qed_objective(kQDim), opt, rng);

  // History is monotone non-decreasing and the optimum beats the first
  // generation's incumbent (or at least ties).
  ASSERT_EQ(result.history.size(), 6u);
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_GE(result.history[g], result.history[g - 1]);
  }
  EXPECT_GE(result.best_score, result.history.front());
  EXPECT_GT(result.best_score, 0.0);
  EXPECT_EQ(result.best_latent.size(), model->latent_dim());
  EXPECT_EQ(result.best_features.size(), kQDim * kQDim);
  // The reported score matches re-decoding the reported features.
  const chem::Molecule best = decode_sample(result.best_features, kQDim);
  EXPECT_NEAR(chem::qed(best), result.best_score, 1e-12);
}

TEST(Integration, GradClipAndLrDecayTrainStably) {
  Rng rng(33);
  Matrix train_data(32, 64);
  for (std::size_t i = 0; i < train_data.size(); ++i) {
    train_data[i] = rng.uniform(0, 4);
  }
  ScalableQuantumConfig config;
  config.input_dim = 64;
  config.patches = 2;
  config.entangling_layers = 2;
  auto model = make_sq_ae(config, rng);
  TrainConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 16;
  cfg.quantum_lr = 0.1;  // deliberately aggressive
  cfg.classical_lr = 0.1;
  cfg.grad_clip = 1.0;
  cfg.lr_decay = 0.7;
  const auto history =
      Trainer(*model, cfg).fit(train_data, nullptr, rng);
  EXPECT_LT(history.back().train_mse, history.front().train_mse);
  for (const auto& e : history) {
    EXPECT_TRUE(std::isfinite(e.train_mse));
  }
}

}  // namespace
}  // namespace sqvae::models
