// Classical autoencoder baselines (Section III-B of the paper).
//
// Encoder: input -> hidden MLP (ReLU) -> latent; decoder mirrors the
// encoder. The paper's 64-dim models use hidden layers 32 and 16 with a
// 6-dim latent; the 1024-dim PDBbind models keep the same two-hidden-layer
// shape scaled up to (256, 128) — see classical_config_1024. The VAE
// replaces the encoder's final projection with (mu, logvar) heads.
#pragma once

#include <memory>

#include "models/autoencoder.h"
#include "nn/linear.h"

namespace sqvae::models {

struct ClassicalConfig {
  std::size_t input_dim = 64;
  std::vector<std::size_t> hidden = {32, 16};
  std::size_t latent_dim = 6;
};

/// Paper defaults for the 64-dim (Digits / QM9) experiments.
ClassicalConfig classical_config_64(std::size_t latent_dim = 6);
/// Defaults for the 1024-dim (PDBbind / CIFAR) experiments.
ClassicalConfig classical_config_1024(std::size_t latent_dim = 10);

class ClassicalAe final : public Autoencoder {
 public:
  ClassicalAe(const ClassicalConfig& config, sqvae::Rng& rng);

  Var encode(Tape& tape, Var input) override;
  Var decode(Tape& tape, Var z) override;
  std::size_t input_dim() const override { return config_.input_dim; }
  std::size_t latent_dim() const override { return config_.latent_dim; }
  std::vector<ad::Parameter*> quantum_parameters() override { return {}; }
  std::vector<ad::Parameter*> classical_parameters() override;

 private:
  ClassicalConfig config_;
  nn::Mlp encoder_;
  nn::Mlp decoder_;
};

class ClassicalVae final : public Autoencoder {
 public:
  ClassicalVae(const ClassicalConfig& config, sqvae::Rng& rng);

  Var encode(Tape& tape, Var input) override;
  Var decode(Tape& tape, Var z) override;
  std::size_t input_dim() const override { return config_.input_dim; }
  std::size_t latent_dim() const override { return config_.latent_dim; }
  std::vector<ad::Parameter*> quantum_parameters() override { return {}; }
  std::vector<ad::Parameter*> classical_parameters() override;

 protected:
  GaussianHeads* heads() const override { return heads_.get(); }

 private:
  ClassicalConfig config_;
  nn::Mlp encoder_trunk_;  // input -> last hidden
  std::unique_ptr<GaussianHeads> heads_;
  nn::Mlp decoder_;
};

}  // namespace sqvae::models
