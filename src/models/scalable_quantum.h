// Scalable quantum autoencoders (Section III-C): SQ-AE and SQ-VAE with
// patched quantum circuits.
//
// The patched architecture partitions the input_dim-dimensional feature
// vector into `patches` equal sub-vectors. Each sub-vector is amplitude-
// embedded into its own circuit of q = log2(input_dim / patches) qubits
// with independent weights; the concatenated per-qubit <Z> outputs give a
// latent of dimension LSD = patches * q — 18, 32, 56, 96 for 2, 4, 8, 16
// patches at input_dim 1024, exactly the paper's Table II columns. The
// decoder splits the latent back into `patches` chunks of q angles, runs
// per-patch circuits with expectation outputs, and maps the concatenated
// measurements to input_dim features through a final FC layer; a
// symmetric FC (LSD -> LSD) follows the encoder measurements ("both
// quantum encoder and decoder are connected to a classical layer").
#pragma once

#include <memory>
#include <vector>

#include "models/autoencoder.h"
#include "models/quantum_layer.h"
#include "nn/linear.h"

namespace sqvae::models {

struct ScalableQuantumConfig {
  std::size_t input_dim = 1024;
  int patches = 8;
  int entangling_layers = 5;  // Fig. 6's selected depth
  bool generative = false;    // SQ-VAE
  /// Simulation regime of every patch circuit (see qsim/backend.h); each
  /// patch derives a decorrelated stream from this seed.
  qsim::SimulationOptions sim{};

  /// Qubits per patch: log2(input_dim / patches); input_dim must be
  /// divisible by patches with a power-of-two quotient.
  int qubits_per_patch() const;
  /// LSD = patches * qubits_per_patch().
  std::size_t latent_dim() const;
};

/// Patch count for a target LSD at input_dim 1024 (paper Table II):
/// 18 -> 2, 32 -> 4, 56 -> 8, 96 -> 16. Asserts on unknown LSDs.
int patches_for_lsd_1024(std::size_t lsd);

class ScalableQuantumAutoencoder final : public Autoencoder {
 public:
  ScalableQuantumAutoencoder(const ScalableQuantumConfig& config,
                             sqvae::Rng& rng);

  /// Patched embedding + measurements + encoder FC.
  Var encode(Tape& tape, Var input) override;
  Var decode(Tape& tape, Var z) override;
  std::size_t input_dim() const override { return config_.input_dim; }
  std::size_t latent_dim() const override { return config_.latent_dim(); }
  std::vector<ad::Parameter*> quantum_parameters() override;
  std::vector<ad::Parameter*> classical_parameters() override;

  const ScalableQuantumConfig& config() const { return config_; }

 protected:
  GaussianHeads* heads() const override { return heads_.get(); }

 private:
  ScalableQuantumConfig config_;
  std::vector<QuantumLayer> encoder_patches_;
  std::vector<QuantumLayer> decoder_patches_;
  nn::Linear encoder_fc_;                  // LSD -> LSD
  nn::Linear output_fc_;                   // LSD -> input_dim
  std::unique_ptr<GaussianHeads> heads_;   // generative
};

std::unique_ptr<ScalableQuantumAutoencoder> make_sq_ae(
    const ScalableQuantumConfig& config, sqvae::Rng& rng);
std::unique_ptr<ScalableQuantumAutoencoder> make_sq_vae(
    ScalableQuantumConfig config, sqvae::Rng& rng);

}  // namespace sqvae::models
