// Baseline quantum autoencoders (Section III-B): F-BQ-AE/VAE and
// H-BQ-AE/VAE.
//
// Encoder: amplitude embedding of the whole feature vector into
// n = log2(input_dim) qubits, L entangling layers, per-qubit <Z> -> an
// n-dimensional latent (LSD = n; 6 for the 64-dim Digits/QM9 models,
// 10 for the 1024-dim PDBbind baseline of Fig. 5(a)).
// Decoder: angle embedding of the latent, L entangling layers, basis-state
// probabilities -> input_dim outputs.
//
// The fully quantum variants (F-BQ) stop there: reconstruction lives in the
// probability simplex, which is why they only work on L1-normalised data
// (Fig. 4(b)) and fail at original scale (Fig. 4(a), Fig. 5(a)). Hybrid
// variants (H-BQ) add a latent FC (n -> n) and a final FC
// (input_dim -> input_dim) that restores the original scale. VAE variants
// insert (mu, logvar) heads (n -> n each) between encoder and decoder.
#pragma once

#include <memory>

#include "models/autoencoder.h"
#include "models/quantum_layer.h"
#include "nn/linear.h"

namespace sqvae::models {

struct BaselineQuantumConfig {
  std::size_t input_dim = 64;  // must be a power of two
  int entangling_layers = 3;
  bool hybrid = false;       // H-BQ: latent FC + output FC
  bool generative = false;   // VAE: (mu, logvar) heads + reparameterisation
  /// Simulation regime of both circuit layers (see qsim/backend.h).
  qsim::SimulationOptions sim{};

  int num_qubits() const;
};

class BaselineQuantumAutoencoder final : public Autoencoder {
 public:
  BaselineQuantumAutoencoder(const BaselineQuantumConfig& config,
                             sqvae::Rng& rng);

  /// Encoder circuit measurements, through the latent FC when hybrid.
  Var encode(Tape& tape, Var input) override;
  Var decode(Tape& tape, Var z) override;
  std::size_t input_dim() const override { return config_.input_dim; }
  std::size_t latent_dim() const override {
    return static_cast<std::size_t>(config_.num_qubits());
  }
  std::vector<ad::Parameter*> quantum_parameters() override;
  std::vector<ad::Parameter*> classical_parameters() override;

 protected:
  GaussianHeads* heads() const override { return heads_.get(); }

 private:
  BaselineQuantumConfig config_;
  QuantumLayer encoder_;
  QuantumLayer decoder_;
  // Optional classical parts (null when not configured).
  std::unique_ptr<nn::Linear> latent_fc_;  // hybrid
  std::unique_ptr<nn::Linear> output_fc_;  // hybrid
  std::unique_ptr<GaussianHeads> heads_;   // generative
};

// Convenience factories matching the paper's names.
std::unique_ptr<BaselineQuantumAutoencoder> make_fbq_ae(
    std::size_t input_dim, int layers, sqvae::Rng& rng);
std::unique_ptr<BaselineQuantumAutoencoder> make_fbq_vae(
    std::size_t input_dim, int layers, sqvae::Rng& rng);
std::unique_ptr<BaselineQuantumAutoencoder> make_hbq_ae(
    std::size_t input_dim, int layers, sqvae::Rng& rng);
std::unique_ptr<BaselineQuantumAutoencoder> make_hbq_vae(
    std::size_t input_dim, int layers, sqvae::Rng& rng);

}  // namespace sqvae::models
