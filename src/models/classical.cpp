#include "models/classical.h"

#include <cassert>

namespace sqvae::models {

namespace {

std::vector<std::size_t> encoder_dims(const ClassicalConfig& c,
                                      bool to_latent) {
  std::vector<std::size_t> dims;
  dims.push_back(c.input_dim);
  for (std::size_t h : c.hidden) dims.push_back(h);
  if (to_latent) dims.push_back(c.latent_dim);
  return dims;
}

std::vector<std::size_t> decoder_dims(const ClassicalConfig& c) {
  std::vector<std::size_t> dims;
  dims.push_back(c.latent_dim);
  for (auto it = c.hidden.rbegin(); it != c.hidden.rend(); ++it) {
    dims.push_back(*it);
  }
  dims.push_back(c.input_dim);
  return dims;
}

}  // namespace

ClassicalConfig classical_config_64(std::size_t latent_dim) {
  return ClassicalConfig{64, {32, 16}, latent_dim};
}

ClassicalConfig classical_config_1024(std::size_t latent_dim) {
  // Hidden widths scale the paper's 64-dim shape (32, 16) up to 1024-dim
  // inputs; 256/128 keeps every swept latent dimension (up to 128, Fig.
  // 5(b)) narrower than the preceding hidden layer.
  return ClassicalConfig{1024, {256, 128}, latent_dim};
}

// ---------------------------------------------------------------- AE ----

ClassicalAe::ClassicalAe(const ClassicalConfig& config, sqvae::Rng& rng)
    : config_(config),
      encoder_(encoder_dims(config, /*to_latent=*/true),
               nn::Activation::kReLU, rng),
      decoder_(decoder_dims(config), nn::Activation::kReLU, rng) {}

Var ClassicalAe::encode(Tape& tape, Var input) {
  return encoder_.forward(tape, input);
}

Var ClassicalAe::decode(Tape& tape, Var z) {
  return decoder_.forward(tape, z);
}

std::vector<ad::Parameter*> ClassicalAe::classical_parameters() {
  std::vector<ad::Parameter*> out = encoder_.parameters();
  for (ad::Parameter* p : decoder_.parameters()) out.push_back(p);
  return out;
}

// --------------------------------------------------------------- VAE ----

ClassicalVae::ClassicalVae(const ClassicalConfig& config, sqvae::Rng& rng)
    : config_(config),
      encoder_trunk_(encoder_dims(config, /*to_latent=*/false),
                     nn::Activation::kReLU, rng),
      heads_(std::make_unique<GaussianHeads>(config.hidden.back(),
                                             config.latent_dim, rng)),
      decoder_(decoder_dims(config), nn::Activation::kReLU, rng) {
  assert(!config.hidden.empty());
}

Var ClassicalVae::encode(Tape& tape, Var input) {
  // The trunk MLP's last layer is linear; apply the hidden activation to it
  // before the heads (trunk output *is* the last hidden representation).
  return tape.relu(encoder_trunk_.forward(tape, input));
}

Var ClassicalVae::decode(Tape& tape, Var z) {
  return decoder_.forward(tape, z);
}

std::vector<ad::Parameter*> ClassicalVae::classical_parameters() {
  std::vector<ad::Parameter*> out = encoder_trunk_.parameters();
  for (ad::Parameter* p : heads_->parameters()) out.push_back(p);
  for (ad::Parameter* p : decoder_.parameters()) out.push_back(p);
  return out;
}

}  // namespace sqvae::models
