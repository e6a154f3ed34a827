#include "models/scalable_quantum.h"

#include <cassert>

namespace sqvae::models {

namespace {

int log2_exact(std::size_t v) {
  int k = 0;
  while ((std::size_t{1} << k) < v) ++k;
  assert((std::size_t{1} << k) == v &&
         "input_dim / patches must be a power of two");
  return k;
}

QuantumLayerConfig patch_encoder_config(const ScalableQuantumConfig& c,
                                        int patch) {
  QuantumLayerConfig q;
  q.num_qubits = c.qubits_per_patch();
  q.entangling_layers = c.entangling_layers;
  q.input = QuantumLayerConfig::InputMode::kAmplitude;
  q.input_dim =
      static_cast<int>(c.input_dim / static_cast<std::size_t>(c.patches));
  // Encoder patch p is layer 2p, decoder patch p layer 2p+1 of
  // derive_layer_options: one model-level seed, no two patches replaying
  // the same noise.
  q.sim = qsim::derive_layer_options(
      c.sim, 2 * static_cast<std::uint64_t>(patch));
  return q;
}

QuantumLayerConfig patch_decoder_config(const ScalableQuantumConfig& c,
                                        int patch) {
  QuantumLayerConfig q;
  q.num_qubits = c.qubits_per_patch();
  q.entangling_layers = c.entangling_layers;
  q.input = QuantumLayerConfig::InputMode::kAngle;
  q.input_dim = c.qubits_per_patch();
  q.sim = qsim::derive_layer_options(
      c.sim, 2 * static_cast<std::uint64_t>(patch) + 1);
  return q;
}

}  // namespace

int ScalableQuantumConfig::qubits_per_patch() const {
  assert(patches > 0 && input_dim % static_cast<std::size_t>(patches) == 0);
  return log2_exact(input_dim / static_cast<std::size_t>(patches));
}

std::size_t ScalableQuantumConfig::latent_dim() const {
  return static_cast<std::size_t>(patches) *
         static_cast<std::size_t>(qubits_per_patch());
}

int patches_for_lsd_1024(std::size_t lsd) {
  switch (lsd) {
    case 18: return 2;   // 2 * log2(512) = 18
    case 32: return 4;   // 4 * log2(256) = 32
    case 56: return 8;   // 8 * log2(128) = 56
    case 96: return 16;  // 16 * log2(64) = 96
    default:
      assert(false && "unsupported LSD for 1024-dim patched circuits");
      return 0;
  }
}

ScalableQuantumAutoencoder::ScalableQuantumAutoencoder(
    const ScalableQuantumConfig& config, sqvae::Rng& rng)
    : config_(config),
      encoder_fc_(config.latent_dim(), config.latent_dim(), rng),
      output_fc_(config.latent_dim(), config.input_dim, rng) {
  encoder_patches_.reserve(static_cast<std::size_t>(config.patches));
  decoder_patches_.reserve(static_cast<std::size_t>(config.patches));
  for (int p = 0; p < config.patches; ++p) {
    encoder_patches_.emplace_back(patch_encoder_config(config, p), rng);
    decoder_patches_.emplace_back(patch_decoder_config(config, p), rng);
  }
  if (config.generative) {
    heads_ = std::make_unique<GaussianHeads>(config.latent_dim(),
                                             config.latent_dim(), rng);
  }
}

Var ScalableQuantumAutoencoder::encode(Tape& tape, Var input) {
  const std::size_t chunk =
      config_.input_dim / static_cast<std::size_t>(config_.patches);
  std::vector<Var> measured;
  measured.reserve(encoder_patches_.size());
  for (std::size_t p = 0; p < encoder_patches_.size(); ++p) {
    Var sub = tape.slice_cols(input, p * chunk, chunk);
    measured.push_back(encoder_patches_[p].forward(tape, sub));
  }
  Var h = tape.concat_cols(measured);
  return encoder_fc_.forward(tape, h);
}

Var ScalableQuantumAutoencoder::decode(Tape& tape, Var z) {
  const std::size_t q = static_cast<std::size_t>(config_.qubits_per_patch());
  std::vector<Var> measured;
  measured.reserve(decoder_patches_.size());
  for (std::size_t p = 0; p < decoder_patches_.size(); ++p) {
    Var sub = tape.slice_cols(z, p * q, q);
    measured.push_back(decoder_patches_[p].forward(tape, sub));
  }
  Var h = tape.concat_cols(measured);
  return output_fc_.forward(tape, h);
}

std::vector<ad::Parameter*> ScalableQuantumAutoencoder::quantum_parameters() {
  std::vector<ad::Parameter*> out;
  for (QuantumLayer& l : encoder_patches_) out.push_back(&l.weights());
  for (QuantumLayer& l : decoder_patches_) out.push_back(&l.weights());
  return out;
}

std::vector<ad::Parameter*>
ScalableQuantumAutoencoder::classical_parameters() {
  std::vector<ad::Parameter*> out;
  for (ad::Parameter* p : encoder_fc_.parameters()) out.push_back(p);
  for (ad::Parameter* p : output_fc_.parameters()) out.push_back(p);
  if (heads_) {
    for (ad::Parameter* p : heads_->parameters()) out.push_back(p);
  }
  return out;
}

std::unique_ptr<ScalableQuantumAutoencoder> make_sq_ae(
    const ScalableQuantumConfig& config, sqvae::Rng& rng) {
  ScalableQuantumConfig c = config;
  c.generative = false;
  return std::make_unique<ScalableQuantumAutoencoder>(c, rng);
}

std::unique_ptr<ScalableQuantumAutoencoder> make_sq_vae(
    ScalableQuantumConfig config, sqvae::Rng& rng) {
  config.generative = true;
  return std::make_unique<ScalableQuantumAutoencoder>(config, rng);
}

}  // namespace sqvae::models
