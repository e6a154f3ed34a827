#include "models/baseline_quantum.h"

#include <cassert>

namespace sqvae::models {

namespace {

int log2_exact(std::size_t v) {
  int k = 0;
  while ((std::size_t{1} << k) < v) ++k;
  assert((std::size_t{1} << k) == v && "input_dim must be a power of two");
  return k;
}

QuantumLayerConfig encoder_config(const BaselineQuantumConfig& c) {
  QuantumLayerConfig q;
  q.num_qubits = c.num_qubits();
  q.entangling_layers = c.entangling_layers;
  q.input = QuantumLayerConfig::InputMode::kAmplitude;
  q.output = qsim::Readout::kExpectationZ;
  q.input_dim = static_cast<int>(c.input_dim);
  q.sim = qsim::derive_layer_options(c.sim, 0);
  return q;
}

QuantumLayerConfig decoder_config(const BaselineQuantumConfig& c) {
  QuantumLayerConfig q;
  q.num_qubits = c.num_qubits();
  q.entangling_layers = c.entangling_layers;
  q.input = QuantumLayerConfig::InputMode::kAngle;
  q.output = qsim::Readout::kProbabilities;
  q.input_dim = c.num_qubits();
  q.sim = qsim::derive_layer_options(c.sim, 1);
  return q;
}

}  // namespace

int BaselineQuantumConfig::num_qubits() const { return log2_exact(input_dim); }

BaselineQuantumAutoencoder::BaselineQuantumAutoencoder(
    const BaselineQuantumConfig& config, sqvae::Rng& rng)
    : config_(config),
      encoder_(encoder_config(config), rng),
      decoder_(decoder_config(config), rng) {
  const std::size_t n = latent_dim();
  if (config_.hybrid) {
    latent_fc_ = std::make_unique<nn::Linear>(n, n, rng);
    output_fc_ =
        std::make_unique<nn::Linear>(config_.input_dim, config_.input_dim, rng);
  }
  if (config_.generative) heads_ = std::make_unique<GaussianHeads>(n, n, rng);
}

Var BaselineQuantumAutoencoder::encode(Tape& tape, Var input) {
  Var h = encoder_.forward(tape, input);
  if (latent_fc_) h = latent_fc_->forward(tape, h);
  return h;
}

Var BaselineQuantumAutoencoder::decode(Tape& tape, Var z) {
  Var probs = decoder_.forward(tape, z);
  if (output_fc_) return output_fc_->forward(tape, probs);
  return probs;
}

std::vector<ad::Parameter*> BaselineQuantumAutoencoder::quantum_parameters() {
  return {&encoder_.weights(), &decoder_.weights()};
}

std::vector<ad::Parameter*>
BaselineQuantumAutoencoder::classical_parameters() {
  std::vector<ad::Parameter*> out;
  auto append = [&out](nn::Linear* l) {
    if (l != nullptr) {
      out.push_back(&l->weight);
      out.push_back(&l->bias);
    }
  };
  append(latent_fc_.get());
  if (heads_) {
    for (ad::Parameter* p : heads_->parameters()) out.push_back(p);
  }
  append(output_fc_.get());
  return out;
}

namespace {
std::unique_ptr<BaselineQuantumAutoencoder> make_baseline(
    std::size_t input_dim, int layers, bool hybrid, bool generative,
    sqvae::Rng& rng) {
  BaselineQuantumConfig c;
  c.input_dim = input_dim;
  c.entangling_layers = layers;
  c.hybrid = hybrid;
  c.generative = generative;
  return std::make_unique<BaselineQuantumAutoencoder>(c, rng);
}
}  // namespace

std::unique_ptr<BaselineQuantumAutoencoder> make_fbq_ae(std::size_t input_dim,
                                                        int layers,
                                                        sqvae::Rng& rng) {
  return make_baseline(input_dim, layers, false, false, rng);
}
std::unique_ptr<BaselineQuantumAutoencoder> make_fbq_vae(std::size_t input_dim,
                                                         int layers,
                                                         sqvae::Rng& rng) {
  return make_baseline(input_dim, layers, false, true, rng);
}
std::unique_ptr<BaselineQuantumAutoencoder> make_hbq_ae(std::size_t input_dim,
                                                        int layers,
                                                        sqvae::Rng& rng) {
  return make_baseline(input_dim, layers, true, false, rng);
}
std::unique_ptr<BaselineQuantumAutoencoder> make_hbq_vae(std::size_t input_dim,
                                                         int layers,
                                                         sqvae::Rng& rng) {
  return make_baseline(input_dim, layers, true, true, rng);
}

}  // namespace sqvae::models
