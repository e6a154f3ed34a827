#include "models/autoencoder.h"

#include <cassert>

namespace sqvae::models {

namespace {

/// z = mu + exp(logvar / 2) * eps as tape ops, with eps = `noise`.
Var reparameterize(Tape& tape, Var mu, Var logvar, const Matrix& noise) {
  Var sigma = tape.exp_(tape.scale(logvar, 0.5));
  return tape.add(mu, tape.mul(sigma, tape.constant(noise)));
}

}  // namespace

ForwardResult Autoencoder::forward(Tape& tape, Var input,
                                   const Matrix& noise) {
  Var h = encode(tape, input);
  GaussianHeads* g = heads();
  if (g == nullptr) {
    assert(noise.empty() && "plain autoencoders take no noise");
    return ForwardResult{decode(tape, h), std::nullopt, std::nullopt};
  }
  assert(noise.rows() == tape.value(input).rows() &&
         noise.cols() == latent_dim() && "one noise row per input row");
  Var mu = g->mu.forward(tape, h);
  Var logvar = g->logvar.forward(tape, h);
  Var z = reparameterize(tape, mu, logvar, noise);
  return ForwardResult{decode(tape, z), mu, logvar};
}

Var Autoencoder::encode_mean(Tape& tape, Var input) {
  Var h = encode(tape, input);
  GaussianHeads* g = heads();
  return g == nullptr ? h : g->mu.forward(tape, h);
}

Matrix Autoencoder::draw_noise(std::size_t rows, sqvae::Rng& rng) {
  if (!is_generative()) return Matrix();
  Matrix eps(rows, latent_dim());
  for (std::size_t i = 0; i < eps.size(); ++i) eps[i] = rng.normal();
  return eps;
}

Var Autoencoder::build_loss(Tape& tape, const Matrix& batch, sqvae::Rng& rng,
                            LossStats* stats) {
  Var input = tape.constant(batch);
  ForwardResult fwd = forward(tape, input, draw_noise(batch.rows(), rng));
  Var mse = tape.mse_loss(fwd.reconstruction, batch);
  Var total = mse;
  double kl_value = 0.0;
  if (fwd.mu) {
    Var kl = tape.kl_gaussian(*fwd.mu, *fwd.logvar);
    kl_value = tape.value(kl)(0, 0);
    total = tape.add(mse, tape.scale(kl, kl_weight_));
  }
  if (stats != nullptr) {
    stats->reconstruction_mse = tape.value(mse)(0, 0);
    stats->kl = kl_value;
    stats->total = tape.value(total)(0, 0);
  }
  return total;
}

Matrix Autoencoder::reconstruct(const Matrix& batch, sqvae::Rng& rng) {
  return reconstruct(batch, draw_noise(batch.rows(), rng));
}

Matrix Autoencoder::reconstruct(const Matrix& batch, const Matrix& noise) {
  Tape tape{ad::ValuesOnly{}};
  ForwardResult fwd = forward(tape, tape.constant(batch), noise);
  return tape.value(fwd.reconstruction);
}

Matrix Autoencoder::encode_values(const Matrix& batch) {
  Tape tape{ad::ValuesOnly{}};
  Var z = encode_mean(tape, tape.constant(batch));
  return tape.value(z);
}

Matrix Autoencoder::decode_values(const Matrix& z) {
  Tape tape{ad::ValuesOnly{}};
  Var out = decode(tape, tape.constant(z));
  return tape.value(out);
}

double Autoencoder::evaluate_mse(const Matrix& data, sqvae::Rng& rng) {
  const Matrix recon = reconstruct(data, rng);
  return recon.mse(data);
}

Matrix Autoencoder::sample(std::size_t count, sqvae::Rng& rng) {
  assert(is_generative() && "vanilla autoencoders cannot sample");
  return decode_values(draw_noise(count, rng));
}

std::size_t Autoencoder::num_quantum_parameters() {
  std::size_t n = 0;
  for (const ad::Parameter* p : quantum_parameters()) n += p->size();
  return n;
}

std::size_t Autoencoder::num_classical_parameters() {
  std::size_t n = 0;
  for (const ad::Parameter* p : classical_parameters()) n += p->size();
  return n;
}

std::vector<nn::ParamGroup> Autoencoder::param_groups(double quantum_lr,
                                                      double classical_lr) {
  std::vector<nn::ParamGroup> groups;
  auto q = quantum_parameters();
  auto c = classical_parameters();
  if (!q.empty()) groups.push_back(nn::ParamGroup{std::move(q), quantum_lr});
  if (!c.empty()) groups.push_back(nn::ParamGroup{std::move(c), classical_lr});
  return groups;
}

}  // namespace sqvae::models
