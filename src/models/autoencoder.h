// Common interface of the autoencoder zoo.
//
// The paper evaluates six families on a shared protocol:
//   classical AE / VAE                       (models/classical.h)
//   F-BQ-AE / F-BQ-VAE  fully quantum        (models/baseline_quantum.h)
//   H-BQ-AE / H-BQ-VAE  hybrid baseline      (models/baseline_quantum.h)
//   SQ-AE  / SQ-VAE     scalable, patched    (models/scalable_quantum.h)
//
// Every model supplies an encoder trunk (encode), the (mu, logvar) heads
// when it is generative, and a decoder (decode: latent -> features, the
// generator network). The base class wires them once: forward() runs trunk
// -> heads -> reparameterisation -> decode with the noise passed in as
// data, so one batch can mix rows of different noise streams, and
// encode_mean() runs trunk -> mu head. On top of those it derives the
// training loss (MSE, plus KL for generative models), inference-mode
// reconstruction, prior sampling, and the quantum/classical parameter
// split that the heterogeneous-learning-rate optimizer groups rely on.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "nn/linear.h"
#include "nn/optim.h"

namespace sqvae::models {

using ad::Tape;
using ad::Var;
using sqvae::Matrix;

/// Result of one reconstruction pass.
struct ForwardResult {
  Var reconstruction;
  std::optional<Var> mu;      // generative models only
  std::optional<Var> logvar;  // generative models only
};

/// The (mu, logvar) heads of a generative model: two affine maps from the
/// encoder trunk's output to the latent space, built mu first.
struct GaussianHeads {
  GaussianHeads(std::size_t width, std::size_t latent_dim, sqvae::Rng& rng)
      : mu(width, latent_dim, rng), logvar(width, latent_dim, rng) {}

  std::vector<ad::Parameter*> parameters() {
    return {&mu.weight, &mu.bias, &logvar.weight, &logvar.bias};
  }

  nn::Linear mu;
  nn::Linear logvar;
};

/// Scalar diagnostics of one loss evaluation.
struct LossStats {
  double total = 0.0;
  double reconstruction_mse = 0.0;
  double kl = 0.0;
};

class Autoencoder {
 public:
  virtual ~Autoencoder() = default;

  /// Builds the reconstruction graph for a batch var. `noise` holds the
  /// reparameterisation's standard normals of a generative model, one
  /// latent_dim() row per input row; a plain AE takes an empty matrix.
  ForwardResult forward(Tape& tape, Var input, const Matrix& noise);

  /// Deterministic latent code of each input row: the encoder output for
  /// plain AEs, the mean of q(z|x) for VAEs (the reparameterisation without
  /// noise). One encoder API across the zoo — latent-space optimization and
  /// the serving layer's `encode` endpoint both go through here.
  Var encode_mean(Tape& tape, Var input);

  /// Encoder trunk: input batch -> the latent batch of a plain AE, or the
  /// representation a VAE's (mu, logvar) heads read.
  virtual Var encode(Tape& tape, Var input) = 0;

  /// Generator network: latent batch -> feature batch.
  virtual Var decode(Tape& tape, Var z) = 0;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t latent_dim() const = 0;
  bool is_generative() const { return heads() != nullptr; }

  /// Parameters living in quantum circuits (rotation angles).
  virtual std::vector<ad::Parameter*> quantum_parameters() = 0;
  /// Parameters of classical layers.
  virtual std::vector<ad::Parameter*> classical_parameters() = 0;

  // ---- derived functionality -------------------------------------------

  /// Weight on the KL term of generative losses (loss = MSE + kl_weight*KL).
  /// The paper trains with "a single loss term"; the default weight keeps
  /// the KL gradient from drowning the MSE, which averages over all 1024
  /// features while the KL sums over the latent dimensions.
  double kl_weight() const { return kl_weight_; }
  void set_kl_weight(double w) { kl_weight_ = w; }

  // The Rng entry points below draw a batch's noise rows from `rng`:
  // rows x latent_dim standard normals in row-major order.

  /// Builds loss = MSE(recon, input) [+ kl_weight * KL] on the tape.
  Var build_loss(Tape& tape, const Matrix& batch, sqvae::Rng& rng,
                 LossStats* stats = nullptr);

  /// Inference-mode reconstruction on a values-only tape (ad::ValuesOnly):
  /// no backward closures, no kept circuit states, and the same bits as
  /// forward() on a differentiable tape.
  Matrix reconstruct(const Matrix& batch, sqvae::Rng& rng);
  /// The same with explicit noise rows (see forward).
  Matrix reconstruct(const Matrix& batch, const Matrix& noise);

  /// Inference-mode deterministic latent codes (encode_mean on a
  /// values-only tape).
  Matrix encode_values(const Matrix& batch);

  /// Inference-mode decode: latent batch -> feature batch (values-only
  /// tape).
  Matrix decode_values(const Matrix& z);

  /// Mean reconstruction MSE over a dataset, inference mode.
  double evaluate_mse(const Matrix& data, sqvae::Rng& rng);

  /// Draws `count` samples by decoding z ~ N(0, I). Requires
  /// is_generative().
  Matrix sample(std::size_t count, sqvae::Rng& rng);

  std::size_t num_quantum_parameters();
  std::size_t num_classical_parameters();

  /// Two optimizer groups: quantum parameters at `quantum_lr`, classical at
  /// `classical_lr` (Fig. 7's heterogeneous learning rates). Groups with no
  /// parameters are omitted.
  std::vector<nn::ParamGroup> param_groups(double quantum_lr,
                                           double classical_lr);

 protected:
  /// The (mu, logvar) heads; null for plain AEs.
  virtual GaussianHeads* heads() const { return nullptr; }

 private:
  /// The noise rows of a `rows`-row batch (none for plain AEs).
  Matrix draw_noise(std::size_t rows, sqvae::Rng& rng);

  double kl_weight_ = 0.01;
};

}  // namespace sqvae::models
