// Common interface of the autoencoder zoo.
//
// The paper evaluates six families on a shared protocol:
//   classical AE / VAE                       (models/classical.h)
//   F-BQ-AE / F-BQ-VAE  fully quantum        (models/baseline_quantum.h)
//   H-BQ-AE / H-BQ-VAE  hybrid baseline      (models/baseline_quantum.h)
//   SQ-AE  / SQ-VAE     scalable, patched    (models/scalable_quantum.h)
//
// Every model implements forward() (reconstruction graph; VAEs also emit
// (mu, logvar) and reparameterise internally) and decode() (latent ->
// features, the generator network). The base class derives the training
// loss (MSE, plus KL for generative models), inference-mode
// reconstruction, prior sampling, and the quantum/classical parameter
// split that the heterogeneous-learning-rate optimizer groups rely on.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "nn/optim.h"
#include "qsim/backend.h"

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

/// Scalar diagnostics of one loss evaluation.
struct LossStats {
  double total = 0.0;
  double reconstruction_mse = 0.0;
  double kl = 0.0;
};

class Autoencoder {
 public:
  virtual ~Autoencoder() = default;

  /// Builds the reconstruction graph for a batch var. `rng` supplies the
  /// reparameterisation noise (unused by vanilla AEs).
  virtual ForwardResult forward(Tape& tape, Var input, sqvae::Rng& rng) = 0;

  /// Generator network: latent batch -> feature batch.
  virtual Var decode(Tape& tape, Var z) = 0;

  /// Deterministic latent code of each input row: the encoder output for
  /// plain AEs, the mean of q(z|x) for VAEs (the reparameterisation without
  /// noise). One encoder API across the zoo — latent-space optimization and
  /// the serving layer's `encode` endpoint both go through here.
  virtual Var encode_mean(Tape& tape, Var input) = 0;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t latent_dim() const = 0;
  virtual bool is_generative() const = 0;

  /// Parameters living in quantum circuits (rotation angles).
  virtual std::vector<ad::Parameter*> quantum_parameters() = 0;
  /// Parameters of classical layers.
  virtual std::vector<ad::Parameter*> classical_parameters() = 0;

  /// Switches the simulation regime of every quantum layer in the model
  /// (exact statevector, noise trajectories, or finite shots — see
  /// qsim/backend.h). No-op for purely classical models, so experiments can
  /// set options uniformly across the autoencoder zoo. Measurement noise is
  /// a pure function of each row's circuit inputs: it does not depend on
  /// the row's batch, its thread or what the model ran before.
  virtual void set_simulation_options(const qsim::SimulationOptions&) {}

  // ---- derived functionality -------------------------------------------

  /// Weight on the KL term of generative losses (loss = MSE + kl_weight*KL).
  /// The paper trains with "a single loss term"; the default weight keeps
  /// the KL gradient from drowning the 1024-feature MSE (see DESIGN.md §4).
  double kl_weight() const { return kl_weight_; }
  void set_kl_weight(double w) { kl_weight_ = w; }

  /// Builds loss = MSE(recon, input) [+ kl_weight * KL] on the tape.
  Var build_loss(Tape& tape, const Matrix& batch, sqvae::Rng& rng,
                 LossStats* stats = nullptr);

  /// Inference-mode reconstruction (graph built and discarded).
  Matrix reconstruct(const Matrix& batch, sqvae::Rng& rng);

  /// Inference-mode deterministic latent codes (encode_mean, no tape kept).
  Matrix encode_values(const Matrix& batch);

  /// Inference-mode decode: latent batch -> feature batch (no tape kept).
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

 private:
  double kl_weight_ = 0.01;
};

}  // namespace sqvae::models
