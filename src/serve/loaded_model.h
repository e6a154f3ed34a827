// LoadedModel: an immutable, shareable snapshot of a trained model.
//
// The serving layer never hands the zoo's mutable Autoencoder objects to
// more than one thread: forward passes build tapes against the model's
// ad::Parameter objects, so a shared instance would race. Instead a
// checkpoint loads once into a LoadedModel — the architecture description
// (ModelSpec) plus a frozen copy of every parameter matrix — and each
// worker thread materialises its own private *replica* from that snapshot.
// Replicas are cheap (the zoo's models are a handful of small matrices and
// compiled circuit plans) and bit-identical: two replicas of one
// LoadedModel produce bit-identical outputs for identical requests.
//
// LoadedModel is deeply const after construction, which is what makes the
// registry's hot-swap sound: publishing a new generation never mutates the
// snapshot an in-flight batch is still executing against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "models/autoencoder.h"
#include "models/model_spec.h"

namespace sqvae::serve {

/// The zoo's architecture description (models/model_spec.h); it travels
/// alongside each checkpoint, which stores parameter values only.
using ModelSpec = models::ModelSpec;

/// models::build_model with a fixed weight-initialisation seed: serving
/// overwrites every weight with checkpoint parameters, and a fixed seed
/// keeps replica construction deterministic.
std::unique_ptr<models::Autoencoder> build_model(const ModelSpec& spec,
                                                 std::string* error);

class LoadedModel {
 public:
  /// Loads checkpoint text (v1 or v2; training state ignored — see
  /// models/checkpoint.h load_params_only) into a snapshot. Null + `error`
  /// on a spec/checkpoint mismatch or parse failure.
  static std::shared_ptr<const LoadedModel> from_checkpoint_text(
      const ModelSpec& spec, const std::string& text, std::string* error);

  /// File convenience wrapper for from_checkpoint_text.
  static std::shared_ptr<const LoadedModel> from_checkpoint_file(
      const ModelSpec& spec, const std::string& path, std::string* error);

  /// Snapshots the current parameters of a live model (benches, tests).
  static std::shared_ptr<const LoadedModel> from_model(
      const ModelSpec& spec, models::Autoencoder& model);

  const ModelSpec& spec() const { return spec_; }
  std::size_t input_dim() const { return input_dim_; }
  std::size_t latent_dim() const { return latent_dim_; }
  bool is_generative() const { return generative_; }

  /// Materialises a private mutable replica carrying this snapshot's
  /// parameters. Each worker thread owns its own replica; replicas of one
  /// snapshot are bit-identical.
  std::unique_ptr<models::Autoencoder> make_replica() const;

 private:
  LoadedModel() = default;

  ModelSpec spec_;
  std::vector<Matrix> params_;  // quantum parameters first, then classical
  std::size_t input_dim_ = 0;
  std::size_t latent_dim_ = 0;
  bool generative_ = false;
};

}  // namespace sqvae::serve
