// ModelSpec: the architecture of any model of the zoo, and the one factory
// that builds it, for sqvae_train and for serving alike
// (serve/loaded_model.h): a spec that trains is a spec that serves.
// Checkpoints store parameter values only; the spec travels beside them.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "common/flags.h"
#include "common/rng.h"
#include "models/autoencoder.h"
#include "qsim/backend.h"

namespace sqvae::models {

struct ModelSpec {
  /// Zoo name: classical-ae, classical-vae, fbq-ae, fbq-vae, hbq-ae,
  /// hbq-vae, sq-ae, sq-vae (as sqvae_train --model).
  std::string kind = "sq-ae";
  std::size_t input_dim = 64;
  int entangling_layers = 3;
  int patches = 2;          // sq-* only
  std::size_t latent = 6;   // classical models only
  /// Simulation regime of the model's circuits. Stochastic regimes
  /// (trajectory / shots) key each estimate by its circuit inputs under
  /// this seed (qsim/backend.h).
  qsim::SimulationOptions sim{};
};

/// Builds a model for `spec`, drawing its initial weights from `rng`.
/// Returns null and fills `error` on an unknown kind or a shape the kind
/// cannot take: a quantum kind with fewer than 1 entangling layer, a
/// classical kind with latent 0, an sq-* kind whose patches do not split
/// input_dim into power-of-two slices of at least 2 features.
std::unique_ptr<Autoencoder> build_model(const ModelSpec& spec,
                                         sqvae::Rng& rng, std::string* error);

/// Registers the model and simulation flags sqvae_train and sqvae_serve
/// share: --model, --layers, --patches, --latent, --backend, --shots,
/// --gate_error and --sim_seed. Flags::parse rejects --layers, --patches
/// or --latent below 1.
void add_model_flags(Flags& flags);

/// Reads the flags add_model_flags registered into `spec`; input_dim is
/// left to the caller. False and `error` on an unknown --backend, on
/// --shots below 1 under a stochastic backend, and on --gate_error
/// outside [0, 1].
bool spec_from_flags(const Flags& flags, ModelSpec* spec, std::string* error);

}  // namespace sqvae::models
