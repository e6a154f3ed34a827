#include "serve/loaded_model.h"

#include <cmath>

#include "models/baseline_quantum.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "models/scalable_quantum.h"

namespace sqvae::serve {

namespace {

/// Weight-initialisation seed for spec-built models. The values are always
/// replaced by checkpoint parameters; a fixed seed just keeps build_model
/// deterministic so replica construction cannot introduce variance.
constexpr std::uint64_t kBuildSeed = 0x10adedull;

}  // namespace

std::unique_ptr<models::Autoencoder> build_model(const ModelSpec& spec,
                                                 std::string* error) {
  Rng rng(kBuildSeed);
  const std::string& kind = spec.kind;
  if (kind == "classical-ae" || kind == "classical-vae") {
    models::ClassicalConfig c = spec.input_dim >= 1024
                                    ? models::classical_config_1024(spec.latent)
                                    : models::classical_config_64(spec.latent);
    c.input_dim = spec.input_dim;
    if (kind == "classical-ae") {
      return std::make_unique<models::ClassicalAe>(c, rng);
    }
    return std::make_unique<models::ClassicalVae>(c, rng);
  }
  if (kind == "fbq-ae" || kind == "fbq-vae" || kind == "hbq-ae" ||
      kind == "hbq-vae") {
    if ((spec.input_dim & (spec.input_dim - 1)) != 0 || spec.input_dim == 0) {
      if (error != nullptr) {
        *error = "baseline quantum models need a power-of-two input_dim";
      }
      return nullptr;
    }
    models::BaselineQuantumConfig c;
    c.input_dim = spec.input_dim;
    c.entangling_layers = spec.entangling_layers;
    c.hybrid = kind[0] == 'h';
    c.generative = kind.ends_with("vae");
    c.sim = spec.sim;
    return std::make_unique<models::BaselineQuantumAutoencoder>(c, rng);
  }
  if (kind == "sq-ae" || kind == "sq-vae") {
    if (spec.patches <= 0 ||
        spec.input_dim % static_cast<std::size_t>(spec.patches) != 0) {
      if (error != nullptr) {
        *error = "sq-* models need input_dim divisible by patches";
      }
      return nullptr;
    }
    const std::size_t per_patch =
        spec.input_dim / static_cast<std::size_t>(spec.patches);
    if ((per_patch & (per_patch - 1)) != 0) {
      if (error != nullptr) {
        *error = "sq-* models need a power-of-two input_dim / patches";
      }
      return nullptr;
    }
    models::ScalableQuantumConfig c;
    c.input_dim = spec.input_dim;
    c.patches = spec.patches;
    c.entangling_layers = spec.entangling_layers;
    c.sim = spec.sim;
    if (kind == "sq-ae") return models::make_sq_ae(c, rng);
    return models::make_sq_vae(c, rng);
  }
  if (error != nullptr) *error = "unknown model kind: " + kind;
  return nullptr;
}

std::shared_ptr<const LoadedModel> LoadedModel::from_checkpoint_text(
    const ModelSpec& spec, const std::string& text, std::string* error) {
  std::unique_ptr<models::Autoencoder> model = build_model(spec, error);
  if (model == nullptr) return nullptr;
  if (!models::load_params_only(text, *model)) {
    if (error != nullptr) {
      *error = "checkpoint does not match the model spec (or is corrupt)";
    }
    return nullptr;
  }
  // Checkpoints round-trip nan/inf on purpose (a diverged run stays
  // inspectable), but serving one would answer NaN to every request.
  for (const ad::Parameter* p : models::checkpoint_parameters(*model)) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      if (std::isfinite(p->value[i])) continue;
      if (error != nullptr) *error = "checkpoint has non-finite parameters";
      return nullptr;
    }
  }
  return from_model(spec, *model);
}

std::shared_ptr<const LoadedModel> LoadedModel::from_checkpoint_file(
    const ModelSpec& spec, const std::string& path, std::string* error) {
  std::string text;
  if (!models::read_file(path, &text)) {
    if (error != nullptr) *error = "cannot read checkpoint: " + path;
    return nullptr;
  }
  return from_checkpoint_text(spec, text, error);
}

std::shared_ptr<const LoadedModel> LoadedModel::from_model(
    const ModelSpec& spec, models::Autoencoder& model) {
  auto loaded = std::shared_ptr<LoadedModel>(new LoadedModel());
  loaded->spec_ = spec;
  loaded->input_dim_ = model.input_dim();
  loaded->latent_dim_ = model.latent_dim();
  loaded->generative_ = model.is_generative();
  // models::checkpoint_parameters defines the snapshot order, so replicas
  // and checkpoint files can never disagree on which matrix is which.
  for (const ad::Parameter* p : models::checkpoint_parameters(model)) {
    loaded->params_.push_back(p->value);
  }
  return loaded;
}

std::unique_ptr<models::Autoencoder> LoadedModel::make_replica() const {
  std::string error;
  std::unique_ptr<models::Autoencoder> model = build_model(spec_, &error);
  // The spec was validated when this snapshot was built, so a failure here
  // is a programming error, not an input error.
  if (model == nullptr) return nullptr;
  const std::vector<ad::Parameter*> params =
      models::checkpoint_parameters(*model);
  if (params.size() != params_.size()) return nullptr;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i]->value.rows() != params_[i].rows() ||
        params[i]->value.cols() != params_[i].cols()) {
      return nullptr;
    }
    params[i]->value = params_[i];
    params[i]->zero_grad();
  }
  return model;
}

}  // namespace sqvae::serve
