#include "serve/loaded_model.h"

#include <cmath>

#include "models/checkpoint.h"

namespace sqvae::serve {

std::unique_ptr<models::Autoencoder> build_model(const ModelSpec& spec,
                                                 std::string* error) {
  Rng rng(0x10adedull);
  return models::build_model(spec, rng, error);
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
