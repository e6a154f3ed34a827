// libFuzzer harness for the checkpoint text loaders
// (models/checkpoint.h): load_params_only, which serve runs on every
// start and every SIGHUP reload on a file it did not write, and the
// v1/v2 training loaders. Built under -DSQVAE_BUILD_FUZZERS=ON (clang),
// and with any compiler as the `fuzz_checkpoint_replay` test, which feeds
// it the checked-in corpus (tests/fuzz/replay_main.cpp).
//
// The model is fixed and small: the shape of the seed corpus and of
// tests/golden/checkpoint_v*.txt. Properties, each a trap on violation:
//   * a rejected text leaves every target untouched (staged commit);
//   * an accepted text re-serialises, and that text reloads to bit-
//     identical values (a NaN keeps its sign, not its payload) and
//     re-serialises to the same bytes.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "common/rng.h"
#include "models/checkpoint.h"
#include "models/classical.h"

namespace {

using sqvae::Rng;
using sqvae::models::Autoencoder;
using sqvae::models::TrainState;

std::unique_ptr<Autoencoder> tiny_model() {
  sqvae::models::ClassicalConfig c;
  c.input_dim = 4;
  c.hidden = {3};
  c.latent_dim = 2;
  Rng rng(1);
  return std::make_unique<sqvae::models::ClassicalVae>(c, rng);
}

bool same_value(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) &&
           std::signbit(a) == std::signbit(b);
  }
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void require_same_parameters(Autoencoder& a, Autoencoder& b) {
  const auto pa = sqvae::models::checkpoint_parameters(a);
  const auto pb = sqvae::models::checkpoint_parameters(b);
  for (std::size_t k = 0; k < pa.size(); ++k) {
    for (std::size_t i = 0; i < pa[k]->value.size(); ++i) {
      if (!same_value(pa[k]->value[i], pb[k]->value[i])) __builtin_trap();
    }
  }
}

/// The training targets: a model with Adam and an Rng attached.
struct Trainee {
  std::unique_ptr<Autoencoder> model = tiny_model();
  sqvae::nn::Adam adam{model->param_groups(0.05, 0.01)};
  Rng rng{2};
  TrainState state;

  Trainee() {
    state.optimizer = &adam;
    state.rng = &rng;
  }
  std::string text() {
    return sqvae::models::checkpoint_to_text_v2(*model, state);
  }
};

void check_params_only(const std::string& text) {
  auto model = tiny_model();
  const std::string before = sqvae::models::checkpoint_to_text(*model);
  if (!sqvae::models::load_params_only(text, *model)) {
    if (sqvae::models::checkpoint_to_text(*model) != before) __builtin_trap();
    return;
  }
  const std::string once = sqvae::models::checkpoint_to_text(*model);
  auto twin = tiny_model();
  if (!sqvae::models::load_params_only(once, *twin)) __builtin_trap();
  require_same_parameters(*model, *twin);
  if (sqvae::models::checkpoint_to_text(*twin) != once) __builtin_trap();
}

void check_v1(const std::string& text) {
  auto model = tiny_model();
  const std::string before = sqvae::models::checkpoint_to_text(*model);
  if (!sqvae::models::checkpoint_from_text(text, *model)) {
    if (sqvae::models::checkpoint_to_text(*model) != before) __builtin_trap();
    return;
  }
  const std::string once = sqvae::models::checkpoint_to_text(*model);
  auto twin = tiny_model();
  if (!sqvae::models::checkpoint_from_text(once, *twin)) __builtin_trap();
  require_same_parameters(*model, *twin);
  if (sqvae::models::checkpoint_to_text(*twin) != once) __builtin_trap();
}

void check_v2(const std::string& text) {
  Trainee trainee;
  const std::string before = trainee.text();
  if (!sqvae::models::checkpoint_from_text_v2(text, *trainee.model,
                                              trainee.state)) {
    if (trainee.text() != before) __builtin_trap();
    return;
  }
  const std::string once = trainee.text();
  Trainee twin;
  if (!sqvae::models::checkpoint_from_text_v2(once, *twin.model,
                                              twin.state)) {
    __builtin_trap();
  }
  require_same_parameters(*trainee.model, *twin.model);
  if (twin.text() != once) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  check_params_only(text);
  check_v1(text);
  check_v2(text);
  return 0;
}
