#include "models/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/number_text.h"

namespace sqvae::models {

using number_text::append_line;
using number_text::Cursor;
using number_text::NonFinite;

std::vector<ad::Parameter*> checkpoint_parameters(Autoencoder& model) {
  std::vector<ad::Parameter*> params = model.quantum_parameters();
  for (ad::Parameter* p : model.classical_parameters()) params.push_back(p);
  return params;
}

namespace {

/// Reads "sqvae-checkpoint N"; 0 when the header is missing or malformed.
int read_version(Cursor& in) {
  int version = 0;
  if (!in.word("sqvae-checkpoint") || !in.number(&version)) return 0;
  return version;
}

/// Reads a 0/1 presence flag.
bool read_flag(Cursor& in, bool* out) {
  int v = -1;
  if (!in.number(&v) || (v != 0 && v != 1)) return false;
  *out = v == 1;
  return true;
}

void write_parameters(std::string* out,
                      const std::vector<ad::Parameter*>& params) {
  append_line(out, params.size());
  for (const ad::Parameter* p : params) {
    number_text::append(out, p->value.rows());
    *out += ' ';
    number_text::append(out, p->value.cols());
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      *out += ' ';
      number_text::append(out, p->value[i]);
    }
    *out += '\n';
  }
}

/// Parses the parameter block into staging storage; the model is only
/// mutated by commit_parameters() once the whole checkpoint is consistent.
/// Non-finite values load: a diverged run's checkpoint stays inspectable.
bool read_parameters(Cursor& in, const std::vector<ad::Parameter*>& params,
                     std::vector<Matrix>& staged) {
  std::size_t count = 0;
  if (!in.number(&count) || count != params.size()) return false;
  staged.clear();
  staged.reserve(count);
  for (ad::Parameter* p : params) {
    std::size_t rows = 0, cols = 0;
    if (!in.number(&rows) || !in.number(&cols)) return false;
    if (rows != p->value.rows() || cols != p->value.cols()) return false;
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (!in.number(&m[i], NonFinite::kAllow)) return false;
    }
    staged.push_back(std::move(m));
  }
  return true;
}

void commit_parameters(const std::vector<ad::Parameter*>& params,
                       std::vector<Matrix>& staged) {
  for (std::size_t k = 0; k < params.size(); ++k) {
    params[k]->value = std::move(staged[k]);
    params[k]->zero_grad();
  }
}

}  // namespace

std::string checkpoint_to_text(Autoencoder& model) {
  std::string out = "sqvae-checkpoint 1\n";
  write_parameters(&out, checkpoint_parameters(model));
  return out;
}

bool checkpoint_from_text(const std::string& text, Autoencoder& model) {
  Cursor in(text);
  if (read_version(in) != 1) return false;
  const auto params = checkpoint_parameters(model);
  std::vector<Matrix> staged;
  if (!read_parameters(in, params, staged) || !in.at_end()) return false;
  commit_parameters(params, staged);
  return true;
}

std::string checkpoint_to_text_v2(Autoencoder& model,
                                  const TrainState& state) {
  std::string out = "sqvae-checkpoint 2\n";
  write_parameters(&out, checkpoint_parameters(model));
  append_line(&out, "epoch", state.next_epoch);
  append_line(&out, "best", state.has_best ? 1 : 0, state.best_epoch,
              state.best_metric, state.epochs_since_improvement);
  append_line(&out, "optimizer", state.optimizer != nullptr ? 1 : 0);
  if (state.optimizer != nullptr) state.optimizer->serialize(&out);
  append_line(&out, "rng", state.rng != nullptr ? 1 : 0);
  if (state.rng != nullptr) {
    const sqvae::Rng::State s = state.rng->state();
    append_line(&out, s.state_hi, s.state_lo, s.cached_normal,
                s.has_cached_normal ? 1 : 0);
  }
  return out;
}

bool checkpoint_from_text_v2(const std::string& text, Autoencoder& model,
                             TrainState& state) {
  Cursor in(text);
  if (read_version(in) != 2) return false;
  const auto params = checkpoint_parameters(model);
  std::vector<Matrix> staged;
  if (!read_parameters(in, params, staged)) return false;

  TrainState parsed = state;  // keeps the optimizer/rng attachments
  if (!in.word("epoch") || !in.number(&parsed.next_epoch)) return false;
  if (!in.word("best") || !read_flag(in, &parsed.has_best) ||
      !in.number(&parsed.best_epoch) ||
      !in.number(&parsed.best_metric, NonFinite::kAllow) ||
      !in.number(&parsed.epochs_since_improvement)) {
    return false;
  }

  // Optimizer block: staged in a scratch copy so a later failure leaves the
  // attached optimizer untouched.
  bool has_optimizer = false;
  if (!in.word("optimizer") || !read_flag(in, &has_optimizer)) return false;
  std::optional<nn::Adam> staged_optimizer;
  if (has_optimizer) {
    if (state.optimizer == nullptr) return false;
    staged_optimizer.emplace(*state.optimizer);
    if (!staged_optimizer->deserialize(in)) return false;
  }

  bool has_rng = false;
  if (!in.word("rng") || !read_flag(in, &has_rng)) return false;
  sqvae::Rng::State rng_state;
  if (has_rng) {
    if (state.rng == nullptr) return false;
    if (!in.number(&rng_state.state_hi) || !in.number(&rng_state.state_lo) ||
        !in.number(&rng_state.cached_normal, NonFinite::kAllow) ||
        !read_flag(in, &rng_state.has_cached_normal)) {
      return false;
    }
  }

  if (!in.at_end()) return false;

  commit_parameters(params, staged);
  if (staged_optimizer.has_value()) {
    *state.optimizer = std::move(*staged_optimizer);
  }
  if (has_rng) state.rng->set_state(rng_state);
  state.next_epoch = parsed.next_epoch;
  state.has_best = parsed.has_best;
  state.best_epoch = parsed.best_epoch;
  state.best_metric = parsed.best_metric;
  state.epochs_since_improvement = parsed.epochs_since_improvement;
  return true;
}

bool load_params_only(const std::string& text, Autoencoder& model) {
  Cursor in(text);
  const int version = read_version(in);
  if (version != 1 && version != 2) return false;
  const auto params = checkpoint_parameters(model);
  std::vector<Matrix> staged;
  if (!read_parameters(in, params, staged)) return false;
  // v2 training state (epoch/best/optimizer/rng blocks) is ignored here —
  // see the header contract. v1 ends at the parameters, so trailing bytes
  // still mean a corrupt file.
  if (version == 1 && !in.at_end()) return false;
  commit_parameters(params, staged);
  return true;
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream buffer;
  buffer << f.rdbuf();
  *text = std::move(buffer).str();
  return true;
}

bool write_file_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp);
    if (!f) return false;
    f << text;
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool save_checkpoint(Autoencoder& model, const std::string& path) {
  return write_file_atomic(path, checkpoint_to_text(model));
}

bool load_checkpoint(const std::string& path, Autoencoder& model) {
  std::string text;
  return read_file(path, &text) && checkpoint_from_text(text, model);
}

bool save_train_checkpoint(const std::string& path, Autoencoder& model,
                           const TrainState& state) {
  return write_file_atomic(path, checkpoint_to_text_v2(model, state));
}

bool load_train_checkpoint(const std::string& path, Autoencoder& model,
                           TrainState& state) {
  std::string text;
  return read_file(path, &text) &&
         checkpoint_from_text_v2(text, model, state);
}

}  // namespace sqvae::models
