// Optimizers with parameter groups.
//
// Parameter groups are load-bearing for this paper: the heterogeneous
// learning-rate study (Fig. 7) trains the quantum rotation angles and the
// classical weights of one hybrid model with *different* learning rates
// within a single Adam instance — exactly PyTorch's param_groups mechanism.
#pragma once

#include <string>
#include <vector>

#include "autodiff/tape.h"

namespace sqvae::number_text {
class Cursor;
}  // namespace sqvae::number_text

namespace sqvae::nn {

using ad::Parameter;

/// A set of parameters sharing one learning rate.
struct ParamGroup {
  std::vector<Parameter*> params;
  double lr = 1e-3;
};

/// Adam (Kingma & Ba, 2015) with the paper's defaults beta1=0.9,
/// beta2=0.999, eps=1e-8, and per-group learning rates.
class Adam {
 public:
  explicit Adam(std::vector<ParamGroup> groups, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update from the gradients accumulated in each parameter.
  void step();

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Changes the learning rate of group `g`.
  void set_lr(std::size_t g, double lr);
  double lr(std::size_t g) const { return groups_[g].lr; }
  std::size_t num_groups() const { return groups_.size(); }

  /// Total number of scalar parameters across all groups.
  std::size_t num_parameters() const;

  /// Global step count (number of step() calls applied so far).
  long long step_count() const { return t_; }

  /// Appends the full optimizer state — step count, per-group learning
  /// rates, and per-parameter first/second moments — as whitespace-
  /// separated text through common/number_text.h (shortest round-trip
  /// form), so serialize/deserialize round trips are bit-exact for
  /// doubles. Checkpoint v2 embeds this block; a resumed run's Adam is
  /// indistinguishable from one that never stopped.
  void serialize(std::string* out) const;

  /// Restores state written by serialize() (or by the max_digits10 writer
  /// before it), reading from `in`. The group/parameter shape structure
  /// must match this optimizer's; on any mismatch or parse error the
  /// optimizer is left untouched and false is returned. Non-finite moments
  /// load, like every checkpoint value.
  bool deserialize(number_text::Cursor& in);

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  std::vector<ParamGroup> groups_;
  std::vector<std::vector<State>> state_;  // parallel to groups_
  double beta1_, beta2_, eps_;
  long long t_ = 0;
};

/// Plain SGD with per-group learning rates (used in optimizer tests as a
/// behavioural baseline).
class Sgd {
 public:
  explicit Sgd(std::vector<ParamGroup> groups);
  void step();
  void zero_grad();

 private:
  std::vector<ParamGroup> groups_;
};

}  // namespace sqvae::nn
