#include "nn/optim.h"

#include <cassert>
#include <cmath>

#include "common/number_text.h"

namespace sqvae::nn {

Adam::Adam(std::vector<ParamGroup> groups, double beta1, double beta2,
           double eps)
    : groups_(std::move(groups)), beta1_(beta1), beta2_(beta2), eps_(eps) {
  state_.resize(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    state_[g].reserve(groups_[g].params.size());
    for (Parameter* p : groups_[g].params) {
      assert(p != nullptr);
      state_[g].push_back(State{Matrix(p->value.rows(), p->value.cols()),
                                Matrix(p->value.rows(), p->value.cols())});
    }
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const double lr = groups_[g].lr;
    for (std::size_t i = 0; i < groups_[g].params.size(); ++i) {
      Parameter& p = *groups_[g].params[i];
      State& s = state_[g][i];
      for (std::size_t k = 0; k < p.value.size(); ++k) {
        const double grad = p.grad[k];
        s.m[k] = beta1_ * s.m[k] + (1.0 - beta1_) * grad;
        s.v[k] = beta2_ * s.v[k] + (1.0 - beta2_) * grad * grad;
        const double mhat = s.m[k] / bc1;
        const double vhat = s.v[k] / bc2;
        p.value[k] -= lr * mhat / (std::sqrt(vhat) + eps_);
      }
    }
  }
}

void Adam::zero_grad() {
  for (auto& group : groups_) {
    for (Parameter* p : group.params) p->zero_grad();
  }
}

void Adam::set_lr(std::size_t g, double lr) {
  assert(g < groups_.size());
  groups_[g].lr = lr;
}

std::size_t Adam::num_parameters() const {
  std::size_t n = 0;
  for (const auto& group : groups_) {
    for (const Parameter* p : group.params) n += p->size();
  }
  return n;
}

void Adam::serialize(std::string* out) const {
  using number_text::append;
  number_text::append_line(out, "adam", t_, groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    number_text::append_line(out, groups_[g].lr, groups_[g].params.size());
    for (std::size_t i = 0; i < groups_[g].params.size(); ++i) {
      const State& s = state_[g][i];
      append(out, s.m.rows());
      *out += ' ';
      append(out, s.m.cols());
      for (const Matrix* moment : {&s.m, &s.v}) {
        for (std::size_t k = 0; k < moment->size(); ++k) {
          *out += ' ';
          append(out, (*moment)[k]);
        }
      }
      *out += '\n';
    }
  }
}

bool Adam::deserialize(number_text::Cursor& in) {
  constexpr auto kAllow = number_text::NonFinite::kAllow;
  long long t = 0;
  std::size_t num_groups = 0;
  if (!in.word("adam") || !in.number(&t) || !in.number(&num_groups) ||
      t < 0 || num_groups != groups_.size()) {
    return false;
  }
  // Parse into staging storage; the optimizer mutates only on full success.
  std::vector<double> lrs(num_groups);
  std::vector<std::vector<State>> staged(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    std::size_t num_params = 0;
    if (!in.number(&lrs[g], kAllow) || !in.number(&num_params) ||
        num_params != groups_[g].params.size()) {
      return false;
    }
    staged[g].reserve(num_params);
    for (std::size_t i = 0; i < num_params; ++i) {
      std::size_t rows = 0, cols = 0;
      if (!in.number(&rows) || !in.number(&cols)) return false;
      const Parameter& p = *groups_[g].params[i];
      if (rows != p.value.rows() || cols != p.value.cols()) return false;
      State s{Matrix(rows, cols), Matrix(rows, cols)};
      for (Matrix* moment : {&s.m, &s.v}) {
        for (std::size_t k = 0; k < moment->size(); ++k) {
          if (!in.number(&(*moment)[k], kAllow)) return false;
        }
      }
      staged[g].push_back(std::move(s));
    }
  }
  t_ = t;
  for (std::size_t g = 0; g < num_groups; ++g) groups_[g].lr = lrs[g];
  state_ = std::move(staged);
  return true;
}

Sgd::Sgd(std::vector<ParamGroup> groups) : groups_(std::move(groups)) {}

void Sgd::step() {
  for (auto& group : groups_) {
    for (Parameter* p : group.params) {
      for (std::size_t k = 0; k < p->value.size(); ++k) {
        p->value[k] -= group.lr * p->grad[k];
      }
    }
  }
}

void Sgd::zero_grad() {
  for (auto& group : groups_) {
    for (Parameter* p : group.params) p->zero_grad();
  }
}

}  // namespace sqvae::nn
