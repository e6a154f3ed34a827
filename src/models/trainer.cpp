#include "models/trainer.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_budget.h"
#include "data/dataset.h"
#include "models/checkpoint.h"

namespace sqvae::models {

namespace {

/// Scales all gradients so their global L2 norm is at most `max_norm`.
void clip_gradients(const std::vector<nn::ParamGroup>& groups,
                    double max_norm) {
  double sum_sq = 0.0;
  for (const nn::ParamGroup& g : groups) {
    for (const ad::Parameter* p : g.params) {
      for (std::size_t i = 0; i < p->grad.size(); ++i) {
        sum_sq += p->grad[i] * p->grad[i];
      }
    }
  }
  const double norm = std::sqrt(sum_sq);
  if (norm <= max_norm || norm == 0.0) return;
  const double scale = max_norm / norm;
  for (const nn::ParamGroup& g : groups) {
    for (ad::Parameter* p : g.params) {
      for (std::size_t i = 0; i < p->grad.size(); ++i) {
        p->grad[i] *= scale;
      }
    }
  }
}

/// Per-sample gradient buffer: one (possibly still-empty) matrix per
/// parameter, indexed by the trainer's fixed parameter order. Empty slots
/// mean "no gradient flowed here" and are skipped by the reduction.
class IndexedGradSink final : public ad::GradSink {
 public:
  IndexedGradSink(const std::unordered_map<ad::Parameter*, std::size_t>& index,
                  std::vector<Matrix>& grads)
      : index_(index), grads_(grads) {}

  void accumulate(ad::Parameter* p, const Matrix& grad) override {
    const auto it = index_.find(p);
    assert(it != index_.end() && "gradient for a parameter outside the model");
    if (it == index_.end()) return;
    Matrix& slot = grads_[it->second];
    if (slot.empty()) {
      slot = grad;
    } else {
      slot += grad;
    }
  }

 private:
  const std::unordered_map<ad::Parameter*, std::size_t>& index_;
  std::vector<Matrix>& grads_;
};

struct EpochSums {
  double loss = 0.0;
  double mse = 0.0;
  double kl = 0.0;
  std::size_t samples = 0;
};

/// The sharded engine's cross-thread state, made explicit so the lock
/// discipline (or deliberate absence of one) is auditable in one place.
///
/// This is the *only* state OpenMP worker threads share during a
/// data-parallel batch, and it is intentionally lock-free: sample s
/// writes exclusively into slot(s) — its private gradient vector and
/// LossStats — so writes are disjoint by construction and the fixed-order
/// reduction below reads them only after the parallel region's implicit
/// barrier. No GUARDED_BY applies because no mutex exists; adding one
/// would serialise the engine and change nothing about the result, which
/// is bit-identical for every thread count already (the determinism
/// contract pinned by tests/trainer_parallel_test.cpp).
struct ShardedEpochState {
  ShardedEpochState(std::size_t batch_size, std::size_t num_params)
      : sample_grads(batch_size, std::vector<Matrix>(num_params)),
        sample_stats(batch_size) {}

  /// Thread-private gradient slot of sample `s`; no other sample's thread
  /// may touch it.
  std::vector<Matrix>& grads(std::size_t s) { return sample_grads[s]; }
  LossStats* stats(std::size_t s) { return &sample_stats[s]; }

  std::vector<std::vector<Matrix>> sample_grads;
  std::vector<LossStats> sample_stats;
};

}  // namespace

Trainer::Trainer(Autoencoder& model, const TrainConfig& config)
    : model_(model), config_(config) {}

int Trainer::resolve_threads(const Autoencoder& /*model*/,
                             const TrainConfig& config) {
  if (!thread_budget::kOpenMP) return 1;
  return thread_budget::split(thread_budget::current(), config.num_threads)
      .team;
}

std::vector<EpochStats> Trainer::fit(const Matrix& train, const Matrix* test,
                                     sqvae::Rng& rng,
                                     const EpochCallback& callback) {
  const data::MatrixRowSource source(train);
  return fit(source, test, rng, callback);
}

std::vector<EpochStats> Trainer::fit(const data::RowSource& train,
                                     const Matrix* test, sqvae::Rng& rng,
                                     const EpochCallback& callback) {
  model_.set_kl_weight(config_.kl_weight);
  if (config_.sim.has_value()) {
    model_.set_simulation_options(*config_.sim);
  }
  const std::vector<nn::ParamGroup> groups =
      model_.param_groups(config_.quantum_lr, config_.classical_lr);
  nn::Adam optimizer(groups);

  // Fixed parameter order (group-major) for the deterministic gradient
  // reduction of the data-parallel engine.
  std::vector<ad::Parameter*> params;
  std::unordered_map<ad::Parameter*, std::size_t> param_index;
  for (const nn::ParamGroup& g : groups) {
    for (ad::Parameter* p : g.params) {
      param_index.emplace(p, params.size());
      params.push_back(p);
    }
  }

  has_best_ = false;
  best_epoch_ = 0;
  best_metric_ = std::numeric_limits<double>::infinity();
  std::size_t epochs_since_improvement = 0;
  std::string best_text;

  std::size_t start_epoch = 0;
  if (config_.resume && !config_.checkpoint_path.empty()) {
    std::ifstream probe(config_.checkpoint_path);
    if (probe.good()) {
      probe.close();
      TrainState state;
      state.optimizer = &optimizer;
      state.rng = &rng;
      if (!load_train_checkpoint(config_.checkpoint_path, model_, state)) {
        throw std::runtime_error("Trainer: cannot resume from '" +
                                 config_.checkpoint_path +
                                 "' (corrupt or mismatched checkpoint)");
      }
      start_epoch = state.next_epoch;
      has_best_ = state.has_best;
      best_epoch_ = state.best_epoch;
      if (state.has_best) best_metric_ = state.best_metric;
      epochs_since_improvement = state.epochs_since_improvement;
      // The best parameters seen before the interruption live in the
      // sibling ".best" file; reload them so restore_best still works when
      // no post-resume epoch improves on the pre-kill best.
      // A missing file leaves best_text empty.
      (void)read_file(config_.checkpoint_path + ".best", &best_text);
    }
  }

  // A run that already ended via early stopping must stay stopped: without
  // this, every --resume invocation would creep one more epoch past the
  // stop point (the counter satisfies the condition again only after the
  // extra epoch fails to improve).
  const bool already_stopped =
      config_.early_stop_patience > 0 &&
      epochs_since_improvement >= config_.early_stop_patience;
  if (already_stopped) start_epoch = config_.epochs;

  // The sample team; each member runs the model at its share of the
  // budget.
  const thread_budget::Split split = thread_budget::split(
      thread_budget::current(), resolve_threads(model_, config_));

  std::vector<EpochStats> history;
  history.reserve(config_.epochs > start_epoch ? config_.epochs - start_epoch
                                               : 0);

  for (std::size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    Stopwatch watch;
    if (config_.lr_decay != 1.0 && epoch > 0) {
      for (std::size_t g = 0; g < optimizer.num_groups(); ++g) {
        optimizer.set_lr(g, optimizer.lr(g) * config_.lr_decay);
      }
    }
    const auto batches =
        data::make_batches(train.rows(), config_.batch_size, rng);

    EpochSums sums;
    for (const auto& indices : batches) {
      const std::size_t batch_size = indices.size();
      if (batch_size == 0) continue;

      if (config_.data_parallel) {
        // ---- sharded engine: one tape + private gradients per sample ----
        ShardedEpochState shared(batch_size, params.size());
        const std::int64_t n = static_cast<std::int64_t>(batch_size);
        thread_budget::parallel_for(split, n, [&] {
          return [&](std::int64_t s) {
            const std::size_t row = indices[static_cast<std::size_t>(s)];
            Matrix sample(1, train.cols());
            train.copy_row(row, sample.data());
            // Stateless per-sample stream: the noise a sample sees depends
            // only on (noise_seed, epoch, row), never on which thread runs
            // it or in what order.
            sqvae::Rng sample_rng = sqvae::Rng::stream(
                config_.noise_seed, static_cast<std::uint64_t>(epoch),
                static_cast<std::uint64_t>(row));
            ad::Tape tape;
            IndexedGradSink sink(param_index,
                                 shared.grads(static_cast<std::size_t>(s)));
            tape.set_grad_sink(&sink);
            ad::Var loss =
                model_.build_loss(tape, sample, sample_rng,
                                  shared.stats(static_cast<std::size_t>(s)));
            tape.backward(loss);
          };
        });

        // Fixed-order reduction (sample 0, 1, ..., B-1), then one scale by
        // 1/B: bit-identical for every thread count, and equal to the
        // gradient of the batch-mean loss.
        optimizer.zero_grad();
        for (std::size_t s = 0; s < batch_size; ++s) {
          for (std::size_t k = 0; k < params.size(); ++k) {
            if (!shared.sample_grads[s][k].empty()) {
              params[k]->grad += shared.sample_grads[s][k];
            }
          }
        }
        const double inv_batch = 1.0 / static_cast<double>(batch_size);
        for (ad::Parameter* p : params) p->grad *= inv_batch;
        if (config_.grad_clip > 0.0) {
          clip_gradients(groups, config_.grad_clip);
        }
        optimizer.step();

        for (const LossStats& s : shared.sample_stats) {
          sums.loss += s.total;
          sums.mse += s.reconstruction_mse;
          sums.kl += s.kl;
        }
        sums.samples += batch_size;
      } else {
        // ---- legacy serial engine: one tape per batch ----
        Matrix batch(batch_size, train.cols());
        for (std::size_t r = 0; r < batch_size; ++r) {
          train.copy_row(indices[r], batch.data() + r * train.cols());
        }
        ad::Tape tape;
        LossStats stats;
        ad::Var loss = model_.build_loss(tape, batch, rng, &stats);
        optimizer.zero_grad();
        tape.backward(loss);
        if (config_.grad_clip > 0.0) {
          clip_gradients(groups, config_.grad_clip);
        }
        optimizer.step();
        // Weight by the batch's sample count: per-batch stats are means
        // over the batch, so equal weighting would over-weight a final
        // short batch.
        const double weight = static_cast<double>(batch_size);
        sums.loss += stats.total * weight;
        sums.mse += stats.reconstruction_mse * weight;
        sums.kl += stats.kl * weight;
        sums.samples += batch_size;
      }
    }

    EpochStats stats;
    stats.epoch = epoch;
    const double n = static_cast<double>(sums.samples > 0 ? sums.samples : 1);
    stats.train_loss = sums.loss / n;
    stats.train_mse = sums.mse / n;
    stats.train_kl = sums.kl / n;
    if (test != nullptr && test->rows() > 0) {
      stats.test_mse = model_.evaluate_mse(*test, rng);
    }
    stats.seconds = watch.seconds();
    if (callback) callback(stats);
    history.push_back(stats);

    // ---- best-model tracking + early stopping ----
    const double metric = (test != nullptr && test->rows() > 0)
                              ? stats.test_mse
                              : stats.train_loss;
    const bool improved =
        !has_best_ || metric < best_metric_ - config_.early_stop_min_delta;
    if (!has_best_ || metric < best_metric_) {
      has_best_ = true;
      best_metric_ = metric;
      best_epoch_ = epoch;
      if (config_.restore_best || !config_.checkpoint_path.empty()) {
        best_text = checkpoint_to_text(model_);
        if (!config_.checkpoint_path.empty()) {
          write_file_atomic(config_.checkpoint_path + ".best", best_text);
        }
      }
    }
    epochs_since_improvement = improved ? 0 : epochs_since_improvement + 1;
    const bool stopping =
        config_.early_stop_patience > 0 &&
        epochs_since_improvement >= config_.early_stop_patience;

    // ---- periodic checkpoint (after all of this epoch's rng draws) ----
    if (!config_.checkpoint_path.empty()) {
      const std::size_t every =
          config_.checkpoint_every > 0 ? config_.checkpoint_every : 1;
      const bool last = epoch + 1 == config_.epochs;
      if ((epoch + 1) % every == 0 || last || stopping) {
        TrainState state;
        state.next_epoch = epoch + 1;
        state.optimizer = &optimizer;
        state.rng = &rng;
        state.has_best = has_best_;
        state.best_epoch = best_epoch_;
        state.best_metric = has_best_ ? best_metric_ : 0.0;
        state.epochs_since_improvement = epochs_since_improvement;
        if (!save_train_checkpoint(config_.checkpoint_path, model_, state)) {
          std::fprintf(stderr,
                       "Trainer: failed to write checkpoint '%s' "
                       "(epoch %zu)\n",
                       config_.checkpoint_path.c_str(), epoch);
        }
      }
    }

    if (stopping) break;
  }

  best_restored_ = false;
  if (config_.restore_best && has_best_ && !best_text.empty()) {
    best_restored_ = checkpoint_from_text(best_text, model_);
    if (!best_restored_) {
      std::fprintf(stderr,
                   "Trainer: failed to restore best parameters (corrupt "
                   "'%s.best'?)\n",
                   config_.checkpoint_path.c_str());
    }
  }
  return history;
}

}  // namespace sqvae::models
