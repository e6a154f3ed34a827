// Training engine shared by every experiment.
//
// Implements the paper's protocol (Section IV-B): Adam with beta1 = 0.9,
// beta2 = 0.999, mini-batches of 32, 20 epochs by default, and separate
// quantum/classical learning-rate groups for the heterogeneous-LR study.
//
// Two epoch engines:
//
//   * data-parallel (default) — every mini-batch is sharded across OpenMP
//     threads at sample granularity: each sample builds its own ad::Tape
//     and backpropagates into a private gradient buffer (ad::GradSink), so
//     threads never touch shared Parameter::grad. Per-sample
//     reparameterisation noise comes from stateless streams keyed by
//     (noise_seed, epoch, dataset row) — Rng::stream — and the per-sample
//     gradients are reduced in fixed sample order after the parallel
//     region, by the same team over fixed-size element chunks of the
//     parameter list. Both choices make the math independent of the
//     thread count: training is bit-identical at 1 and N threads. The
//     team takes the caller's thread budget (common/thread_budget.h) and
//     each member runs its samples at budget / team. Stochastic
//     measurement regimes (trajectory/shots, fixed in the model's config)
//     shard the same way: each estimate's noise is keyed by what its
//     circuit sees (qsim/backend.h), not by a counter, so it too is
//     independent of the thread count.
//
//   * serial (data_parallel = false) — the legacy one-tape-per-batch loop,
//     kept as the A/B baseline for bench_train_micro; its batch draws its
//     reparameterisation noise rows from the caller's Rng.
//
// Either way build_loss draws the noise rows from the Rng it is given and
// hands them to Autoencoder::forward as data, so one forward could carry
// rows of many streams.
//
// Both engines weight epoch statistics by *sample* count, so a final short
// batch no longer skews the reported means.
//
// Checkpoint/resume: with `checkpoint_path` set, fit() writes a v2
// checkpoint (parameters + Adam moments + LR positions + epoch cursor +
// Rng state, see models/checkpoint.h) every `checkpoint_every` epochs, and
// with `resume = true` continues from it such that the resumed run is
// bit-equivalent to one that was never interrupted, under every
// simulation regime: measurement noise is a function of the restored
// parameters and the data, so it needs no state of its own.
//
// Divergence: after each epoch's callback, fit() throws std::runtime_error
// naming the epoch when its training loss, its test MSE (with a test set)
// or any parameter is non-finite — before best tracking and the
// checkpoint write, so the files on disk keep the last finite epoch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "models/autoencoder.h"

namespace sqvae::models {

struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  double quantum_lr = 1e-3;
  double classical_lr = 1e-3;
  double kl_weight = 0.01;  // generative models only
  /// Global-norm gradient clipping threshold; 0 disables. Useful for the
  /// aggressive-learning-rate corners of the Fig. 7 grid.
  double grad_clip = 0.0;
  /// Per-epoch multiplicative learning-rate decay; 1 keeps the paper's
  /// constant schedule.
  double lr_decay = 1.0;

  // ---- data-parallel engine --------------------------------------------
  /// False selects the legacy serial one-tape-per-batch loop.
  bool data_parallel = true;
  /// Team size of the data-parallel engine: 0 = the caller's whole thread
  /// budget (common/thread_budget.h), 1 = serial execution of the same
  /// sharded math. Each member runs its samples at budget / team. Results
  /// are identical for every value.
  int num_threads = 0;
  /// Base seed of the per-sample reparameterisation-noise streams used by
  /// the data-parallel engine (sample noise = Rng::stream(noise_seed,
  /// epoch, row)). The serial engine draws from the caller's Rng instead.
  std::uint64_t noise_seed = 0x5eedab1e0b5eedull;

  // ---- checkpoint / resume ---------------------------------------------
  /// When non-empty, fit() saves a v2 checkpoint here every
  /// `checkpoint_every` epochs (and always after the final epoch). The
  /// best model so far is additionally kept at checkpoint_path + ".best".
  std::string checkpoint_path{};
  std::size_t checkpoint_every = 1;
  /// Continue from `checkpoint_path` if it exists (bit-equivalent to the
  /// uninterrupted run). A missing file starts a fresh run; a corrupt or
  /// mismatched file throws.
  bool resume = false;

  // ---- early stopping / best-model tracking ----------------------------
  /// Stop when the monitored metric (test MSE when a test set is given,
  /// else training loss) has not improved by more than
  /// `early_stop_min_delta` for this many consecutive epochs; 0 disables.
  std::size_t early_stop_patience = 0;
  double early_stop_min_delta = 0.0;
  /// Restore the best-metric parameters into the model after fit().
  bool restore_best = false;
};

struct EpochStats {
  std::size_t epoch = 0;
  double train_loss = 0.0;  // sample-weighted mean total loss
  double train_mse = 0.0;   // sample-weighted mean reconstruction MSE
  double train_kl = 0.0;    // sample-weighted mean KL (0 for AEs)
  double test_mse = 0.0;    // full-test-set reconstruction MSE (when given)
  double seconds = 0.0;     // wall-clock time of the epoch
};

using EpochCallback = std::function<void(const EpochStats&)>;

class Trainer {
 public:
  Trainer(Autoencoder& model, const TrainConfig& config);

  /// Trains on `train` (rows = samples); evaluates reconstruction MSE on
  /// `test` after each epoch when non-null. Returns per-epoch statistics
  /// (resumed runs return only the epochs they executed). Throws
  /// std::invalid_argument on batch_size 0, and std::runtime_error on a
  /// checkpoint that cannot be resumed or an epoch that diverged.
  std::vector<EpochStats> fit(const Matrix& train, const Matrix* test,
                              sqvae::Rng& rng,
                              const EpochCallback& callback = {});

  /// Streaming variant: samples are pulled row by row from `train` (e.g. a
  /// ShardDataset over memory-mapped molecule shards), so the corpus is
  /// never materialized. Bit-identical to the Matrix overload on the same
  /// rows: batching, per-sample noise streams, and the gradient reduction
  /// are all keyed by row index, not by storage.
  std::vector<EpochStats> fit(const data::RowSource& train, const Matrix* test,
                              sqvae::Rng& rng,
                              const EpochCallback& callback = {});

  /// Best-model tracking results of the last fit() call. The metric is
  /// test MSE when a test set was given, else training loss.
  bool has_best() const { return has_best_; }
  std::size_t best_epoch() const { return best_epoch_; }
  double best_metric() const { return best_metric_; }
  /// True when restore_best actually rewound the model after the last
  /// fit() (false when disabled, nothing tracked, or the stored best
  /// parameters failed to load).
  bool best_restored() const { return best_restored_; }

  /// Team size the data-parallel engine uses under `config` and the
  /// calling thread's budget (1 in OpenMP-less builds). The same for every
  /// model; the model argument is unused. Exposed for benches and tests.
  static int resolve_threads(const Autoencoder& /*model*/,
                             const TrainConfig& config);

 private:
  Autoencoder& model_;
  TrainConfig config_;
  bool has_best_ = false;
  std::size_t best_epoch_ = 0;
  double best_metric_ = 0.0;
  bool best_restored_ = false;
};

}  // namespace sqvae::models
