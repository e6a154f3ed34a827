// `train`: one training run of a ligand autoencoder through Trainer::fit,
// with the trainer's defaults apart from the workload's hyperparameters.
//
// Set-up ends when fit() is entered; the runner times it from the moment
// it launched this process. Per-sample wall time comes from the rows the
// engine pulls: each sample copies its row first, so on one trainer
// thread the gap between two row copies is one sample's tape build and
// backward pass, and at a batch end also the barrier, the fixed-order
// reduction and the Adam step.
//
// The sample budget that the quality figures see is fixed (--epochs);
// their evaluation runs in the epoch callback right after that epoch.
// Training then goes on until at least 1/kKeepOf of the budgeted epoch
// count ran with little host steal, so the runner can report speed from
// that many least-stolen epochs: up to kExtend times --seconds of wall
// time, or kStormExtend times once a storm of steal was seen (bench.h).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/flags.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "bench.h"
#include "models/checkpoint.h"
#include "models/generation.h"
#include "models/trainer.h"

namespace perfbench {
namespace {

// Molecules sampled for valid_frac (the paper's Table II protocol).
constexpr std::size_t kGenerated = 1000;

/// Matrix rows handed to the trainer, stamping (time, thread) per copy.
class StampedRows final : public sqvae::data::RowSource {
 public:
  StampedRows(const Matrix& m, std::size_t capacity)
      : m_(m), times_(capacity), threads_(capacity) {}

  std::size_t rows() const override { return m_.rows(); }
  std::size_t cols() const override { return m_.cols(); }
  void copy_row(std::size_t row, double* out) const override {
    const std::size_t k = next_.fetch_add(1, std::memory_order_relaxed);
    if (k < times_.size()) {
      times_[k] = mono_us();
#ifdef _OPENMP
      threads_[k] = static_cast<double>(omp_get_thread_num());
#endif
    }
    const double* src = m_.data() + row * m_.cols();
    for (std::size_t c = 0; c < m_.cols(); ++c) out[c] = src[c];
  }

  /// Per-sample gaps between consecutive row copies on the same thread
  /// (each thread's last sample ends at `end_us`), and the epoch each
  /// sample started in (`epoch_end_us` holds the epochs' end times).
  void sample_ms(double end_us, const std::vector<double>& epoch_end_us,
                 std::vector<double>* ms, std::vector<double>* epoch) const {
    const std::size_t n = std::min(next_.load(), times_.size());
    std::vector<double> last(256, -1.0);
    // A thread's last sample of an epoch ends no later than the epoch.
    auto emit = [&](double start, double end) {
      const auto e = std::upper_bound(epoch_end_us.begin(),
                                      epoch_end_us.end(), start);
      if (e != epoch_end_us.end()) end = std::min(end, *e);
      ms->push_back((end - start) / 1e3);
      epoch->push_back(static_cast<double>(e - epoch_end_us.begin()));
    };
    for (std::size_t k = 0; k < n; ++k) {
      const auto t = static_cast<std::size_t>(threads_[k]) % last.size();
      if (last[t] >= 0.0) emit(last[t], times_[k]);
      last[t] = times_[k];
    }
    for (double t : last) {
      if (t >= 0.0) emit(t, end_us);
    }
  }

 private:
  const Matrix& m_;
  mutable std::atomic<std::size_t> next_{0};
  // Written once per slot k by the thread that claimed k.
  mutable std::vector<double> times_;
  mutable std::vector<double> threads_;
};

struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

}  // namespace

int cmd_train(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_string("geometry", "sq-vae-ligand", "model family");
  flags.add_int("seed", 1, "workload seed");
  flags.add_int("train_rows", 0, "training rows used (0 = all)");
  flags.add_int("epochs", 4, "epochs (the fixed sample budget)");
  flags.add_double("seconds", 10.0, "nominal run length the budget targets");
  flags.add_bool("setup_only", false, "stop where training would start");
  flags.add_bool("storm_wait", true, "go on through a storm of steal");
  flags.add_string("checkpoint_out", "", "write the trained model here");
  flags.add_string("out", "", "result JSON path");
  if (!flags.parse(argc, argv)) return 0;

  const Geometry g = geometry(flags.get_string("geometry"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const Corpus corpus =
      make_corpus(seed, static_cast<std::size_t>(flags.get_int("train_rows")));
  auto model = make_model(g, seed);

  const auto budget = static_cast<std::size_t>(flags.get_int("epochs"));
  const double storm_extend =
      flags.get_bool("storm_wait") ? kStormExtend : kExtend;
  sqvae::models::TrainConfig config;
  config.epochs = static_cast<std::size_t>(
      std::ceil(storm_extend * static_cast<double>(budget)));
  config.batch_size = 32;
  config.quantum_lr = g.quantum_lr;
  config.classical_lr = g.classical_lr;
  sqvae::models::Trainer trainer(*model, config);
  StampedRows rows(corpus.train, corpus.train.rows() * config.epochs);
  sqvae::Rng rng(seed ^ 0x747261696eull);

  const double first_step = mono_s();
  if (flags.get_bool("setup_only")) {
    std::printf("%s\n",
                JsonObject().num("first_step_mono", first_step).done().c_str());
    return 0;
  }

  std::vector<double> epoch_s;
  std::vector<double> epoch_loss;
  std::vector<double> epoch_end_us;
  std::vector<double> epoch_steal;
  std::size_t non_finite = 0;
  std::size_t clean = 0;
  bool storm_seen = false;
  double recon_mse = NAN;
  sqvae::models::GenerationMetrics gen;
  bool checkpoint_ok = true;
  const std::string ckpt = flags.get_string("checkpoint_out");
  struct Enough {};  // thrown from the callback to end training early
  const double seconds = flags.get_double("seconds");
  const double fit_start = mono_s();
  const Usage before = usage_now();
  CpuTimes cpu = read_cpu_times();
  try {
    trainer.fit(rows, nullptr, rng,
                [&](const sqvae::models::EpochStats& s) {
                  epoch_end_us.push_back(mono_us());
                  const CpuTimes now = read_cpu_times();
                  epoch_steal.push_back(steal_share(cpu, now));
                  if (epoch_steal.back() <= kStealLimit) ++clean;
                  epoch_s.push_back(s.seconds);
                  epoch_loss.push_back(s.train_loss);
                  if (!std::isfinite(s.train_loss)) ++non_finite;
                  const std::size_t done = epoch_s.size();
                  if (done == budget) {
                    sqvae::Rng eval_rng(seed ^ 0x6576616cull);
                    recon_mse = model->evaluate_mse(corpus.test, eval_rng);
                    gen = sqvae::models::sample_and_evaluate(
                        *model, kGenerated, kMatrixDim, eval_rng);
                    if (!ckpt.empty()) {
                      checkpoint_ok =
                          sqvae::models::save_checkpoint(*model, ckpt);
                    }
                  }
                  // Extra epochs stop once 1/kKeepOf of the budget ran
                  // clean, or once the run is kExtend times its nominal
                  // length (storm_extend times after a storm of steal).
                  storm_seen = storm_seen || in_storm(epoch_steal, 2);  // ~2 s
                  const bool late =
                      mono_s() - fit_start >=
                      (storm_seen ? storm_extend : kExtend) * seconds;
                  if (done >= budget && (kKeepOf * clean >= budget || late)) {
                    throw Enough{};
                  }
                  cpu = read_cpu_times();  // the evaluation is not epoch time
                });
  } catch (const Enough&) {
  }
  const double fit_end = mono_us();
  const Usage after = usage_now();
  const double rss = peak_rss_mb();
  std::vector<double> sample_ms;
  std::vector<double> sample_epoch;
  rows.sample_ms(fit_end, epoch_end_us, &sample_ms, &sample_epoch);
  if (!std::isfinite(recon_mse)) ++non_finite;
  if (!checkpoint_ok) {
    std::fprintf(stderr, "train: cannot write %s\n", ckpt.c_str());
    return 1;
  }

  const std::string json =
      JsonObject()
          .num("first_step_mono", first_step)
          .integer("train_rows", static_cast<long long>(corpus.train.rows()))
          .integer("test_rows", static_cast<long long>(corpus.test.rows()))
          .integer("keep_epochs",
                   static_cast<long long>((budget + kKeepOf - 1) / kKeepOf))
          .integer("threads",
                   sqvae::models::Trainer::resolve_threads(*model, config))
          .nums("epoch_s", epoch_s)
          .nums("epoch_loss", epoch_loss)
          .nums("epoch_steal", epoch_steal)
          .integer("non_finite", static_cast<long long>(non_finite))
          .num("recon_mse", recon_mse)
          .integer("generated", static_cast<long long>(gen.requested))
          .integer("valid", static_cast<long long>(gen.valid))
          .num("peak_rss_mb", rss)
          .num("cpu_s", after.cpu_s - before.cpu_s)
          .num("ctx_switches", after.ctx_switches - before.ctx_switches)
          .nums("sample_ms", sample_ms)
          .nums("sample_epoch", sample_epoch)
          .done();
  const std::string out = flags.get_string("out");
  if (out.empty()) {
    std::printf("%s\n", json.c_str());
  } else if (!write_text(out, json)) {
    std::fprintf(stderr, "train: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
