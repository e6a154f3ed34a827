// sqvae_train: one training CLI for every scenario in the repository.
//
// Replaces the per-figure ad-hoc training loops: any model of the zoo
// (classical AE/VAE, fully/hybrid baseline quantum, scalable patched
// quantum) trains on any dataset scenario (procedural Digits, grayscale
// CIFAR stand-in, QM9-like or PDBbind-like molecule matrices) under any
// simulation regime (exact statevector, noise trajectories, finite
// shots), with periodic v2 checkpointing, exact --resume, early stopping,
// and best-model tracking. See README.md "Training".
//
// Examples:
//   sqvae_train --scenario=digits --model=sq-ae --epochs=10
//   sqvae_train --scenario=cifar --model=classical-vae --latent=10
//   sqvae_train --scenario=qm9 --model=fbq-ae --l1_normalize
//   sqvae_train --scenario=digits --model=hbq-vae --backend=shots --shots=512
//   sqvae_train ... --checkpoint=run.ckpt --checkpoint_every=2
//   sqvae_train ... --checkpoint=run.ckpt --resume   # continue after a kill
//
// Corpus-scale streaming: --shards=a.moldb,b.moldb trains directly from
// content-addressed molecule shards (moldb_make / moldb_merge) without
// materializing the corpus — rows are decoded record by record from the
// memory-mapped store. The last --test_fraction of rows (capped at
// --max_test) is held out and materialized for per-epoch evaluation.
//   sqvae_train --shards=corpus.moldb --matrix_dim=8 --model=sq-ae
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "data/cifar_gray.h"
#include "data/dataset.h"
#include "data/digits.h"
#include "data/molecule_dataset.h"
#include "data/shard_dataset.h"
#include "models/model_spec.h"
#include "models/trainer.h"

namespace {

using namespace sqvae;

struct Scenario {
  data::Dataset dataset;
  std::size_t input_dim = 0;
};

/// L1-normalises each streamed row on the fly (the fully quantum
/// baselines' input convention), mirroring data::l1_normalize_rows.
class L1NormalizedSource final : public data::RowSource {
 public:
  explicit L1NormalizedSource(const data::RowSource& base) : base_(&base) {}
  std::size_t rows() const override { return base_->rows(); }
  std::size_t cols() const override { return base_->cols(); }
  void copy_row(std::size_t row, double* out) const override {
    base_->copy_row(row, out);
    double norm = 0.0;
    for (std::size_t c = 0; c < base_->cols(); ++c) norm += std::abs(out[c]);
    if (norm > 1e-12) {
      for (std::size_t c = 0; c < base_->cols(); ++c) out[c] /= norm;
    }
  }

 private:
  const data::RowSource* base_;
};

Scenario load_scenario(const Flags& flags, Rng& rng) {
  const std::string name = flags.get_string("scenario");
  const std::size_t count =
      static_cast<std::size_t>(flags.get_int("samples"));
  Scenario s;
  if (name == "digits") {
    const auto digits = data::make_digits(count, rng);
    s.dataset = data::scale(digits.features, 1.0 / 16.0);
  } else if (name == "cifar") {
    const auto cifar = data::make_cifar_gray(count, rng);
    s.dataset = cifar.features;
  } else if (name == "qm9") {
    const auto mols = data::make_qm9_like(count, 8, rng);
    s.dataset = mols.features();
  } else if (name == "pdbbind") {
    const auto mols = data::make_pdbbind_like(count, 32, rng);
    s.dataset = mols.features();
  } else {
    std::fprintf(stderr,
                 "unknown --scenario=%s (digits, cifar, qm9, pdbbind)\n",
                 name.c_str());
    std::exit(2);
  }
  if (flags.get_bool("l1_normalize")) {
    s.dataset = data::l1_normalize_rows(s.dataset);
  }
  s.input_dim = s.dataset.num_features();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  // Scenario / model.
  flags.add_string("scenario", "digits",
                   "dataset: digits, cifar, qm9, pdbbind");
  models::add_model_flags(flags);
  flags.add_int("samples", 300, "dataset size", 0);
  flags.add_double("test_fraction", 0.15, "held-out test fraction in [0, 1)");
  // Streaming corpus input (overrides --scenario / --samples).
  flags.add_string("shards", "",
                   "comma-separated molecule shards (moldb_make) to stream "
                   "from instead of --scenario");
  flags.add_int("matrix_dim", 8,
                "molecule-matrix dimension for --shards (input dim = "
                "matrix_dim^2)",
                1);
  flags.add_int("max_test", 4096,
                "cap on materialized held-out rows with --shards", 0);
  flags.add_bool("l1_normalize", false,
                 "L1-normalise rows (fully quantum baselines)");
  // Optimisation.
  flags.add_int("epochs", 20, "training epochs", 0);
  flags.add_int("batch", 32, "mini-batch size", 1);
  flags.add_double("qlr", 1e-3, "quantum learning rate");
  flags.add_double("clr", 1e-3, "classical learning rate");
  flags.add_double("kl_weight", 0.01, "KL weight (generative models)");
  flags.add_double("grad_clip", 0.0, "global-norm gradient clip (0 = off)");
  flags.add_double("lr_decay", 1.0, "per-epoch multiplicative LR decay");
  // Engine.
  flags.add_bool("serial", false,
                 "use the legacy serial per-batch engine instead of the "
                 "data-parallel sharded engine");
  flags.add_int("threads", 0,
                "data-parallel threads (0 = all; results are identical for "
                "every value)",
                0);
  flags.add_int("noise_seed", 0, "per-sample noise-stream seed (0 = default)");
  // Checkpoint / resume / early stop.
  flags.add_string("checkpoint", "",
                   "v2 checkpoint path (periodic save; best model at "
                   "<path>.best)");
  flags.add_int("checkpoint_every", 1, "epochs between checkpoint saves", 0);
  flags.add_bool("resume", false,
                 "continue from --checkpoint (bit-equivalent to an "
                 "uninterrupted run)");
  flags.add_int("early_stop_patience", 0,
                "epochs without improvement before stopping (0 = off)", 0);
  flags.add_double("early_stop_min_delta", 0.0,
                   "minimum improvement counted by early stopping");
  flags.add_bool("restore_best", false,
                 "restore the best-metric parameters after training");
  // Misc.
  flags.add_int("seed", 7, "master random seed");
  flags.add_string("history_csv", "", "optional per-epoch history CSV path");

  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  models::ModelSpec spec;
  std::string error;
  if (!models::spec_from_flags(flags, &spec, &error)) {
    std::fprintf(stderr, "sqvae_train: %s\n", error.c_str());
    return 2;
  }
  const double test_fraction = flags.get_double("test_fraction");
  if (!(test_fraction >= 0.0 && test_fraction < 1.0)) {
    std::fprintf(stderr, "sqvae_train: --test_fraction must lie in [0, 1)\n");
    return 2;
  }

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  // Data: an in-memory scenario, or rows streamed from molecule shards.
  // Both feed the trainer through the same RowSource seam, so the math is
  // identical — only where the bytes live differs.
  std::unique_ptr<data::ShardDataset> shard_dataset;
  std::vector<std::unique_ptr<data::RowSource>> source_chain;
  Matrix train_matrix;  // scenario-path storage
  Matrix test_matrix;
  std::size_t input_dim = 0;
  std::string data_name;
  if (!flags.get_string("shards").empty()) {
    const auto paths = flags.get_list("shards");
    try {
      shard_dataset = std::make_unique<data::ShardDataset>(
          paths, static_cast<std::size_t>(flags.get_int("matrix_dim")));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    const std::size_t n = shard_dataset->rows();
    std::size_t n_test =
        static_cast<std::size_t>(static_cast<double>(n) * test_fraction);
    const std::size_t max_test =
        static_cast<std::size_t>(flags.get_int("max_test"));
    if (n_test > max_test) n_test = max_test;
    const std::size_t n_train = n - n_test;
    source_chain.push_back(
        std::make_unique<data::RowSlice>(*shard_dataset, 0, n_train));
    test_matrix = data::materialize_rows(*shard_dataset, n_train, n_test);
    if (flags.get_bool("l1_normalize")) {
      source_chain.push_back(
          std::make_unique<L1NormalizedSource>(*source_chain.back()));
      test_matrix =
          data::l1_normalize_rows(data::Dataset{std::move(test_matrix)})
              .samples;
    }
    input_dim = shard_dataset->cols();
    data_name = "shards(" + std::to_string(paths.size()) + " files, " +
                std::to_string(n) + " records)";
  } else {
    Scenario scenario = load_scenario(flags, rng);
    auto split = data::train_test_split(scenario.dataset, test_fraction, rng);
    train_matrix = std::move(split.train.samples);
    test_matrix = std::move(split.test.samples);
    input_dim = scenario.input_dim;
    source_chain.push_back(
        std::make_unique<data::MatrixRowSource>(train_matrix));
    data_name = flags.get_string("scenario");
  }
  const data::RowSource& train_source = *source_chain.back();

  spec.input_dim = input_dim;
  std::unique_ptr<models::Autoencoder> model =
      models::build_model(spec, rng, &error);
  if (model == nullptr) {
    std::fprintf(stderr, "sqvae_train: %s\n", error.c_str());
    return 2;
  }

  models::TrainConfig config;
  config.epochs = static_cast<std::size_t>(flags.get_int("epochs"));
  config.batch_size = static_cast<std::size_t>(flags.get_int("batch"));
  config.quantum_lr = flags.get_double("qlr");
  config.classical_lr = flags.get_double("clr");
  config.kl_weight = flags.get_double("kl_weight");
  config.grad_clip = flags.get_double("grad_clip");
  config.lr_decay = flags.get_double("lr_decay");
  config.data_parallel = !flags.get_bool("serial");
  config.num_threads = static_cast<int>(flags.get_int("threads"));
  if (flags.get_int("noise_seed") != 0) {
    config.noise_seed = static_cast<std::uint64_t>(flags.get_int("noise_seed"));
  }
  config.checkpoint_path = flags.get_string("checkpoint");
  config.checkpoint_every =
      static_cast<std::size_t>(flags.get_int("checkpoint_every"));
  config.resume = flags.get_bool("resume");
  config.early_stop_patience =
      static_cast<std::size_t>(flags.get_int("early_stop_patience"));
  config.early_stop_min_delta = flags.get_double("early_stop_min_delta");
  config.restore_best = flags.get_bool("restore_best");

  models::Trainer trainer(*model, config);
  std::printf(
      "sqvae_train: %s on %s (%zu train / %zu test, input dim %zu), "
      "%s engine, %d thread(s), backend %s\n",
      flags.get_string("model").c_str(), data_name.c_str(),
      train_source.rows(), test_matrix.rows(), input_dim,
      config.data_parallel ? "data-parallel" : "serial",
      models::Trainer::resolve_threads(*model, config),
      flags.get_string("backend").c_str());

  Table table({"epoch", "train_loss", "train_mse", "train_kl", "test_mse",
               "seconds"});
  const auto report_epoch = [&table](const models::EpochStats& e) {
    std::printf(
        "epoch %3zu  loss %.6f  mse %.6f  kl %.6f  test %.6f  (%.2fs)\n",
        e.epoch, e.train_loss, e.train_mse, e.train_kl, e.test_mse, e.seconds);
    std::fflush(stdout);
    table.add_row({std::to_string(e.epoch), Table::fmt(e.train_loss, 6),
                   Table::fmt(e.train_mse, 6), Table::fmt(e.train_kl, 6),
                   Table::fmt(e.test_mse, 6), Table::fmt(e.seconds, 2)});
  };
  std::vector<models::EpochStats> history;
  try {
    history = trainer.fit(train_source,
                          test_matrix.rows() > 0 ? &test_matrix : nullptr, rng,
                          report_epoch);
  } catch (const std::exception& e) {
    // A checkpoint that cannot be resumed, or a diverged epoch.
    std::fprintf(stderr, "sqvae_train: %s\n", e.what());
    return 1;
  }

  if (history.empty()) {
    std::printf("nothing to do (checkpoint already at --epochs?)\n");
    return 0;
  }
  std::printf("final: train_loss %.6f  test_mse %.6f\n",
              history.back().train_loss, history.back().test_mse);
  if (trainer.has_best()) {
    std::printf("best:  epoch %zu  metric %.6f%s\n", trainer.best_epoch(),
                trainer.best_metric(),
                trainer.best_restored() ? " (restored)" : "");
  }
  const std::string csv = flags.get_string("history_csv");
  if (!csv.empty() && table.write_csv(csv)) {
    std::printf("(history csv written to %s)\n", csv.c_str());
  }
  return 0;
}
