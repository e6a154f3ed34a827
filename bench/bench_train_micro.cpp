// Training-engine micro-benchmark: serial per-batch loop vs the
// data-parallel sharded engine on the digits scenario, written as JSON
// (default BENCH_train_micro.json, --json=PATH) for the CI bench-
// regression gate.
//
// Three measurements per model (identical seeds, fresh model each time):
//   serial_ms      — legacy engine (one tape per mini-batch)
//   sharded_1t_ms  — data-parallel engine pinned to 1 thread
//   sharded_ms     — data-parallel engine at --threads (default 8)
// plus a bitwise comparison of the 1-thread and N-thread sharded results,
// which must be identical (the engine's determinism contract).
//
// The recorded speedup is hardware-bound: on a single-core container the
// 8-thread row cannot beat serial, so the JSON carries hardware_threads
// and the CI gate only enforces the >= 2x threshold on runners with
// enough cores.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "common/thread_budget.h"
#include "data/digits.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"

namespace {

using namespace sqvae;

struct AbRow {
  std::string model;
  std::size_t samples = 0;
  std::size_t epochs = 0;
  std::size_t batch = 0;
  double serial_ms = 0.0;
  double sharded_1t_ms = 0.0;
  double sharded_ms = 0.0;
  int threads = 1;
  bool bit_identical = false;

  double speedup() const {
    return sharded_ms > 0.0 ? serial_ms / sharded_ms : 0.0;
  }
};

std::unique_ptr<models::Autoencoder> make_model(const std::string& name,
                                                std::uint64_t seed) {
  Rng rng(seed);
  if (name == "classical-ae") {
    return std::make_unique<models::ClassicalAe>(
        models::classical_config_64(6), rng);
  }
  models::ScalableQuantumConfig c;
  c.input_dim = 64;
  c.patches = 2;
  c.entangling_layers = 2;
  return models::make_sq_ae(c, rng);
}

/// One full fit() under `config`; returns wall ms and the final parameters.
double run_fit(const std::string& model_name, const Matrix& data,
               const models::TrainConfig& config, std::string* params_text) {
  auto model = make_model(model_name, 42);
  models::Trainer trainer(*model, config);
  Rng fit_rng(43);
  Stopwatch watch;
  trainer.fit(data, nullptr, fit_rng);
  const double ms = watch.seconds() * 1e3;
  if (params_text != nullptr) *params_text = models::checkpoint_to_text(*model);
  return ms;
}

AbRow measure(const std::string& model_name, const Matrix& data,
              std::size_t epochs, std::size_t batch, int threads) {
  AbRow row;
  row.model = model_name;
  row.samples = data.rows();
  row.epochs = epochs;
  row.batch = batch;
  row.threads = threads;

  models::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = batch;
  config.quantum_lr = 0.03;
  config.classical_lr = 0.01;

  std::string params_1t;
  {
    // Serial baseline: the legacy engine on one thread end to end (its
    // executor batch loops would otherwise parallelise internally).
    const thread_budget::Scope serial(1);
    config.data_parallel = false;
    row.serial_ms = run_fit(model_name, data, config, nullptr);

    config.data_parallel = true;
    config.num_threads = 1;
    row.sharded_1t_ms = run_fit(model_name, data, config, &params_1t);
  }

  const thread_budget::Scope sharded(threads);
  config.num_threads = threads;
  std::string params_nt;
  row.sharded_ms = run_fit(model_name, data, config, &params_nt);

  row.bit_identical = params_1t == params_nt;
  return row;
}

void write_json(const std::string& path, const std::vector<AbRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"train_micro/epoch_ab\",\n"
      "  \"unit\": \"ms\",\n"
      "  \"description\": \"Trainer epoch throughput: legacy serial "
      "per-batch loop vs data-parallel sharded engine (digits scenario)\",\n"
      "  \"hardware_threads\": %d,\n"
      "  \"rows\": [\n",
      thread_budget::process_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AbRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"model\": \"%s\", \"samples\": %zu, \"epochs\": %zu, "
        "\"batch\": %zu, \"serial_ms\": %.4f, \"sharded_1t_ms\": %.4f, "
        "\"sharded_ms\": %.4f, \"threads\": %d, \"speedup\": %.3f, "
        "\"bit_identical_1t_vs_nt\": %s}%s\n",
        r.model.c_str(), r.samples, r.epochs, r.batch, r.serial_ms,
        r.sharded_1t_ms, r.sharded_ms, r.threads, r.speedup(),
        r.bit_identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::add_common_flags(flags);
  flags.add_string("json", "BENCH_train_micro.json", "JSON report path");
  flags.add_int("threads", 8, "sharded-engine thread count for the A/B");
  if (!bench::parse_or_die(flags, argc, argv)) return 0;
  const bench::BenchScale scale = bench::scale_from_flags(flags);

  const std::size_t samples = scale.paper ? 300 : 128;
  const std::size_t epochs = scale.paper ? 5 : 3;
  const int threads = static_cast<int>(flags.get_int("threads"));

  Rng data_rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto digits = data::make_digits(samples, data_rng);
  const Matrix data = data::scale(digits.features, 1.0 / 16.0).samples;

  std::vector<AbRow> rows;
  rows.push_back(measure("sq-ae", data, epochs, scale.batch_size, threads));
  rows.push_back(
      measure("classical-ae", data, epochs, scale.batch_size, threads));

  Table table({"model", "samples", "epochs", "serial_ms", "sharded_1t_ms",
               "sharded_ms", "threads", "speedup", "bit_identical"});
  for (const AbRow& r : rows) {
    table.add_row({r.model, std::to_string(r.samples), std::to_string(r.epochs),
                   Table::fmt(r.serial_ms, 2), Table::fmt(r.sharded_1t_ms, 2),
                   Table::fmt(r.sharded_ms, 2), std::to_string(r.threads),
                   Table::fmt(r.speedup(), 3), r.bit_identical ? "yes" : "NO"});
  }
  bench::emit("Training-engine epoch A/B (digits)", table, flags);

  write_json(flags.get_string("json"), rows);

  for (const AbRow& r : rows) {
    if (!r.bit_identical) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: %s 1-thread vs %d-thread "
                   "sharded results differ\n", r.model.c_str(), r.threads);
      return 1;
    }
  }
  return 0;
}
