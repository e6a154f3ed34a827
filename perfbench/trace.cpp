// `trace`: the traced run. It times each layer's public calls from outside,
// keeps the spans in memory and writes them out once as Chrome trace-event
// JSON, with the work counts in "otherData". perfbench/run.py turns the
// spans into the per-layer metrics (self time, medians, coverage).
//
// Sections, in order:
//   data.generate / models.checkpoint_load   set-up calls, three times each
//   untraced Trainer::fit                    the same rows, no spans
//   train.batch > train.sample > models.build_loss, autodiff.backward;
//     models.reduce, nn.adam_step            the sharded engine's calls
//   qsim.run_batch / qsim.adjoint_batch      each patch executor, per sample
//   nn.linear                                nn::Linear at the model's shapes
//   serve.parse / cache_key / execute.<ep> / format
//   serve.submit_to_done, serve.hot_submit_to_done
//                                            in-process InferenceService
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <unordered_map>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/flags.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/molecule_dataset.h"
#include "bench.h"
#include "models/quantum_layer.h"
#include "models/trainer.h"
#include "nn/linear.h"
#include "nn/optim.h"
#include "qsim/embedding.h"
#include "qsim/observable.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/response_cache.h"
#include "serve/service.h"
#include "serve/stats.h"

namespace perfbench {
namespace {

using sqvae::Rng;
using sqvae::models::QuantumLayer;
using sqvae::models::QuantumLayerConfig;
using sqvae::serve::Endpoint;

constexpr std::size_t kBatches = 8;           // traced mini-batches of 32
constexpr std::size_t kProbeSamples = 32;     // through patches and Linear
constexpr std::size_t kProbeRequests = 32;    // per endpoint
constexpr std::size_t kInprocRequests = 2000; // per in-process pass

int thread_slot() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Per-sample gradient buffers keyed by parameter, as the trainer keeps.
class SampleSink final : public sqvae::ad::GradSink {
 public:
  using Index = std::unordered_map<sqvae::ad::Parameter*, std::size_t>;
  SampleSink(const Index& index, std::vector<Matrix>& grads)
      : index_(index), grads_(grads) {}
  void accumulate(sqvae::ad::Parameter* p, const Matrix& grad) override {
    Matrix& slot = grads_[index_.at(p)];
    if (slot.empty()) {
      slot = grad;
    } else {
      slot += grad;
    }
  }

 private:
  const Index& index_;
  std::vector<Matrix>& grads_;
};

struct Patches {
  std::vector<QuantumLayer> encoders;
  std::vector<QuantumLayer> decoders;
  int qubits = 0;
  int chunk = 0;  // features per encoder patch
};

/// The patch circuits of an SQ model with this geometry; weights copied
/// from `model` when it is that SQ model (same circuits either way).
Patches make_patches(const sqvae::serve::ModelSpec& spec,
                     sqvae::models::Autoencoder& model, std::uint64_t seed) {
  Patches p;
  const int patches = spec.patches;
  p.chunk =
      static_cast<int>(spec.input_dim / static_cast<std::size_t>(patches));
  p.qubits = static_cast<int>(std::lround(std::log2(p.chunk)));
  Rng rng(seed ^ 0x7061746368ull);
  for (int i = 0; i < patches; ++i) {
    QuantumLayerConfig enc;
    enc.num_qubits = p.qubits;
    enc.entangling_layers = spec.entangling_layers;
    enc.input = QuantumLayerConfig::InputMode::kAmplitude;
    enc.input_dim = p.chunk;
    QuantumLayerConfig dec = enc;
    dec.input = QuantumLayerConfig::InputMode::kAngle;
    dec.input_dim = p.qubits;
    p.encoders.emplace_back(enc, rng);
    p.decoders.emplace_back(dec, rng);
  }
  const std::vector<sqvae::ad::Parameter*> q = model.quantum_parameters();
  // quantum_parameters() lists every encoder patch, then every decoder.
  if (q.size() == 2 * p.encoders.size()) {
    for (std::size_t i = 0; i < p.encoders.size(); ++i) {
      p.encoders[i].weights().value = q[i]->value;
      p.decoders[i].weights().value = q[p.encoders.size() + i]->value;
    }
  }
  return p;
}

std::vector<double> weight_slots(QuantumLayer& l) {
  const Matrix& w = l.weights().value;
  return std::vector<double>(w.data(), w.data() + w.size());
}

const char* execute_span(Endpoint e) {
  switch (e) {
    case Endpoint::kEncode: return "serve.execute.encode";
    case Endpoint::kDecode: return "serve.execute.decode";
    case Endpoint::kReconstruct: return "serve.execute.reconstruct";
    case Endpoint::kLatentSample: return "serve.execute.latent_sample";
  }
  return "serve.execute";
}

/// Completions of in-process requests, handed from worker threads (or the
/// submitting thread, for cache hits) to the closed-loop submitter.
struct Completions {
  sq::Mutex mu;
  sq::CondVar cv;
  std::vector<std::pair<std::size_t, double>> done GUARDED_BY(mu);
};

}  // namespace

int cmd_trace(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_string("geometry", "sq-vae-ligand", "model family");
  flags.add_int("seed", 1, "workload seed");
  flags.add_string("checkpoint", "", "the workload's model checkpoint");
  flags.add_string("payloads", "", "payload file from gen-serve");
  flags.add_string("mode", "train", "train or serve: which work counts");
  flags.add_string("out", "", "Chrome trace path");
  if (!flags.parse(argc, argv)) return 0;

  const Geometry g = geometry(flags.get_string("geometry"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int threads = max_threads();
  SpanLog spans(threads);

  // ---- set-up calls --------------------------------------------------------
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(seed);
    const double t0 = mono_us();
    const auto mols = sqvae::data::make_pdbbind_like(kCorpus, kMatrixDim, rng);
    spans.add(0, "data.generate", t0, mono_us(),
              static_cast<std::uint64_t>(rep));
  }
  std::shared_ptr<const sqvae::serve::LoadedModel> loaded;
  for (int rep = 0; rep < 3; ++rep) {
    std::string error;
    const double t0 = mono_us();
    loaded = sqvae::serve::LoadedModel::from_checkpoint_file(
        g.spec, flags.get_string("checkpoint"), &error);
    spans.add(0, "models.checkpoint_load", t0, mono_us(),
              static_cast<std::uint64_t>(rep));
    if (loaded == nullptr) {
      std::fprintf(stderr, "trace: %s\n", error.c_str());
      return 1;
    }
  }
  const Corpus corpus = make_corpus(seed, 0);
  std::unique_ptr<sqvae::models::Autoencoder> model = loaded->make_replica();

  // ---- untraced Trainer::fit on the rows the traced batches use ------------
  const std::size_t batch = 32;
  const std::size_t fit_rows = std::min(corpus.train.rows(), batch * kBatches);
  const sqvae::data::MatrixRowSource all(corpus.train);
  const sqvae::data::RowSlice fit_slice(all, 0, fit_rows);
  sqvae::models::TrainConfig config;
  config.epochs = 2;  // the second epoch runs warm
  config.quantum_lr = g.quantum_lr;
  config.classical_lr = g.classical_lr;
  Rng fit_rng(seed ^ 0x666974ull);
  const std::vector<sqvae::models::EpochStats> fit =
      sqvae::models::Trainer(*model, config).fit(fit_slice, nullptr, fit_rng);
  const double untraced_epoch_s = fit.back().seconds;

  // ---- traced mini-batches through the sharded engine's calls --------------
  const std::vector<sqvae::nn::ParamGroup> groups =
      model->param_groups(g.quantum_lr, g.classical_lr);
  sqvae::nn::Adam adam(groups);
  std::vector<sqvae::ad::Parameter*> params;
  std::unordered_map<sqvae::ad::Parameter*, std::size_t> index;
  std::size_t num_params = 0;
  for (const sqvae::nn::ParamGroup& grp : groups) {
    for (sqvae::ad::Parameter* p : grp.params) {
      index.emplace(p, params.size());
      params.push_back(p);
      num_params += p->size();
    }
  }
  model->set_kl_weight(config.kl_weight);
  std::size_t tape_nodes = 0;
  double traced_wall_us = 0.0;
  for (std::size_t b = 0; b * batch < fit_rows; ++b) {
    const std::size_t n = std::min(batch, fit_rows - b * batch);
    const double batch_start = mono_us();
    const int batch_span = spans.open(0, "train.batch", b);
    std::vector<std::vector<Matrix>> grads(
        n, std::vector<Matrix>(params.size()));
    const auto count = static_cast<std::int64_t>(n);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads(threads)
#endif
    for (std::int64_t s = 0; s < count; ++s) {
      const int tid = thread_slot();
      const std::size_t row = b * batch + static_cast<std::size_t>(s);
      const int parent = tid == 0 ? batch_span : -1;
      const int sample_span = spans.open(tid, "train.sample", row, parent);
      Matrix x(1, corpus.train.cols());
      all.copy_row(row, x.data());
      Rng sample_rng = Rng::stream(config.noise_seed, 0, row);
      sqvae::ad::Tape tape;
      SampleSink sink(index, grads[static_cast<std::size_t>(s)]);
      tape.set_grad_sink(&sink);
      const int build = spans.open(tid, "models.build_loss", row, sample_span);
      const sqvae::ad::Var loss = model->build_loss(tape, x, sample_rng);
      spans.close(tid, build);
      if (row == 0) tape_nodes = tape.num_nodes();
      const int back = spans.open(tid, "autodiff.backward", row, sample_span);
      tape.backward(loss);
      spans.close(tid, back);
      spans.close(tid, sample_span);
    }
    const int reduce = spans.open(0, "models.reduce", b, batch_span);
    adam.zero_grad();
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < params.size(); ++k) {
        if (!grads[s][k].empty()) params[k]->grad += grads[s][k];
      }
    }
    for (sqvae::ad::Parameter* p : params) {
      p->grad *= 1.0 / static_cast<double>(n);
    }
    spans.close(0, reduce);
    const int step = spans.open(0, "nn.adam_step", b, batch_span);
    adam.step();
    spans.close(0, step);
    spans.close(0, batch_span);
    traced_wall_us += mono_us() - batch_start;
  }

  // ---- patch executors, per sample -----------------------------------------
  const std::size_t probe_samples = std::min(fit_rows, kProbeSamples);
  const bool quantum_model = !model->quantum_parameters().empty();
  Patches patches = make_patches(g.spec, *model, seed);
  double plan_ops = 0.0;
  double amp_train = 0.0;
  double amp_serve = 0.0;
  for (const std::vector<QuantumLayer>* layers :
       {&patches.encoders, &patches.decoders}) {
    for (const QuantumLayer& l : *layers) {
      const auto& ex = l.executor();
      const double dim = std::ldexp(1.0, ex.num_qubits());
      plan_ops += static_cast<double>(ex.num_plan_ops());
      amp_serve += dim * static_cast<double>(ex.num_plan_ops());
      amp_train += 2.0 * dim *
                   static_cast<double>(ex.num_plan_ops() +
                                       ex.num_circuit_ops());
    }
  }
  const std::vector<double> ones(static_cast<std::size_t>(patches.qubits), 1.0);
  const std::vector<double> diag =
      sqvae::qsim::weighted_z_diagonal(patches.qubits, ones);
  for (std::size_t row = 0; row < probe_samples; ++row) {
    const std::vector<double> x = corpus.train.row(row);
    for (std::size_t i = 0; i < patches.encoders.size(); ++i) {
      QuantumLayer& enc = patches.encoders[i];
      const std::vector<double> sub(
          x.begin() + static_cast<std::ptrdiff_t>(i) * patches.chunk,
          x.begin() + static_cast<std::ptrdiff_t>(i + 1) * patches.chunk);
      const std::vector<std::vector<double>> slots = {weight_slots(enc)};
      std::vector<sqvae::qsim::Statevector> states = {
          sqvae::qsim::amplitude_embedding(sub, patches.qubits)};
      const std::vector<sqvae::qsim::Statevector> initials = states;
      double t0 = mono_us();
      enc.executor().run_batch(slots, states);
      spans.add(0, "qsim.run_batch", t0, mono_us(), row);
      t0 = mono_us();
      (void)enc.executor().adjoint_batch(slots, initials, {diag});
      spans.add(0, "qsim.adjoint_batch", t0, mono_us(), row);

      QuantumLayer& dec = patches.decoders[i];
      std::vector<double> dslots(sub.begin(), sub.begin() + patches.qubits);
      for (double& a : dslots) a *= std::numbers::pi;
      const std::vector<double> w = weight_slots(dec);
      dslots.insert(dslots.end(), w.begin(), w.end());
      const std::vector<std::vector<double>> dbatch = {dslots};
      std::vector<sqvae::qsim::Statevector> zero = {
          sqvae::qsim::Statevector(patches.qubits)};
      const std::vector<sqvae::qsim::Statevector> zero_init = zero;
      t0 = mono_us();
      dec.executor().run_batch(dbatch, zero);
      spans.add(0, "qsim.run_batch", t0, mono_us(), row);
      t0 = mono_us();
      (void)dec.executor().adjoint_batch(dbatch, zero_init, {diag});
      spans.add(0, "qsim.adjoint_batch", t0, mono_us(), row);
    }
  }

  // ---- nn::Linear at the model's shapes ------------------------------------
  std::vector<sqvae::nn::Linear> linears;
  double macs = 0.0;
  {
    Rng rng(seed ^ 0x6c696e656172ull);
    const std::vector<sqvae::ad::Parameter*> cp = model->classical_parameters();
    for (std::size_t i = 0; i + 1 < cp.size(); ++i) {
      const Matrix& w = cp[i]->value;
      const Matrix& bias = cp[i + 1]->value;
      if (bias.rows() == 1 && bias.cols() == w.cols() && w.rows() > 1) {
        linears.emplace_back(w.rows(), w.cols(), rng);
        macs += static_cast<double>(w.rows() * w.cols());
        ++i;
      }
    }
  }
  for (std::size_t row = 0; row < probe_samples; ++row) {
    for (sqvae::nn::Linear& lin : linears) {
      sqvae::ad::Tape tape;
      Matrix in(1, lin.in_features());
      for (std::size_t c = 0; c < in.cols(); ++c) {
        in(0, c) = corpus.train(row, c % corpus.train.cols());
      }
      const sqvae::ad::Var v = tape.constant(std::move(in));
      const double t0 = mono_us();
      (void)lin.forward(tape, v);
      spans.add(0, "nn.linear", t0, mono_us(), row);
    }
  }

  // ---- serving calls on the mixed traffic's request lines ------------------
  // 4 x kProbeRequests lines: the mix sends each endpoint equally often.
  Payloads payloads;
  if (!load_payloads(flags.get_string("payloads"), &payloads)) {
    std::fprintf(stderr, "trace: cannot read payloads\n");
    return 1;
  }
  const std::size_t conns = kConns;
  std::unique_ptr<sqvae::models::Autoencoder> replica = loaded->make_replica();
  const std::size_t per_endpoint = kProbeRequests;
  const std::size_t rows = payloads.features.size();
  for (std::uint64_t n = 0; n < 4 * per_endpoint; ++n) {
    const PlannedRequest r =
        plan_request("mix", n % conns, conns, n / conns, rows, seed);
    const std::string line = request_line(r, n, payloads);
    sqvae::serve::WireRequest wire;
    std::string error;
    double t0 = mono_us();
    const bool parsed = sqvae::serve::parse_request_line(
        line.substr(0, line.size() - 1), &wire, &error);
    spans.add(0, "serve.parse", t0, mono_us(), n);
    if (!parsed) {
      std::fprintf(stderr, "trace: parse failed: %s\n", error.c_str());
      return 1;
    }
    t0 = mono_us();
    (void)sqvae::serve::response_cache_key(1, wire.endpoint, wire.x, wire.seed);
    spans.add(0, "serve.cache_key", t0, mono_us(), n);
    t0 = mono_us();
    const sqvae::serve::InferenceResult result = sqvae::serve::execute_single(
        *loaded, *replica, wire.endpoint, wire.x, wire.seed);
    spans.add(0, execute_span(wire.endpoint), t0, mono_us(), n);
    t0 = mono_us();
    (void)sqvae::serve::format_response(wire, result);
    spans.add(0, "serve.format", t0, mono_us(), n);
  }

  // ---- in-process InferenceService, closed loop, same window ---------------
  // Once as sqvae_serve runs in the serving workload (mixed traffic, cache
  // off: submit-to-done, compared with the TCP round trip, and queue
  // wait), once through a 64 MiB response cache with hot keys (hit share).
  sqvae::serve::ModelRegistry registry;
  registry.publish("default", loaded);
  const std::size_t total = kInprocRequests;
  double batch_size_mean = 0.0;
  double hot_hit_frac = 0.0;
  for (const bool hot : {false, true}) {
    sqvae::serve::ServerStats stats;
    sqvae::serve::ServeConfig serve_config;
    serve_config.shed_on_full = true;
    serve_config.cache_bytes = hot ? std::size_t{64} << 20 : 0;
    const char* traffic = hot ? "hot" : "mix";
    const char* span_name =
        hot ? "serve.hot_submit_to_done" : "serve.submit_to_done";
    // Declared before the service, whose destructor joins the workers
    // that run the callbacks.
    Completions completions;
    sqvae::serve::InferenceService service(registry, serve_config, &stats);
    std::vector<double> sent(total, 0.0);
    std::vector<Endpoint> endpoint(total);
    std::size_t next = 0;
    std::size_t finished = 0;
    auto submit = [&](std::size_t n) {
      const PlannedRequest r =
          plan_request(traffic, n % conns, conns, n / conns, rows, seed);
      std::vector<double> x;
      if (r.endpoint == Endpoint::kDecode) {
        x = payloads.latents[r.payload % payloads.latents.size()];
      } else if (r.endpoint != Endpoint::kLatentSample) {
        x = payloads.features[r.payload];
      }
      endpoint[n] = r.endpoint;
      sent[n] = mono_us();
      service.submit_cb(
          "default", r.endpoint, std::move(x), r.seed,
          [&completions, n](const sqvae::serve::InferenceResult&) {
            const double t = mono_us();
            sq::MutexLock lock(completions.mu);
            completions.done.emplace_back(n, t);
            completions.cv.notify_one();
          });
    };
    while (next < std::min(total, conns * kWindow)) submit(next++);
    std::vector<std::pair<std::size_t, double>> batch_done;
    while (finished < total) {
      {
        sq::MutexLock lock(completions.mu);
        while (completions.done.empty()) completions.cv.wait(completions.mu);
        batch_done.swap(completions.done);
      }
      for (const auto& [n, t] : batch_done) {
        spans.add(0, span_name, sent[n], t,
                  n * 4 + static_cast<std::size_t>(endpoint[n]));
        ++finished;
        if (next < total) submit(next++);
      }
      batch_done.clear();
    }
    if (hot) {
      const double hits = static_cast<double>(stats.cache_hits.load());
      const double misses = static_cast<double>(stats.cache_misses.load());
      hot_hit_frac = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    } else {
      const double batches =
          static_cast<double>(service.queue().total_batches());
      batch_size_mean =
          batches > 0.0
              ? static_cast<double>(service.queue().total_requests()) / batches
              : 0.0;
    }
    service.shutdown();
  }

  const std::string other =
      JsonObject()
          .num("plan_ops", plan_ops)
          .num("amp_updates_per_sample",
               flags.get_string("mode") == "serve" ? amp_serve : amp_train)
          .integer("quantum_model", quantum_model ? 1 : 0)
          .integer("tape_nodes", static_cast<long long>(tape_nodes))
          .num("macs_per_sample", macs)
          .integer("params", static_cast<long long>(num_params))
          .integer("batch", static_cast<long long>(batch))
          .integer("threads", threads)
          .integer("fit_rows", static_cast<long long>(fit_rows))
          .num("untraced_epoch_s", untraced_epoch_s)
          .num("untraced_rows_per_s",
               static_cast<double>(fit_rows) / untraced_epoch_s)
          .num("batch_size_mean", batch_size_mean)
          .num("hot_cache_hit_frac", hot_hit_frac)
          .num("traced_rows_per_s",
               static_cast<double>(fit_rows) / (traced_wall_us / 1e6))
          .done();
  if (!spans.write_chrome(flags.get_string("out"), other)) {
    std::fprintf(stderr, "trace: cannot write %s\n",
                 flags.get_string("out").c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
