// Serving subsystem: LoadedModel snapshots, the registry's generation
// hot-swap, BatchQueue coalescing, InferenceService endpoint semantics,
// the line protocol, and the inference-only checkpoint load path
// (models::load_params_only).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_budget.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "models/scalable_quantum.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve_call.h"

namespace {

using namespace sqvae;

serve::ModelSpec small_sq_ae_spec() {
  serve::ModelSpec spec;
  spec.kind = "sq-ae";
  spec.input_dim = 16;
  spec.patches = 2;
  spec.entangling_layers = 2;
  return spec;
}

serve::ModelSpec small_sq_vae_spec() {
  serve::ModelSpec spec = small_sq_ae_spec();
  spec.kind = "sq-vae";
  return spec;
}

serve::ModelSpec small_vae_spec() {
  serve::ModelSpec spec;
  spec.kind = "classical-vae";
  spec.input_dim = 16;
  spec.latent = 4;
  return spec;
}

std::vector<double> ramp(std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * (0.1 + 0.05 * static_cast<double>(i));
  }
  return v;
}

Matrix row_matrix(const std::vector<double>& v) {
  Matrix m(1, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) m(0, i) = v[i];
  return m;
}

// ---- load_params_only -----------------------------------------------------

TEST(LoadParamsOnly, AcceptsV1AndV2WithoutAttachments) {
  Rng rng(3);
  models::ClassicalAe source(models::classical_config_64(4), rng);
  models::ClassicalAe target(models::classical_config_64(4), rng);

  // v1 round trip.
  ASSERT_TRUE(
      models::load_params_only(models::checkpoint_to_text(source), target));
  EXPECT_EQ(models::checkpoint_to_text(source),
            models::checkpoint_to_text(target));

  // v2 with full Adam state: checkpoint_from_text_v2 *requires* an
  // attached optimizer for such a file, load_params_only must not.
  auto groups = source.param_groups(1e-3, 1e-3);
  nn::Adam adam(groups);
  models::TrainState state;
  state.optimizer = &adam;
  const std::string v2 = models::checkpoint_to_text_v2(source, state);

  models::ClassicalAe target2(models::classical_config_64(4), rng);
  models::TrainState no_attachments;
  EXPECT_FALSE(models::checkpoint_from_text_v2(v2, target2, no_attachments));
  EXPECT_TRUE(models::load_params_only(v2, target2));
  EXPECT_EQ(models::checkpoint_to_text(source),
            models::checkpoint_to_text(target2));
}

TEST(LoadParamsOnly, AcceptsV2WithMomentsStripped) {
  Rng rng(5);
  models::ClassicalAe source(models::classical_config_64(4), rng);
  // A v2 file saved without optimizer/rng attachments — the "moments
  // stripped" shape a checkpoint-size-conscious exporter would write.
  models::TrainState bare;
  bare.next_epoch = 7;
  const std::string v2 = models::checkpoint_to_text_v2(source, bare);

  models::ClassicalAe target(models::classical_config_64(4), rng);
  ASSERT_TRUE(models::load_params_only(v2, target));
  EXPECT_EQ(models::checkpoint_to_text(source),
            models::checkpoint_to_text(target));
}

TEST(LoadParamsOnly, RejectsCorruptInput) {
  Rng rng(7);
  models::ClassicalAe model(models::classical_config_64(4), rng);
  const std::string before = models::checkpoint_to_text(model);

  EXPECT_FALSE(models::load_params_only("sqvae-checkpoint 3\n0\n", model));
  EXPECT_FALSE(models::load_params_only("not a checkpoint", model));
  // Truncated parameter block.
  const std::string v1 = models::checkpoint_to_text(model);
  EXPECT_FALSE(
      models::load_params_only(v1.substr(0, v1.size() / 2), model));
  // Shape mismatch: a checkpoint of a different architecture.
  models::ClassicalAe other(models::classical_config_64(6), rng);
  EXPECT_FALSE(
      models::load_params_only(models::checkpoint_to_text(other), model));
  // v1 trailing garbage is still rejected.
  EXPECT_FALSE(models::load_params_only(v1 + " 1.5", model));

  EXPECT_EQ(before, models::checkpoint_to_text(model));  // untouched
}

// ---- LoadedModel / registry ----------------------------------------------

TEST(LoadedModel, ReplicaReproducesSnapshotParameters) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto source = serve::build_model(spec, &error);
  ASSERT_NE(source, nullptr) << error;

  auto loaded = serve::LoadedModel::from_checkpoint_text(
      spec, models::checkpoint_to_text(*source), &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->input_dim(), spec.input_dim);
  EXPECT_FALSE(loaded->is_generative());

  auto replica = loaded->make_replica();
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(models::checkpoint_to_text(*source),
            models::checkpoint_to_text(*replica));
}

TEST(LoadedModel, RejectsMismatchedCheckpoint) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto other = serve::build_model(small_vae_spec(), &error);
  ASSERT_NE(other, nullptr);
  auto loaded = serve::LoadedModel::from_checkpoint_text(
      spec, models::checkpoint_to_text(*other), &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_FALSE(error.empty());
}

/// Loading a checkpoint whose first parameter value is `bad` fails, and
/// the error says why.
void expect_rejects_non_finite(double bad) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto diverged = serve::build_model(spec, &error);
  ASSERT_NE(diverged, nullptr) << error;
  models::checkpoint_parameters(*diverged).front()->value[0] = bad;
  auto loaded = serve::LoadedModel::from_checkpoint_text(
      spec, models::checkpoint_to_text(*diverged), &error);
  EXPECT_EQ(loaded, nullptr);
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
}

TEST(LoadedModel, RejectsNanCheckpoint) {
  expect_rejects_non_finite(std::numeric_limits<double>::quiet_NaN());
}

TEST(LoadedModel, RejectsInfCheckpoint) {
  expect_rejects_non_finite(-std::numeric_limits<double>::infinity());
}

TEST(ModelRegistry, PublishBumpsGenerationAndSwaps) {
  serve::ModelRegistry registry;
  EXPECT_EQ(registry.generation("default"), 0u);
  EXPECT_EQ(registry.get("default").model, nullptr);

  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto model = serve::build_model(spec, &error);
  const std::uint64_t g1 =
      registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  const std::uint64_t g2 =
      registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  EXPECT_LT(g1, g2);
  EXPECT_EQ(registry.generation("default"), g2);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"default"});
}

// ---- BatchQueue -----------------------------------------------------------

/// Pushes a request whose result nobody reads.
void push(serve::BatchQueue& queue, const std::string& model,
          serve::Endpoint endpoint, double x) {
  queue.push(model, endpoint, {x}, 0, [](const serve::InferenceResult&) {});
}

TEST(BatchQueue, CoalescesSameKeyUpToMaxBatch) {
  serve::BatchQueue queue(/*max_batch=*/3, /*max_wait_us=*/0);
  for (int i = 0; i < 5; ++i) push(queue, "m", serve::Endpoint::kEncode, 1.0);
  std::vector<serve::Request> batch = queue.pop_batch();
  EXPECT_EQ(batch.size(), 3u);
  batch = queue.pop_batch();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(BatchQueue, KeepsForeignKeysQueued) {
  serve::BatchQueue queue(/*max_batch=*/8, /*max_wait_us=*/0);
  push(queue, "a", serve::Endpoint::kEncode, 1.0);
  push(queue, "b", serve::Endpoint::kEncode, 1.0);
  push(queue, "a", serve::Endpoint::kDecode, 1.0);
  push(queue, "a", serve::Endpoint::kEncode, 2.0);

  std::vector<serve::Request> batch = queue.pop_batch();
  ASSERT_EQ(batch.size(), 2u);  // both ("a", encode) requests
  EXPECT_EQ(batch[0].model, "a");
  EXPECT_EQ(batch[1].input[0], 2.0);
  EXPECT_EQ(queue.depth(), 2u);  // ("b", encode) and ("a", decode) remain
}

TEST(BatchQueue, CloseDrainsAndRejects) {
  serve::BatchQueue queue(4, 0);
  push(queue, "m", serve::Endpoint::kEncode, 1.0);
  queue.close();
  // Already-queued work still pops; new pushes fail immediately, their
  // callback running inline.
  EXPECT_EQ(queue.pop_batch().size(), 1u);
  int answered = 0;
  serve::InferenceResult result;
  queue.push("m", serve::Endpoint::kEncode, {1.0}, 0,
             [&](const serve::InferenceResult& r) {
               result = r;
               ++answered;
             });
  EXPECT_EQ(answered, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(queue.pop_batch().size(), 0u);  // closed-and-drained sentinel
}

// ---- InferenceService -----------------------------------------------------

TEST(InferenceService, MatchesInProcessModel) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto model = serve::build_model(spec, &error);
  ASSERT_NE(model, nullptr);

  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  serve::ServeConfig config;
  config.threads = 2;
  serve::InferenceService service(registry, config);

  const std::vector<double> x = ramp(spec.input_dim);
  const serve::InferenceResult recon =
      serve_call::call(service, serve::Endpoint::kReconstruct, x, 1);
  ASSERT_TRUE(recon.ok) << recon.error;
  Rng unused(0);
  const Matrix expected = model->reconstruct(row_matrix(x), unused);
  ASSERT_EQ(recon.values.size(), expected.cols());
  for (std::size_t i = 0; i < recon.values.size(); ++i) {
    EXPECT_EQ(recon.values[i], expected(0, i)) << i;  // bitwise
  }

  const serve::InferenceResult enc =
      serve_call::call(service, serve::Endpoint::kEncode, x, 2);
  ASSERT_TRUE(enc.ok);
  const Matrix latent = model->encode_values(row_matrix(x));
  ASSERT_EQ(enc.values.size(), latent.cols());
  for (std::size_t i = 0; i < enc.values.size(); ++i) {
    EXPECT_EQ(enc.values[i], latent(0, i)) << i;
  }

  const serve::InferenceResult dec =
      serve_call::call(service, serve::Endpoint::kDecode, enc.values, 3);
  ASSERT_TRUE(dec.ok);
  EXPECT_EQ(dec.values.size(), spec.input_dim);
}

TEST(InferenceService, ErrorPaths) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto model = serve::build_model(spec, &error);
  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  serve::ServeConfig config;
  config.threads = 1;
  serve::InferenceService service(registry, config);

  using serve::Endpoint;
  EXPECT_FALSE(  // wrong dim
      serve_call::call(service, Endpoint::kReconstruct, ramp(3), 0).ok);
  EXPECT_FALSE(  // not a VAE
      serve_call::call(service, Endpoint::kLatentSample, {}, 0).ok);
  EXPECT_FALSE(serve_call::call(service, Endpoint::kEncode,
                                ramp(spec.input_dim), 0, "nope")
                   .ok);
  const serve::InferenceResult bad =
      serve_call::call(service, Endpoint::kEncode, ramp(3), 0);
  EXPECT_NE(bad.error.find("encode"), std::string::npos);
}

TEST(InferenceService, LatentSampleIsSeedDeterministic) {
  const serve::ModelSpec spec = small_vae_spec();
  std::string error;
  auto model = serve::build_model(spec, &error);
  ASSERT_NE(model, nullptr);
  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  serve::ServeConfig config;
  config.threads = 2;
  serve::InferenceService service(registry, config);

  using serve::Endpoint;
  const serve::InferenceResult a =
      serve_call::call(service, Endpoint::kLatentSample, {}, 11);
  const serve::InferenceResult b =
      serve_call::call(service, Endpoint::kLatentSample, {}, 11);
  const serve::InferenceResult c =
      serve_call::call(service, Endpoint::kLatentSample, {}, 12);
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  EXPECT_EQ(a.values, b.values);
  EXPECT_NE(a.values, c.values);
  EXPECT_EQ(a.values.size(), spec.input_dim);
}

TEST(InferenceService, BatchedEqualsSingleBitwise) {
  // The coalescing soundness claim: rows of one batched pass are bitwise
  // equal to per-request passes. Submit a wave of concurrent requests
  // through a 1-worker service (so they coalesce into one batch), then
  // compare against synchronous one-at-a-time answers. The VAEs' rows each
  // carry their own seed's reparameterisation noise.
  for (const serve::ModelSpec& spec :
       {small_sq_ae_spec(), small_sq_vae_spec(), small_vae_spec()}) {
    SCOPED_TRACE(spec.kind);
    std::string error;
    auto model = serve::build_model(spec, &error);
    ASSERT_NE(model, nullptr) << error;
    serve::ModelRegistry registry;
    registry.publish("default", serve::LoadedModel::from_model(spec, *model));

    constexpr int kWave = 12;
    std::vector<std::vector<double>> inputs;
    for (int i = 0; i < kWave; ++i) {
      inputs.push_back(ramp(spec.input_dim, 0.3 + 0.1 * i));
    }

    std::vector<std::vector<double>> batched(kWave);
    {
      serve::ServeConfig config;
      config.threads = 1;
      config.max_batch = kWave;
      // The straggler wait holds the first batch open until the whole wave
      // has queued, so the wave coalesces however fast the worker runs (an
      // idle worker coalescing opportunistically may take each request
      // alone as it arrives).
      config.max_batch_wait_us = 100000;
      serve::InferenceService service(registry, config);
      std::vector<serve_call::Pending> wave;
      for (int i = 0; i < kWave; ++i) {
        wave.emplace_back(service, "default", serve::Endpoint::kReconstruct,
                          inputs[i], static_cast<std::uint64_t>(i));
      }
      for (int i = 0; i < kWave; ++i) {
        const serve::InferenceResult r = wave[i].wait();
        ASSERT_TRUE(r.ok) << r.error;
        batched[i] = r.values;
      }
      EXPECT_GT(service.queue().total_requests(),
                service.queue().total_batches());
    }

    serve::ServeConfig serial;
    serial.threads = 1;
    serial.max_batch = 1;
    serve::InferenceService service(registry, serial);
    for (int i = 0; i < kWave; ++i) {
      const serve::InferenceResult r =
          serve_call::call(service, serve::Endpoint::kReconstruct, inputs[i],
                           static_cast<std::uint64_t>(i));
      ASSERT_TRUE(r.ok);
      EXPECT_EQ(batched[i], r.values) << "row " << i;  // bitwise
    }
  }
}

TEST(InferenceService, VaeReconstructNoiseComesFromTheRequestSeed) {
  // Pins the per-request noise derivation: the request-noise stream of
  // seed s is Rng(derive_seed(0x5e7e0001, s, 0, 0)). A served VAE
  // reconstruct with seed s equals reconstruct(x, that stream) through the
  // Rng entry point, which draws its one noise row as the stream's first
  // latent_dim normals; latent_sample with seed s decodes exactly that row.
  for (const serve::ModelSpec& spec : {small_vae_spec(), small_sq_vae_spec()}) {
    SCOPED_TRACE(spec.kind);
    std::string error;
    auto model = serve::build_model(spec, &error);
    ASSERT_NE(model, nullptr) << error;
    serve::ModelRegistry registry;
    registry.publish("default", serve::LoadedModel::from_model(spec, *model));
    serve::ServeConfig config;
    config.threads = 2;
    serve::InferenceService service(registry, config);

    const std::vector<double> x = ramp(spec.input_dim);
    for (const std::uint64_t seed : {0ull, 7ull, 0xdeadbeefcafeull}) {
      auto stream = [seed] {
        return Rng(qsim::backend_detail::derive_seed(0x5e7e0001ull, seed, 0,
                                                     0));
      };
      Rng noise = stream();
      const Matrix expected = model->reconstruct(row_matrix(x), noise);
      const serve::InferenceResult served =
          serve_call::call(service, serve::Endpoint::kReconstruct, x, seed);
      ASSERT_TRUE(served.ok) << served.error;
      EXPECT_EQ(served.values, std::vector<double>(expected.data(),
                                                   expected.data() +
                                                       expected.size()))
          << "seed " << seed;

      Rng z_stream = stream();
      Matrix z(1, model->latent_dim());
      for (std::size_t c = 0; c < z.cols(); ++c) z(0, c) = z_stream.normal();
      const Matrix sample = model->decode_values(z);
      const serve::InferenceResult sampled =
          serve_call::call(service, serve::Endpoint::kLatentSample, {}, seed);
      ASSERT_TRUE(sampled.ok) << sampled.error;
      EXPECT_EQ(sampled.values,
                std::vector<double>(sample.data(),
                                    sample.data() + sample.size()))
          << "seed " << seed;
    }
  }
}

TEST(InferenceService, HotSwapTakesEffect) {
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto model_a = serve::build_model(spec, &error);
  auto model_b = serve::build_model(spec, &error);
  // Perturb B so the two generations are distinguishable.
  for (ad::Parameter* p : model_b->classical_parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.25;
  }

  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model_a));
  serve::ServeConfig config;
  config.threads = 1;
  serve::InferenceService service(registry, config);

  const std::vector<double> x = ramp(spec.input_dim);
  const serve::InferenceResult before =
      serve_call::call(service, serve::Endpoint::kReconstruct, x, 0);
  ASSERT_TRUE(before.ok);

  registry.publish("default", serve::LoadedModel::from_model(spec, *model_b));
  const serve::InferenceResult after =
      serve_call::call(service, serve::Endpoint::kReconstruct, x, 0);
  ASSERT_TRUE(after.ok);
  EXPECT_NE(before.values, after.values);

  Rng unused(0);
  const Matrix expected = model_b->reconstruct(row_matrix(x), unused);
  for (std::size_t i = 0; i < after.values.size(); ++i) {
    EXPECT_EQ(after.values[i], expected(0, i));
  }
}

#ifdef __linux__
/// Threads alive in this process right now.
int live_threads() {
  int n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// live_threads() once it holds still over three reads: a thread joined
/// by an earlier test can linger in /proc/self/task for a moment after
/// pthread_join returns.
int settled_threads() {
  int last = live_threads();
  for (int same = 0, tries = 0; same < 3 && tries < 200; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int n = live_threads();
    same = n == last ? same + 1 : 0;
    last = n;
  }
  return last;
}

TEST(InferenceService, DefaultPoolAddsOnlyItsWorkers) {
  // The default pool splits the process budget into one worker per thread,
  // each running its batches at a budget of 1: a burst of patched-circuit
  // requests opens no OpenMP team, so the service's workers are the only
  // threads it adds.
  const serve::ModelSpec spec = small_sq_ae_spec();
  std::string error;
  auto model = serve::build_model(spec, &error);
  ASSERT_NE(model, nullptr) << error;
  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));

  const int before = settled_threads();
  serve::InferenceService service(registry, serve::ServeConfig{});
  EXPECT_EQ(service.num_workers(), thread_budget::process_threads());
  EXPECT_EQ(service.worker_team(), 1);
  std::vector<serve_call::Pending> burst;
  for (int i = 0; i < 256; ++i) {
    burst.emplace_back(
        service, "default",
        i % 2 == 0 ? serve::Endpoint::kReconstruct : serve::Endpoint::kEncode,
        ramp(spec.input_dim, 0.5 + 0.01 * i), static_cast<std::uint64_t>(i));
  }
  for (auto& pending : burst) ASSERT_TRUE(pending.wait().ok);
  EXPECT_EQ(settled_threads(), before + service.num_workers());
}
#endif  // __linux__

// ---- protocol -------------------------------------------------------------

TEST(Protocol, ParsesAndFormats) {
  serve::WireRequest request;
  std::string error;
  ASSERT_TRUE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": 9, \"id\": 4, \"x\": [1, -2.5e-1], "
      "\"model\": \"m\", \"note\": \"ignored\"}",
      &request, &error))
      << error;
  EXPECT_EQ(request.endpoint, serve::Endpoint::kEncode);
  EXPECT_EQ(request.seed, 9u);
  EXPECT_TRUE(request.has_id);
  EXPECT_EQ(request.id, 4u);
  EXPECT_EQ(request.model, "m");
  ASSERT_EQ(request.x.size(), 2u);
  EXPECT_EQ(request.x[1], -0.25);

  serve::InferenceResult result;
  result.ok = true;
  result.values = {0.5, -1.0};
  EXPECT_EQ(serve::format_response(request, result),
            "{\"ok\": true, \"id\": 4, \"op\": \"encode\", \"y\": [0.5, -1]}");
  result.ok = false;
  result.error = "boom";
  EXPECT_EQ(serve::format_response(request, result),
            "{\"ok\": false, \"id\": 4, \"error\": \"boom\"}");
}

TEST(Protocol, SeedKeepsFullUint64Range) {
  // Seeds must survive the wire exactly: a double round trip would
  // corrupt values above 2^53 and overflow at 2^64.
  serve::WireRequest request;
  std::string error;
  ASSERT_TRUE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": 18446744073709551615, \"x\": [1]}",
      &request, &error))
      << error;
  EXPECT_EQ(request.seed, 18446744073709551615ull);
  ASSERT_TRUE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": 9007199254740993, \"x\": [1]}",
      &request, &error));
  EXPECT_EQ(request.seed, 9007199254740993ull);  // 2^53 + 1, not a double
  // Negative and overflowing seeds are malformed, not wrapped.
  EXPECT_FALSE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": -1, \"x\": [1]}", &request, &error));
  EXPECT_FALSE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": 18446744073709551616, \"x\": [1]}",
      &request, &error));
}

TEST(Protocol, ErrorResponsesEscapeQuotes) {
  // Parser errors quote the offending key; the error response must still
  // be valid JSON.
  serve::WireRequest request;
  std::string error;
  ASSERT_FALSE(serve::parse_request_line("{\"op\" 1}", &request, &error));
  const std::string line = serve::format_parse_error(error);
  EXPECT_EQ(line,
            "{\"ok\": false, \"error\": \"expected ':' after \\\"op\\\"\"}");

  serve::InferenceResult result;
  result.error = "bad \"x\"\n";
  EXPECT_EQ(serve::format_response(request, result),
            "{\"ok\": false, \"error\": \"bad \\\"x\\\"\\n\"}");
}

TEST(Protocol, RejectsMalformedLines) {
  serve::WireRequest request;
  std::string error;
  EXPECT_FALSE(serve::parse_request_line("", &request, &error));
  EXPECT_TRUE(error.empty());  // blank = skip, not an error
  EXPECT_FALSE(serve::parse_request_line("encode 1 2 3", &request, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      serve::parse_request_line("{\"op\": \"nope\"}", &request, &error));
  EXPECT_NE(error.find("unknown op"), std::string::npos);
  EXPECT_FALSE(serve::parse_request_line("{\"x\": [1]}", &request, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);
  EXPECT_FALSE(serve::parse_request_line(
      "{\"op\": \"encode\"} trailing", &request, &error));
}

TEST(Protocol, NumbersFollowJson) {
  // One row per literal: whether the wire accepts it as a payload value.
  // Non-finite and overflowing values are not JSON, and echoing the NaN
  // outputs they produce would make the response invalid JSON too. The
  // last three rows were accepted before the number codec (strtod read
  // "+1.5" as 1.5, "0x1p3" as 8 and "1e-400" as 0).
  struct Row {
    const char* literal;
    bool accepted;
  };
  const Row rows[] = {
      {"0", true},       {"-0", true},     {"1.5", true},
      {"-2.5e-1", true}, {"1E+3", true},   {"5e-324", true},
      {"nan", false},    {"inf", false},   {"-inf", false},
      {"1e999", false},  {"+1.5", false},  {"0x1p3", false},
      {"1e-400", false},
  };
  for (const Row& row : rows) {
    serve::WireRequest request;
    std::string error;
    const std::string line =
        std::string("{\"op\": \"encode\", \"x\": [") + row.literal + "]}";
    EXPECT_EQ(serve::parse_request_line(line, &request, &error), row.accepted)
        << row.literal;
  }
  // Unknown keys are skipped, but their numbers still have to be JSON.
  serve::WireRequest request;
  std::string error;
  EXPECT_TRUE(serve::parse_request_line(
      "{\"op\": \"encode\", \"note\": 1e5, \"x\": [1]}", &request, &error));
  EXPECT_FALSE(serve::parse_request_line(
      "{\"op\": \"encode\", \"note\": inf, \"x\": [1]}", &request, &error));
  EXPECT_FALSE(serve::parse_request_line(
      "{\"op\": \"encode\", \"seed\": +5, \"x\": [1]}", &request, &error));
}

}  // namespace
