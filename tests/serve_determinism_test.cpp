// Concurrent serving determinism: N client threads hammering the
// InferenceService with fixed per-request seeds must produce bit-identical
// results to a serial replay through serve::execute_single (the contract's
// reference implementation) — for all three simulation backends and every
// endpoint. This suite is also the serving data-race hammer the CI
// ThreadSanitizer lane runs: clients, workers, and a concurrent hot-swap
// all stress the queue/registry/replica machinery under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/service.h"
#include "serve_call.h"

namespace {

using namespace sqvae;

struct TestRequest {
  serve::Endpoint endpoint;
  std::vector<double> input;
  std::uint64_t seed;
};

serve::ModelSpec sq_vae_spec(qsim::BackendKind backend) {
  serve::ModelSpec spec;
  spec.kind = "sq-vae";
  spec.input_dim = 16;
  spec.patches = 2;
  spec.entangling_layers = 2;
  spec.sim.backend = backend;
  spec.sim.shots = 16;  // trajectories or measurement shots
  spec.sim.noise.gate_error = backend == qsim::BackendKind::kTrajectory
                                  ? 0.05
                                  : 0.0;
  spec.sim.seed = 0xfeedULL;
  return spec;
}

std::vector<double> wave(std::size_t n, std::uint64_t salt) {
  std::vector<double> v(n);
  Rng rng(salt);
  for (double& x : v) x = rng.uniform();
  return v;
}

/// The request mix every client replays: all endpoints, distinct seeds.
std::vector<TestRequest> request_mix(const serve::LoadedModel& loaded,
                                     std::uint64_t client) {
  std::vector<TestRequest> requests;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = client * 100 + i;
    switch (i % 4) {
      case 0:
        requests.push_back({serve::Endpoint::kEncode,
                            wave(loaded.input_dim(), seed), seed});
        break;
      case 1:
        requests.push_back({serve::Endpoint::kReconstruct,
                            wave(loaded.input_dim(), seed), seed});
        break;
      case 2:
        requests.push_back({serve::Endpoint::kDecode,
                            wave(loaded.latent_dim(), seed), seed});
        break;
      case 3:
        requests.push_back({serve::Endpoint::kLatentSample, {}, seed});
        break;
    }
  }
  return requests;
}

void hammer_and_compare(const serve::ModelSpec& spec) {
  std::string error;
  auto model = serve::build_model(spec, &error);
  ASSERT_NE(model, nullptr) << error;
  auto loaded = serve::LoadedModel::from_model(spec, *model);

  constexpr int kClients = 4;

  // Serial replay: the expected value of every (client, request) pair.
  std::vector<std::vector<std::vector<double>>> expected(kClients);
  {
    auto replica = loaded->make_replica();
    ASSERT_NE(replica, nullptr);
    for (int c = 0; c < kClients; ++c) {
      for (const TestRequest& r :
           request_mix(*loaded, static_cast<std::uint64_t>(c))) {
        const serve::InferenceResult result =
            serve::execute_single(*loaded, *replica, r.endpoint, r.input,
                                  r.seed);
        ASSERT_TRUE(result.ok) << result.error;
        expected[c].push_back(result.values);
      }
    }
  }

  // Concurrent run: multi-worker micro-batched service, client threads.
  serve::ModelRegistry registry;
  registry.publish("default", loaded);
  serve::ServeConfig config;
  config.threads = 4;
  config.max_batch = 8;
  serve::InferenceService service(registry, config);

  std::vector<std::vector<std::vector<double>>> actual(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (const TestRequest& r :
           request_mix(*loaded, static_cast<std::uint64_t>(c))) {
        const serve::InferenceResult result =
            serve_call::call(service, r.endpoint, r.input, r.seed);
        if (!result.ok) {
          ++failures;
          return;
        }
        actual[static_cast<std::size_t>(c)].push_back(result.values);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(actual[c].size(), expected[c].size());
    for (std::size_t i = 0; i < expected[c].size(); ++i) {
      EXPECT_EQ(actual[c][i], expected[c][i])
          << "client " << c << " request " << i << " diverged (backend "
          << static_cast<int>(spec.sim.backend) << ")";
    }
  }
}

TEST(ServeDeterminism, StatevectorBackend) {
  hammer_and_compare(sq_vae_spec(qsim::BackendKind::kStatevector));
}

TEST(ServeDeterminism, TrajectoryBackend) {
  hammer_and_compare(sq_vae_spec(qsim::BackendKind::kTrajectory));
}

TEST(ServeDeterminism, ShotSamplingBackend) {
  hammer_and_compare(sq_vae_spec(qsim::BackendKind::kShotSampling));
}

TEST(ServeDeterminism, ClassicalVaeStatevector) {
  serve::ModelSpec spec;
  spec.kind = "classical-vae";
  spec.input_dim = 16;
  spec.latent = 4;
  hammer_and_compare(spec);
}

TEST(ServeDeterminism, SurvivesConcurrentHotSwap) {
  // Requests racing a generation swap must each resolve consistently
  // against *some* published generation — and after the swap settles,
  // against the new one. Primarily a TSan target.
  const serve::ModelSpec spec = sq_vae_spec(qsim::BackendKind::kStatevector);
  std::string error;
  auto model_a = serve::build_model(spec, &error);
  auto model_b = serve::build_model(spec, &error);
  for (ad::Parameter* p : model_b->classical_parameters()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.125;
  }
  auto loaded_a = serve::LoadedModel::from_model(spec, *model_a);
  auto loaded_b = serve::LoadedModel::from_model(spec, *model_b);

  serve::ModelRegistry registry;
  registry.publish("default", loaded_a);
  serve::ServeConfig config;
  config.threads = 2;
  serve::InferenceService service(registry, config);

  const std::vector<double> x = wave(spec.input_dim, 1);
  std::vector<double> expect_a, expect_b;
  {
    auto ra = loaded_a->make_replica();
    auto rb = loaded_b->make_replica();
    expect_a = serve::execute_single(*loaded_a, *ra,
                                     serve::Endpoint::kEncode, x, 5)
                   .values;
    expect_b = serve::execute_single(*loaded_b, *rb,
                                     serve::Endpoint::kEncode, x, 5)
                   .values;
  }

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int i = 0; i < 50 && !stop.load(); ++i) {
      registry.publish("default", i % 2 == 0 ? loaded_b : loaded_a);
    }
  });
  for (int i = 0; i < 100; ++i) {
    const serve::InferenceResult r =
        serve_call::call(service, serve::Endpoint::kEncode, x, 5);
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(r.values == expect_a || r.values == expect_b) << i;
  }
  stop.store(true);
  swapper.join();

  registry.publish("default", loaded_b);
  EXPECT_EQ(serve_call::call(service, serve::Endpoint::kEncode, x, 5).values,
            expect_b);
}

}  // namespace
