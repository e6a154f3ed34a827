// ResponseCache: content-addressed keying (generation / endpoint /
// payload / seed all participate), LRU eviction under the byte budget,
// in-flight deduplication (one owner, N bit-identical waiters), and the
// InferenceService integration — cached, deduped, and freshly computed
// responses are all bit-identical by the determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/loaded_model.h"
#include "serve/registry.h"
#include "serve/response_cache.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "serve_call.h"

namespace {

using namespace sqvae;

serve::InferenceResult ok_result(std::vector<double> values) {
  serve::InferenceResult result;
  result.ok = true;
  result.values = std::move(values);
  return result;
}

// ---- keying ---------------------------------------------------------------

TEST(ResponseCacheKey, EveryComponentParticipates) {
  const std::vector<double> x = {0.25, -1.5, 3.0};
  const serve::CacheKey base =
      serve::response_cache_key(7, serve::Endpoint::kEncode, x, 11);

  // Same inputs -> same key (content addressing).
  EXPECT_EQ(base,
            serve::response_cache_key(7, serve::Endpoint::kEncode, x, 11));

  // Registry generation is the model-identity component: a hot swap moves
  // requests onto fresh keys, which is the cache's only invalidation.
  EXPECT_NE(base,
            serve::response_cache_key(8, serve::Endpoint::kEncode, x, 11));
  // Seed participates: stochastic endpoints keyed per seed.
  EXPECT_NE(base,
            serve::response_cache_key(7, serve::Endpoint::kEncode, x, 12));
  // Endpoint participates.
  EXPECT_NE(base,
            serve::response_cache_key(7, serve::Endpoint::kDecode, x, 11));

  // Payload is hashed by bit pattern: any element change moves the key.
  std::vector<double> y = x;
  y[1] = -1.5000000001;
  EXPECT_NE(base,
            serve::response_cache_key(7, serve::Endpoint::kEncode, y, 11));
}

// ---- lookup / publish protocol --------------------------------------------

TEST(ResponseCache, OwnerPublishesThenHits) {
  serve::ServerStats stats;
  serve::ResponseCache cache(1 << 20, &stats);
  const serve::CacheKey key =
      serve::response_cache_key(1, serve::Endpoint::kEncode, {1.0}, 0);

  serve::InferenceResult out;
  EXPECT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kOwner);
  cache.publish(key, ok_result({4.0, 5.0}));

  EXPECT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kHit);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.values, (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(stats.cache_hits.load(), 1u);
  EXPECT_EQ(stats.cache_misses.load(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ResponseCache, ErrorResultsResolveWaitersButAreNotStored) {
  serve::ResponseCache cache(1 << 20);
  const serve::CacheKey key =
      serve::response_cache_key(1, serve::Endpoint::kEncode, {2.0}, 0);

  serve::InferenceResult out;
  ASSERT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kOwner);
  std::string waiter_error;
  ASSERT_EQ(cache.lookup_or_join(
                key, &out,
                [&](const serve::InferenceResult& r) {
                  waiter_error = r.error;
                }),
            serve::ResponseCache::Lookup::kJoined);

  serve::InferenceResult failed;
  failed.ok = false;
  failed.error = "backend exploded";
  cache.publish(key, failed);
  EXPECT_EQ(waiter_error, "backend exploded");
  EXPECT_EQ(cache.entries(), 0u);  // errors are never cached...
  EXPECT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kOwner);  // ...so retries recompute
}

// ---- LRU eviction ---------------------------------------------------------

TEST(ResponseCache, EvictsLeastRecentlyUsedWithinByteBudget) {
  serve::ServerStats stats;
  // Budget sized so each of the 16 shards holds roughly one entry
  // (an 8-value entry costs 8*8 + overhead bytes): inserting many distinct
  // keys must evict, and the total byte gauge must respect the budget.
  const std::size_t budget = serve::ResponseCache::kShards * 320;
  serve::ResponseCache cache(budget, &stats);

  const int kInserts = 200;
  serve::CacheKey last{};
  for (int i = 0; i < kInserts; ++i) {
    const serve::CacheKey key = serve::response_cache_key(
        1, serve::Endpoint::kEncode, {static_cast<double>(i)}, 0);
    serve::InferenceResult out;
    ASSERT_EQ(cache.lookup_or_join(key, &out, nullptr),
              serve::ResponseCache::Lookup::kOwner);
    cache.publish(key, ok_result(std::vector<double>(8, 1.0)));
    last = key;
  }

  EXPECT_LE(cache.bytes(), budget);
  EXPECT_LT(cache.entries(), static_cast<std::size_t>(kInserts));
  EXPECT_GT(stats.cache_evictions.load(), 0u);
  // Gauges stay consistent with the introspection accessors.
  EXPECT_EQ(stats.cache_bytes.load(), cache.bytes());
  EXPECT_EQ(stats.cache_entries.load(), cache.entries());
  // The most recent insert into its shard survived.
  serve::InferenceResult out;
  EXPECT_EQ(cache.lookup_or_join(last, &out, nullptr),
            serve::ResponseCache::Lookup::kHit);
}

TEST(ResponseCache, ZeroBudgetStillDedupsInFlight) {
  serve::ResponseCache cache(0);
  const serve::CacheKey key =
      serve::response_cache_key(1, serve::Endpoint::kEncode, {1.0}, 7);
  serve::InferenceResult out;
  ASSERT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kOwner);
  bool resolved = false;
  ASSERT_EQ(cache.lookup_or_join(
                key, &out,
                [&](const serve::InferenceResult&) { resolved = true; }),
            serve::ResponseCache::Lookup::kJoined);
  cache.publish(key, ok_result({1.0}));
  EXPECT_TRUE(resolved);
  EXPECT_EQ(cache.entries(), 0u);  // nothing stored
  EXPECT_EQ(cache.lookup_or_join(key, &out, nullptr),
            serve::ResponseCache::Lookup::kOwner);  // still misses
}

// ---- concurrent dedup -----------------------------------------------------

TEST(ResponseCache, ConcurrentIdenticalRequestsElectOneOwner) {
  serve::ServerStats stats;
  serve::ResponseCache cache(1 << 20, &stats);
  const serve::CacheKey key =
      serve::response_cache_key(3, serve::Endpoint::kReconstruct, {0.5}, 9);
  const std::vector<double> truth = {1.25, -2.5};

  constexpr int kThreads = 8;
  std::atomic<int> owners{0};
  std::atomic<int> identical{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto check = [&](const serve::InferenceResult& r) {
        if (r.ok && r.values == truth) identical.fetch_add(1);
      };
      serve::InferenceResult out;
      const auto verdict = cache.lookup_or_join(key, &out, check);
      if (verdict == serve::ResponseCache::Lookup::kOwner) {
        owners.fetch_add(1);
        cache.publish(key, ok_result(truth));
        identical.fetch_add(1);
      } else if (verdict == serve::ResponseCache::Lookup::kHit) {
        check(out);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one thread computed; every thread saw the same bits.
  EXPECT_EQ(owners.load(), 1);
  EXPECT_EQ(identical.load(), kThreads);
}

// ---- InferenceService integration ----------------------------------------

TEST(ResponseCache, ServiceRoutesThroughCacheBitIdentically) {
  serve::ModelSpec spec;
  spec.kind = "sq-ae";
  spec.input_dim = 16;
  spec.patches = 2;
  spec.entangling_layers = 2;
  std::string error;
  auto model = serve::build_model(spec, &error);
  ASSERT_NE(model, nullptr) << error;

  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));

  serve::ServerStats stats;
  serve::ServeConfig config;
  config.threads = 2;
  config.cache_bytes = 1 << 20;
  serve::InferenceService service(registry, config, &stats);
  ASSERT_NE(service.cache(), nullptr);

  std::vector<double> x(spec.input_dim);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.1 + 0.05 * i;

  const serve::InferenceResult first =
      serve_call::call(service, serve::Endpoint::kEncode, x, 42);
  ASSERT_TRUE(first.ok) << first.error;
  const serve::InferenceResult second =
      serve_call::call(service, serve::Endpoint::kEncode, x, 42);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.values, second.values);  // bit-identical, not approximate
  EXPECT_GE(stats.cache_hits.load(), 1u);

  // A different seed is a different key (stochastic endpoints depend on
  // it), so it must miss.
  const auto hits_before = stats.cache_hits.load();
  serve_call::call(service, serve::Endpoint::kEncode, x, 43);
  EXPECT_EQ(stats.cache_hits.load(), hits_before);

  // Hot-swapping the model bumps the generation: the old entries are
  // unreachable, the same request misses and recomputes.
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));
  serve_call::call(service, serve::Endpoint::kEncode, x, 42);
  EXPECT_EQ(stats.cache_hits.load(), hits_before);

  // Concurrent identical submissions: whatever mix of cache hits,
  // in-flight joins, and fresh executions occurs, every reply is
  // bit-identical to the first.
  constexpr int kBurst = 32;
  std::vector<serve_call::Pending> burst;
  burst.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    burst.emplace_back(service, "default", serve::Endpoint::kEncode, x, 42);
  }
  for (auto& pending : burst) {
    const serve::InferenceResult r = pending.wait();
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.values, first.values);
  }
}

}  // namespace
