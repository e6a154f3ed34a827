// ResponseCache: content-addressed response caching with in-flight
// request deduplication.
//
// The serving determinism contract (service.h) states that a response is
// a pure function of (model parameters, endpoint, payload, request seed)
// — nothing else. That makes responses content-addressable with exactly
// the keying idiom of the molecule shard store (src/chem/mol_hash.h): the
// cache key is the 128-bit chem::hash_bytes digest of a canonical byte
// serialisation of
//
//     (registry generation, endpoint, payload bits, seed)
//
// where the registry generation stands in for "model parameters": it is
// unique across every publish of a ModelRegistry (registry.h), so hot-
// swapping a checkpoint moves every request onto fresh keys and stale
// entries become unreachable the instant the generation bumps —
// invalidation by keying, no epochs, no sweeps. Unreachable entries age
// out through normal LRU eviction. Payload doubles are hashed by bit
// pattern (not text), so keys cost one pass over the bytes.
//
// Sharding: the key's low bits pick one of kShards independent
// (mutex, map, LRU list) shards, so concurrent lookups from the event
// loop and publishes from worker threads contend only 1/kShards of the
// time. The byte budget is split evenly per shard; eviction is plain LRU
// within a shard.
//
// In-flight deduplication: when N identical requests arrive while the
// first is still computing, lookup_or_join makes request 1 the *owner*
// (it must compute and then publish) and parks requests 2..N as
// waiters on the in-flight entry; publish resolves every waiter with the
// same InferenceResult — one computation, N bit-identical replies. A
// waiter callback runs on the publishing thread, outside all cache locks.
//
// Only ok results are stored (errors are cheap to recompute and would
// poison hot keys); both outcomes resolve waiters, so an owner that was
// shed or refused by a closed queue publishes its error like any other.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "chem/mol_hash.h"
#include "common/mutex.h"
#include "serve/batch_queue.h"
#include "serve/stats.h"

namespace sqvae::serve {

using CacheKey = chem::MolHash;

/// Canonical cache key of a request under a specific registry generation.
CacheKey response_cache_key(std::uint64_t generation, Endpoint endpoint,
                            const std::vector<double>& payload,
                            std::uint64_t seed);

class ResponseCache {
 public:
  enum class Lookup {
    kHit,     // *out filled with the cached response
    kOwner,   // caller must compute, then publish()
    kJoined,  // an identical computation is in flight; the callback fires
              // when it publishes
  };

  using Waiter = std::function<void(const InferenceResult&)>;

  /// `byte_budget` caps the summed payload bytes of cached responses
  /// (0 disables storage — lookups miss, but in-flight dedup still
  /// works). `stats` (optional) receives hit/miss/dedup/eviction and
  /// byte/entry gauges.
  explicit ResponseCache(std::size_t byte_budget,
                         ServerStats* stats = nullptr);

  /// One atomic step of the protocol above: hit fills `out`; owner must
  /// later publish() the key exactly once; joined parks `waiter`.
  Lookup lookup_or_join(const CacheKey& key, InferenceResult* out,
                        Waiter waiter);

  /// Owner path: stores `result` (if ok and within budget) and resolves
  /// every waiter parked on `key` with it.
  void publish(const CacheKey& key, const InferenceResult& result);

  // ---- introspection ---------------------------------------------------
  std::size_t entries() const;
  std::size_t bytes() const;

  static constexpr std::size_t kShards = 16;

 private:
  struct Entry {
    InferenceResult result;
    std::size_t bytes = 0;
    /// Position in `lru` (most-recent at front); valid iff cached.
    std::list<CacheKey>::iterator lru_pos;
  };

  struct InFlight {
    std::vector<Waiter> waiters;
  };

  struct Shard {
    mutable sq::Mutex mu;
    std::unordered_map<CacheKey, Entry, chem::MolHashHasher> map
        GUARDED_BY(mu);
    std::unordered_map<CacheKey, InFlight, chem::MolHashHasher> inflight
        GUARDED_BY(mu);
    std::list<CacheKey> lru GUARDED_BY(mu);  // front = most recently used
    std::size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& shard_of(const CacheKey& key) {
    return shards_[static_cast<std::size_t>(key.lo) % kShards];
  }

  /// Resolves and clears the in-flight entry; returns the waiters to run
  /// (outside the shard lock).
  std::vector<Waiter> take_waiters(Shard& shard, const CacheKey& key)
      REQUIRES(shard.mu);

  const std::size_t shard_budget_;
  ServerStats* stats_;
  Shard shards_[kShards];
};

}  // namespace sqvae::serve
