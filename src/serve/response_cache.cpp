#include "serve/response_cache.h"

#include <cstring>
#include <utility>

namespace sqvae::serve {

namespace {

/// Approximate heap footprint of one cached response (payload + node
/// overhead), charged against the byte budget.
std::size_t entry_bytes(const InferenceResult& result) {
  return result.values.size() * sizeof(double) + result.error.size() + 96;
}

void bump(std::atomic<std::uint64_t>* counter, std::uint64_t delta = 1) {
  if (counter != nullptr) counter->fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace

CacheKey response_cache_key(std::uint64_t generation, Endpoint endpoint,
                            const std::vector<double>& payload,
                            std::uint64_t seed) {
  // Canonical byte serialisation: fixed-width little-endian-as-stored
  // header fields, then the payload's raw double bit patterns. The layout
  // is unambiguous (all fields fixed width, payload length implied by the
  // buffer size), so distinct requests serialise to distinct buffers.
  std::string bytes;
  bytes.reserve(24 + payload.size() * sizeof(double));
  const std::uint64_t header[3] = {generation,
                                   static_cast<std::uint64_t>(endpoint), seed};
  bytes.append(reinterpret_cast<const char*>(header), sizeof(header));
  if (!payload.empty()) {
    bytes.append(reinterpret_cast<const char*>(payload.data()),
                 payload.size() * sizeof(double));
  }
  return chem::hash_bytes(bytes);
}

ResponseCache::ResponseCache(std::size_t byte_budget, ServerStats* stats)
    : shard_budget_(byte_budget / kShards), stats_(stats) {}

ResponseCache::Lookup ResponseCache::lookup_or_join(const CacheKey& key,
                                                    InferenceResult* out,
                                                    Waiter waiter) {
  Shard& shard = shard_of(key);
  sq::MutexLock lock(shard.mu);

  const auto hit = shard.map.find(key);
  if (hit != shard.map.end()) {
    // Refresh LRU position and answer from the cache.
    shard.lru.splice(shard.lru.begin(), shard.lru, hit->second.lru_pos);
    *out = hit->second.result;
    bump(stats_ != nullptr ? &stats_->cache_hits : nullptr);
    return Lookup::kHit;
  }

  const auto flying = shard.inflight.find(key);
  if (flying != shard.inflight.end()) {
    flying->second.waiters.push_back(std::move(waiter));
    bump(stats_ != nullptr ? &stats_->cache_inflight_joined : nullptr);
    return Lookup::kJoined;
  }

  shard.inflight.emplace(key, InFlight{});
  bump(stats_ != nullptr ? &stats_->cache_misses : nullptr);
  return Lookup::kOwner;
}

std::vector<ResponseCache::Waiter> ResponseCache::take_waiters(
    Shard& shard, const CacheKey& key) {
  std::vector<Waiter> waiters;
  const auto it = shard.inflight.find(key);
  if (it != shard.inflight.end()) {
    waiters = std::move(it->second.waiters);
    shard.inflight.erase(it);
  }
  return waiters;
}

void ResponseCache::publish(const CacheKey& key,
                            const InferenceResult& result) {
  std::vector<Waiter> waiters;
  {
    Shard& shard = shard_of(key);
    sq::MutexLock lock(shard.mu);
    waiters = take_waiters(shard, key);

    const std::size_t bytes = entry_bytes(result);
    if (result.ok && shard_budget_ > 0 && bytes <= shard_budget_ &&
        shard.map.find(key) == shard.map.end()) {
      // Evict least-recently-used entries until the new one fits.
      while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
        const CacheKey victim = shard.lru.back();
        shard.lru.pop_back();
        const auto vit = shard.map.find(victim);
        const std::size_t victim_bytes = vit->second.bytes;
        shard.bytes -= victim_bytes;
        shard.map.erase(vit);
        bump(stats_ != nullptr ? &stats_->cache_evictions : nullptr);
        if (stats_ != nullptr) {
          stats_->cache_entries.fetch_sub(1, std::memory_order_relaxed);
          stats_->cache_bytes.fetch_sub(victim_bytes,
                                        std::memory_order_relaxed);
        }
      }
      shard.lru.push_front(key);
      Entry entry;
      entry.result = result;
      entry.bytes = bytes;
      entry.lru_pos = shard.lru.begin();
      shard.map.emplace(key, std::move(entry));
      shard.bytes += bytes;
      if (stats_ != nullptr) {
        stats_->cache_bytes.fetch_add(bytes, std::memory_order_relaxed);
        stats_->cache_entries.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  for (const Waiter& w : waiters) {
    if (w) w(result);
  }
}

std::size_t ResponseCache::entries() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    sq::MutexLock lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

std::size_t ResponseCache::bytes() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    sq::MutexLock lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

}  // namespace sqvae::serve
