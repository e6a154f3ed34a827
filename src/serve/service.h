// InferenceService: batched model serving with per-request determinism.
//
// Topology: callers submit single-sample requests (endpoint + payload +
// seed) through submit_cb, the one submission API, into a BatchQueue; a
// pool of worker threads pops micro-batches and
// executes them against private replicas of the ModelRegistry's current
// LoadedModel generation. Replicas are cached per (worker, model name) and
// rebuilt only when the registry's generation counter moves, so hot-
// swapping a checkpoint is race-free: in-flight batches finish on the old
// immutable snapshot, later batches see the new one.
//
// Determinism contract: a request's result depends only on (model
// parameters + spec, endpoint, payload, request seed) — never on batch
// composition, worker count, queue timing, or concurrent traffic. It is
// enforced by construction: every endpoint runs same-key requests as one
// batched pass under every simulation backend, and that is sound because
// every row of the pass depends only on its own request:
//
//   * every layer of the stack computes rows independently (linear layers
//     are per-row dot products, each sample owns its statevector, and
//     trajectory/shot measurement noise is keyed by the row's own circuit
//     inputs — qsim/backend.h), so row i of a size-B batch is
//     bit-identical to a size-1 batch. Measurement noise therefore does
//     not depend on the request seed;
//   * the draws that do come from the request seed are made per row before
//     the pass: latent_sample's z, and a VAE reconstruct's
//     reparameterisation noise, which is the same row (latent_dim normals
//     of the request's noise stream) handed to the forward as data
//     (models/autoencoder.h). Replaying a seed replays the exact noise.
//
// execute_single() below *is* the contract's reference implementation:
// serving N requests concurrently through the pool is bit-identical to
// calling it N times serially (sqvae_serve --reference does exactly that,
// and tests/serve_determinism_test.cpp hammers the equivalence for all
// three simulation backends).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "serve/batch_queue.h"
#include "serve/loaded_model.h"
#include "serve/registry.h"
#include "serve/response_cache.h"
#include "serve/stats.h"

namespace sqvae::serve {

struct ServeConfig {
  /// Micro-batch cap: a worker coalesces at most this many same-key
  /// requests into one execution. 1 = per-request dispatch (the bench
  /// baseline).
  std::size_t max_batch = 16;
  /// Straggler wait (see batch_queue.h): 0 = opportunistic coalescing
  /// only; > 0 additionally holds sub-max_batch batches open for this long
  /// after the oldest request's arrival — for open-loop/pipelined clients.
  std::uint64_t max_batch_wait_us = 0;
  /// Compute budget of the pool: one worker per thread, each running its
  /// batches at a budget of 1 (common/thread_budget.h) — served circuits
  /// parallelise across requests, not inside one state. 0 = the budget of
  /// the thread constructing the service.
  int threads = 0;
  /// Queue-depth bound: submit_cb() blocks once this many requests are
  /// queued, backpressuring producers so an unbounded pipelined client
  /// cannot balloon memory. 0 = unbounded.
  std::size_t max_queue = 1024;
  /// Load shedding: when true, a submit into a full queue fails
  /// immediately with an "overloaded" error instead of blocking — the
  /// admission-control mode the event loop requires (batch_queue.h).
  bool shed_on_full = false;
  /// Response-cache byte budget; 0 disables caching entirely (no keying,
  /// no in-flight dedup). The determinism contract makes responses
  /// content-addressable — see response_cache.h.
  std::size_t cache_bytes = 0;
};

/// Reference implementation of one request — the one-row batch of the
/// determinism contract above. `replica` must be a private (not
/// concurrently used) replica of `loaded`.
InferenceResult execute_single(const LoadedModel& loaded,
                               models::Autoencoder& replica, Endpoint endpoint,
                               const std::vector<double>& input,
                               std::uint64_t seed);

class InferenceService {
 public:
  /// The registry must outlive the service; so must `stats` when given
  /// (it receives cache and shed counters). Workers start immediately.
  InferenceService(ModelRegistry& registry, const ServeConfig& config,
                   ServerStats* stats = nullptr);
  ~InferenceService();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Submits one request, routed through the response cache when one is
  /// configured. `done` is invoked exactly once with the result: inline
  /// (on the calling thread) for cache hits, sheds and a closed queue, on
  /// a worker thread otherwise, and on the *owner's* worker thread for
  /// requests that joined an in-flight duplicate. So no caller lock may
  /// be held across this call, and callbacks must be cheap and
  /// non-blocking — workers run them on the hot path. Blocks only while a
  /// non-shedding queue is full (ServeConfig::max_queue).
  void submit_cb(const std::string& model, Endpoint endpoint,
                 std::vector<double> input, std::uint64_t seed,
                 std::function<void(const InferenceResult&)> done);

  /// Drains workers and rejects further submissions. Idempotent and safe
  /// against concurrent callers; also run by the destructor. Must not be
  /// called from a worker thread (it joins them).
  void shutdown() EXCLUDES(shutdown_mu_);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Thread budget each worker runs its batches at (the OpenMP team size
  /// a worker's batch loops may open).
  int worker_team() const { return worker_team_; }
  /// Queue statistics (total_requests / total_batches expose the achieved
  /// coalescing ratio).
  const BatchQueue& queue() const { return queue_; }
  /// The response cache, or null when cache_bytes was 0.
  const ResponseCache* cache() const { return cache_.get(); }
  /// The registry this service serves from (for /stats generation).
  const ModelRegistry& registry() const { return registry_; }

 private:
  /// One worker's cached materialisation of a registry entry.
  struct Replica {
    std::uint64_t generation = 0;
    std::shared_ptr<const LoadedModel> loaded;
    std::unique_ptr<models::Autoencoder> model;
  };

  void worker_loop();
  void execute_batch(std::vector<Request>& batch,
                     std::unordered_map<std::string, Replica>& cache);

  ModelRegistry& registry_;
  ServeConfig config_;
  ServerStats* stats_;
  std::unique_ptr<ResponseCache> cache_;
  BatchQueue queue_;
  int worker_team_ = 1;
  std::vector<std::thread> workers_;
  /// Serialises shutdown(): two concurrent callers must not both observe
  /// shut_down_ == false and race to join the same threads. Workers never
  /// call shutdown, so joining under the lock cannot deadlock.
  sq::Mutex shutdown_mu_;
  bool shut_down_ GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace sqvae::serve
