// BatchQueue: micro-batch coalescing of concurrent single-sample requests.
//
// Serving traffic arrives one sample at a time, but every layer below the
// queue is batch-shaped: one tape amortises autodiff-node overhead over
// the batch, and CircuitExecutor::run_batch amortises plan binding and
// parallelises the per-sample statevectors. The queue recovers that batch
// shape at runtime: a worker popping work takes the oldest request, then
// coalesces every queued request with the same (model, endpoint) key — up
// to `max_batch` of them.
//
// Straggler policy: with `max_wait_us` = 0 (the default) coalescing is
// purely opportunistic — a worker takes whatever is queued *now*, which
// under sustained concurrent load already forms near-concurrency-sized
// batches (requests accumulate while the previous batch executes) and adds
// zero idle latency. A non-zero `max_wait_us` additionally holds a
// sub-max_batch batch open for stragglers, with the deadline anchored at
// the *oldest request's enqueue time* — so requests that already aged in
// the queue during the previous execution are never delayed again, and the
// knob bounds the total queue-added latency of any request. Use it for
// open-loop/pipelined clients where submissions keep streaming regardless
// of responses; closed-loop clients (submit, block, repeat) gain nothing
// from waiting, since their next requests cannot arrive before the current
// batch resolves. max_batch = 1 degenerates to per-request dispatch, the
// A/B baseline of bench_serve.
//
// Requests with different keys are left queued for other workers, so one
// slow model cannot head-of-line-block another model's traffic beyond the
// scan cost.
//
// Admission control (the internet-shaped additions):
//
//   * Load shedding — with `shed_on_full` a push into a full queue fails
//     *immediately* with an "overloaded" error instead of blocking the
//     producer. Blocking backpressure is right for a pipe (stdin mode:
//     the OS pipe buffer backpressures the writer), but an event loop
//     must never block its only thread — it replies "overloaded" and
//     stays responsive. Shed requests count in the optional
//     ServerStats' requests_shed.
//   * Priority lane — encode/decode (half a forward pass each) ride a
//     high lane that workers drain first and that may use a reserve
//     beyond max_depth (max_depth/4 extra), so they are neither starved
//     nor shed by a backlog of expensive reconstructs and latent_samples
//     (a full encode-and-decode pass, or a decode from a seeded z).
//     Coalescing spans both lanes: a batch seeded from the high lane
//     absorbs matching normal-lane requests too, so priority never
//     *reduces* batching.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "serve/stats.h"

namespace sqvae::serve {

enum class Endpoint {
  kEncode,        // features -> deterministic latent code (encode_mean)
  kDecode,        // latent -> features
  kReconstruct,   // features -> features (VAE noise from the request seed)
  kLatentSample,  // z ~ N(0, I) from the request seed -> decode
};

const char* endpoint_name(Endpoint e);
bool parse_endpoint(const std::string& name, Endpoint* out);

struct InferenceResult {
  bool ok = false;
  std::string error;           // set when !ok
  std::vector<double> values;  // latent or feature row
};

/// A failed result carrying `error`.
inline InferenceResult failure(std::string error) {
  InferenceResult result;
  result.error = std::move(error);
  return result;
}

struct Request {
  std::string model;  // registry name
  Endpoint endpoint = Endpoint::kReconstruct;
  std::vector<double> input;  // empty for latent_sample
  /// Every per-request draw (reparameterisation noise, latent sampling)
  /// derives from this seed and nothing else — the serving determinism
  /// contract. Measurement noise is keyed by circuit inputs instead.
  std::uint64_t seed = 0;
  /// Called exactly once with the result: by the executing worker, or
  /// inline by push() when the request is shed or the queue is closed.
  std::function<void(const InferenceResult&)> on_done;
  /// Set by push(); anchors the straggler-wait deadline.
  std::chrono::steady_clock::time_point enqueued{};
};

class BatchQueue {
 public:
  /// `max_depth` bounds the number of queued (not yet popped) requests.
  /// When full: with `shed_on_full` false (default), push() blocks —
  /// natural backpressure for pipe producers; with it true, push()
  /// answers "overloaded" at once (load shedding; see the
  /// admission-control notes above). 0 = unbounded.
  /// `stats` (optional) receives shed counts.
  BatchQueue(std::size_t max_batch, std::uint64_t max_wait_us,
             std::size_t max_depth = 0, bool shed_on_full = false,
             ServerStats* stats = nullptr);

  /// Enqueues a request; `on_done` receives its result (see Request).
  /// Blocks while the queue is at max_depth (unless shedding — see
  /// above); the high lane may use its reserve beyond max_depth.
  void push(std::string model, Endpoint endpoint, std::vector<double> input,
            std::uint64_t seed,
            std::function<void(const InferenceResult&)> on_done)
      EXCLUDES(mu_);

  /// Blocks until at least one request is available (or the queue closes),
  /// then coalesces up to max_batch same-key requests as described above.
  /// An empty result means closed-and-drained: workers should exit.
  std::vector<Request> pop_batch() EXCLUDES(mu_);

  /// Wakes all waiters; subsequent pushes answer "service is shut down".
  /// Already-queued requests still drain through pop_batch.
  void close() EXCLUDES(mu_);

  std::size_t depth() const EXCLUDES(mu_);

  // Coalescing statistics (monotonic; for tests and the CLI's shutdown
  // report).
  std::uint64_t total_requests() const EXCLUDES(mu_);
  std::uint64_t total_batches() const EXCLUDES(mu_);

 private:
  /// Moves every queued request matching (model, endpoint) of `batch[0]`
  /// into `batch` — high lane first, then normal — up to max_batch_.
  /// `batch` must have capacity for max_batch_ elements already (the
  /// matching key is read through a reference into it, which a
  /// reallocation would invalidate).
  void collect_matching(std::vector<Request>& batch) REQUIRES(mu_);
  /// Queued request count across both lanes.
  std::size_t depth_locked() const REQUIRES(mu_) {
    return high_.size() + normal_.size();
  }

  const std::size_t max_batch_;
  const std::uint64_t max_wait_us_;
  const std::size_t max_depth_;
  const bool shed_on_full_;
  ServerStats* const stats_;

  mutable sq::Mutex mu_;
  sq::CondVar cv_;
  std::deque<Request> high_ GUARDED_BY(mu_);
  std::deque<Request> normal_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  std::uint64_t total_requests_ GUARDED_BY(mu_) = 0;
  std::uint64_t total_batches_ GUARDED_BY(mu_) = 0;
};

}  // namespace sqvae::serve
