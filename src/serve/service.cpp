#include "serve/service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "common/thread_budget.h"

namespace sqvae::serve {

namespace {

// Domain-separation salt of the per-request noise stream (latent
// sampling, VAE reparameterisation).
constexpr std::uint64_t kNoiseSalt = 0x5e7e0001ull;

/// The request's z ~ N(0, I) row: the first latent_dim normals of its
/// private noise stream.
std::vector<double> seeded_row(std::size_t latent_dim, std::uint64_t seed) {
  sqvae::Rng rng(qsim::backend_detail::derive_seed(kNoiseSalt, seed, 0, 0));
  std::vector<double> z(latent_dim);
  for (double& v : z) v = rng.normal();
  return z;
}

/// Validates a request's payload against the model; returns an empty
/// string when valid.
std::string validate(const LoadedModel& loaded, Endpoint endpoint,
                     const std::vector<double>& input) {
  auto dim_error = [&](const char* what, std::size_t expected) {
    if (input.size() == expected) return std::string();
    return std::string(endpoint_name(endpoint)) + " expects " + what + " of " +
           std::to_string(expected) + " values, got " +
           std::to_string(input.size());
  };
  switch (endpoint) {
    case Endpoint::kEncode:
    case Endpoint::kReconstruct:
      return dim_error("a feature row", loaded.input_dim());
    case Endpoint::kDecode:
      return dim_error("a latent row", loaded.latent_dim());
    case Endpoint::kLatentSample:
      if (!loaded.is_generative()) {
        return "latent_sample requires a generative model (VAE)";
      }
      if (!input.empty()) {
        return "latent_sample takes no payload (z is drawn from the seed)";
      }
      return std::string();
  }
  return "unknown endpoint";
}

/// Executes already-validated requests as one batched pass. Rows are
/// computed independently, so each result row is bit-identical to a size-1
/// batch of the same request.
std::vector<std::vector<double>> run_coalesced(
    const LoadedModel& loaded, models::Autoencoder& model, Endpoint endpoint,
    const std::vector<Request*>& requests) {
  const std::size_t batch = requests.size();
  const std::size_t in_cols = endpoint == Endpoint::kLatentSample ||
                                      endpoint == Endpoint::kDecode
                                  ? loaded.latent_dim()
                                  : loaded.input_dim();
  // latent_sample's z and a VAE reconstruct's reparameterisation noise are
  // the same row: latent_dim normals of the request's noise stream.
  const bool draws_z = endpoint == Endpoint::kLatentSample;
  const bool draws_noise =
      endpoint == Endpoint::kReconstruct && loaded.is_generative();
  Matrix rows(batch, in_cols);
  Matrix noise = draws_noise ? Matrix(batch, loaded.latent_dim()) : Matrix();
  auto set_row = [](Matrix& m, std::size_t r, const std::vector<double>& v) {
    for (std::size_t c = 0; c < v.size(); ++c) m(r, c) = v[c];
  };
  for (std::size_t r = 0; r < batch; ++r) {
    const Request& request = *requests[r];
    const std::vector<double> seeded =
        draws_z || draws_noise
            ? seeded_row(loaded.latent_dim(), request.seed)
            : std::vector<double>();
    set_row(rows, r, draws_z ? seeded : request.input);
    if (draws_noise) set_row(noise, r, seeded);
  }

  Matrix out;
  switch (endpoint) {
    case Endpoint::kEncode:
      out = model.encode_values(rows);
      break;
    case Endpoint::kDecode:
    case Endpoint::kLatentSample:
      out = model.decode_values(rows);
      break;
    case Endpoint::kReconstruct:
      out = model.reconstruct(rows, noise);
      break;
  }

  std::vector<std::vector<double>> results(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    results[r].resize(out.cols());
    for (std::size_t c = 0; c < out.cols(); ++c) results[r][c] = out(r, c);
  }
  return results;
}

}  // namespace

InferenceResult execute_single(const LoadedModel& loaded,
                               models::Autoencoder& replica, Endpoint endpoint,
                               const std::vector<double>& input,
                               std::uint64_t seed) {
  const std::string error = validate(loaded, endpoint, input);
  if (!error.empty()) return failure(error);

  Request request;
  request.endpoint = endpoint;
  request.input = input;
  request.seed = seed;
  InferenceResult result;
  result.ok = true;
  result.values = std::move(run_coalesced(loaded, replica, endpoint,
                                          {&request})[0]);
  return result;
}

InferenceService::InferenceService(ModelRegistry& registry,
                                   const ServeConfig& config,
                                   ServerStats* stats)
    : registry_(registry),
      config_(config),
      stats_(stats),
      cache_(config.cache_bytes > 0
                 ? std::make_unique<ResponseCache>(config.cache_bytes, stats)
                 : nullptr),
      queue_(config.max_batch, config.max_batch_wait_us, config.max_queue,
             config.shed_on_full, stats) {
  const thread_budget::Split pool = thread_budget::split(
      config.threads > 0 ? config.threads : thread_budget::current(), 0);
  worker_team_ = pool.member;
  workers_.reserve(static_cast<std::size_t>(pool.team));
  for (int t = 0; t < pool.team; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceService::~InferenceService() { shutdown(); }

void InferenceService::shutdown() {
  // Check-and-set and the joins all happen under the lock: without it two
  // concurrent shutdowns could both see shut_down_ == false and both join
  // the same thread (undefined behaviour). The second caller now blocks
  // until the first finishes draining, then returns.
  sq::MutexLock lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void InferenceService::submit_cb(
    const std::string& model, Endpoint endpoint, std::vector<double> input,
    std::uint64_t seed, std::function<void(const InferenceResult&)> done) {
  if (cache_ == nullptr) {
    queue_.push(model, endpoint, std::move(input), seed, std::move(done));
    return;
  }

  // The registry generation stands in for "model parameters" in the key
  // (unique per publish — see response_cache.h). Generation 0 = unknown
  // model; let the queue path produce the canonical error.
  const std::uint64_t generation = registry_.generation(model);
  const CacheKey key =
      response_cache_key(generation, endpoint, input, seed);

  InferenceResult cached;
  const ResponseCache::Lookup outcome =
      cache_->lookup_or_join(key, &cached, done);
  switch (outcome) {
    case ResponseCache::Lookup::kHit:
      done(cached);
      return;
    case ResponseCache::Lookup::kJoined:
      return;  // the owner's publish resolves `done`
    case ResponseCache::Lookup::kOwner:
      break;
  }

  // Owner: compute through the queue, publish the result (which stores
  // it if ok and resolves every waiter that joined meanwhile), then
  // answer this request. Shed/closed failures also flow through publish,
  // so joined waiters never hang on an owner that was refused admission.
  ResponseCache* cache = cache_.get();
  queue_.push(model, endpoint, std::move(input), seed,
              [cache, key, done](const InferenceResult& result) {
                cache->publish(key, result);
                done(result);
              });
}

void InferenceService::worker_loop() {
  const thread_budget::Scope member(worker_team_);
  std::unordered_map<std::string, Replica> cache;
  while (true) {
    std::vector<Request> batch = queue_.pop_batch();
    if (batch.empty()) return;
    execute_batch(batch, cache);
  }
}

void InferenceService::execute_batch(
    std::vector<Request>& batch,
    std::unordered_map<std::string, Replica>& cache) {
  const std::string& name = batch.front().model;
  const ModelEntry entry = registry_.get(name);
  if (entry.model == nullptr) {
    for (Request& r : batch) {
      r.on_done(failure("unknown model: " + name));
    }
    return;
  }

  Replica& replica = cache[name];
  if (replica.generation != entry.generation || replica.model == nullptr) {
    replica.model = entry.model->make_replica();
    replica.loaded = entry.model;
    replica.generation = entry.generation;
  }
  if (replica.model == nullptr) {
    for (Request& r : batch) {
      r.on_done(failure("internal error: replica build failed"));
    }
    return;
  }
  const LoadedModel& loaded = *replica.loaded;
  const Endpoint endpoint = batch.front().endpoint;

  // Validation failures resolve immediately; the rest execute.
  std::vector<Request*> work;
  work.reserve(batch.size());
  for (Request& r : batch) {
    const std::string error = validate(loaded, endpoint, r.input);
    if (!error.empty()) {
      r.on_done(failure(error));
    } else {
      work.push_back(&r);
    }
  }
  if (work.empty()) return;

  std::vector<std::vector<double>> rows =
      run_coalesced(loaded, *replica.model, endpoint, work);
  for (std::size_t i = 0; i < work.size(); ++i) {
    InferenceResult result;
    result.ok = true;
    result.values = std::move(rows[i]);
    work[i]->on_done(result);
  }
}

}  // namespace sqvae::serve
