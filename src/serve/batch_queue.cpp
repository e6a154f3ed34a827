#include "serve/batch_queue.h"

#include <algorithm>
#include <chrono>

namespace sqvae::serve {

const char* endpoint_name(Endpoint e) {
  switch (e) {
    case Endpoint::kEncode:
      return "encode";
    case Endpoint::kDecode:
      return "decode";
    case Endpoint::kReconstruct:
      return "reconstruct";
    case Endpoint::kLatentSample:
      return "latent_sample";
  }
  return "?";
}

bool parse_endpoint(const std::string& name, Endpoint* out) {
  if (name == "encode") {
    *out = Endpoint::kEncode;
  } else if (name == "decode") {
    *out = Endpoint::kDecode;
  } else if (name == "reconstruct") {
    *out = Endpoint::kReconstruct;
  } else if (name == "latent_sample") {
    *out = Endpoint::kLatentSample;
  } else {
    return false;
  }
  return true;
}

BatchQueue::BatchQueue(std::size_t max_batch, std::uint64_t max_wait_us,
                       std::size_t max_depth, bool shed_on_full,
                       ServerStats* stats)
    : max_batch_(max_batch == 0 ? 1 : max_batch),
      max_wait_us_(max_wait_us),
      max_depth_(max_depth),
      shed_on_full_(shed_on_full),
      stats_(stats) {}

void BatchQueue::push(std::string model, Endpoint endpoint,
                      std::vector<double> input, std::uint64_t seed,
                      std::function<void(const InferenceResult&)> on_done) {
  const bool high = endpoint == Endpoint::kEncode ||
                    endpoint == Endpoint::kDecode;  // see the header
  Request request;
  request.model = std::move(model);
  request.endpoint = endpoint;
  request.input = std::move(input);
  request.seed = seed;
  request.on_done = std::move(on_done);

  {
    sq::MutexLock lock(mu_);
    if (max_depth_ > 0) {
      // High-priority requests may dip into a reserve beyond max_depth
      // (max_depth/4 extra, at least 1) so a backlog of expensive
      // normal-lane work can neither starve nor shed the cheap lane.
      const std::size_t limit =
          high ? max_depth_ + std::max<std::size_t>(1, max_depth_ / 4)
               : max_depth_;
      if (shed_on_full_) {
        // Load shedding: never block the producer (the event loop's one
        // thread); reply overloaded immediately.
        if (!closed_ && depth_locked() >= limit) {
          if (stats_ != nullptr) {
            stats_->requests_shed.fetch_add(1, std::memory_order_relaxed);
          }
          lock.unlock();
          request.on_done(failure("overloaded: queue full, request shed"));
          return;
        }
      } else {
        // Backpressure: block the producer until a worker makes room (or
        // the queue closes). pop_batch notifies after removing requests.
        while (!closed_ && depth_locked() >= limit) cv_.wait(mu_);
      }
    }
    if (closed_) {
      lock.unlock();
      request.on_done(failure("service is shut down"));
      return;
    }
    request.enqueued = std::chrono::steady_clock::now();
    (high ? high_ : normal_).push_back(std::move(request));
    ++total_requests_;
  }
  // notify_all, not notify_one: the woken worker may be one that is
  // holding a half-formed batch with a *different* key and will take
  // nothing, while an idle worker keeps sleeping.
  cv_.notify_all();
}

void BatchQueue::collect_matching(std::vector<Request>& batch) {
  // pop_batch reserved max_batch_ slots up front, so push_back below never
  // reallocates and the key can be read through a stable reference instead
  // of a per-batch heap copy of the model name.
  const std::string& model = batch.front().model;
  const Endpoint endpoint = batch.front().endpoint;
  for (std::deque<Request>* lane : {&high_, &normal_}) {
    for (auto it = lane->begin();
         it != lane->end() && batch.size() < max_batch_;) {
      if (it->model == model && it->endpoint == endpoint) {
        batch.push_back(std::move(*it));
        it = lane->erase(it);
      } else {
        ++it;
      }
    }
  }
}

std::vector<Request> BatchQueue::pop_batch() {
  sq::MutexLock lock(mu_);
  while (!closed_ && depth_locked() == 0) cv_.wait(mu_);
  std::vector<Request> batch;
  if (depth_locked() == 0) return batch;  // closed and drained
  batch.reserve(max_batch_);  // stable references for collect_matching

  // Seed the batch from the high lane when it has work; coalescing below
  // still spans both lanes, so priority never reduces batching.
  std::deque<Request>& lane = high_.empty() ? normal_ : high_;
  batch.push_back(std::move(lane.front()));
  lane.pop_front();
  collect_matching(batch);

  if (batch.size() < max_batch_ && max_wait_us_ > 0 && !closed_) {
    // Hold the batch open briefly for stragglers. The deadline is anchored
    // at the oldest request's enqueue time (see the header's straggler
    // policy), so time already spent queued counts against the wait. Every
    // wake re-scans for matching requests; non-matching arrivals were
    // notified to everyone, so an idle worker picks them up concurrently.
    const auto deadline =
        batch.front().enqueued + std::chrono::microseconds(max_wait_us_);
    while (batch.size() < max_batch_ && !closed_) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        collect_matching(batch);
        break;
      }
      collect_matching(batch);
    }
  }

  ++total_batches_;
  // Requests left the queue: wake any producer blocked on backpressure
  // (and fellow workers, if non-matching requests remain queued).
  if (max_depth_ > 0) cv_.notify_all();
  return batch;
}

void BatchQueue::close() {
  {
    sq::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t BatchQueue::depth() const {
  sq::MutexLock lock(mu_);
  return depth_locked();
}

std::uint64_t BatchQueue::total_requests() const {
  sq::MutexLock lock(mu_);
  return total_requests_;
}

std::uint64_t BatchQueue::total_batches() const {
  sq::MutexLock lock(mu_);
  return total_batches_;
}


}  // namespace sqvae::serve
