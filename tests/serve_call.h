// Blocking calls into an InferenceService for tests and bench_serve.
// The service has one submission API, the callback form submit_cb; a
// caller that wants to wait pairs it with a condition variable here.
// Header-only on purpose: tests/*.cpp are globbed into one binary each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "serve/service.h"

namespace serve_call {

/// One submitted request; wait() blocks until its callback has run.
/// Submit a burst of these first, then wait on each, to keep many
/// requests in flight at once.
class Pending {
 public:
  Pending(sqvae::serve::InferenceService& service, const std::string& model,
          sqvae::serve::Endpoint endpoint, std::vector<double> input,
          std::uint64_t seed) {
    // The callback may run on a worker after this object has moved (or
    // inline, before the constructor returns): it owns the state too.
    service.submit_cb(
        model, endpoint, std::move(input), seed,
        [state = state_](const sqvae::serve::InferenceResult& result) {
          state->finish(result);
        });
  }

  sqvae::serve::InferenceResult wait() { return state_->wait(); }

 private:
  struct State {
    void finish(const sqvae::serve::InferenceResult& r) EXCLUDES(mu) {
      {
        sq::MutexLock lock(mu);
        result = r;
        done = true;
      }
      cv.notify_all();
    }

    sqvae::serve::InferenceResult wait() EXCLUDES(mu) {
      sq::MutexLock lock(mu);
      while (!done) cv.wait(mu);
      return result;
    }

    sq::Mutex mu;
    sq::CondVar cv;
    bool done GUARDED_BY(mu) = false;
    sqvae::serve::InferenceResult result GUARDED_BY(mu);
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// Submits one request and blocks until it resolves.
inline sqvae::serve::InferenceResult call(
    sqvae::serve::InferenceService& service, sqvae::serve::Endpoint endpoint,
    std::vector<double> input, std::uint64_t seed,
    const std::string& model = "default") {
  return Pending(service, model, endpoint, std::move(input), seed).wait();
}

}  // namespace serve_call
