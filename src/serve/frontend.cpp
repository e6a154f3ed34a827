#include "serve/frontend.h"

#include <unistd.h>

#include <cerrno>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "serve/protocol.h"

namespace sqvae::serve {

namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kRelaxed = std::memory_order_relaxed;

/// The stdin transport's one lock and what it guards. It is held neither
/// across submit_cb nor across a write.
struct StreamState {
  sq::Mutex mu;
  sq::CondVar cv;
  ResponseWindow window GUARDED_BY(mu);
  bool input_done GUARDED_BY(mu) = false;
  std::uint64_t lines GUARDED_BY(mu) = 0;  // seqs claimed, once input_done

  bool finished() const REQUIRES(mu) {
    return input_done && window.emitted() == lines;
  }
};

/// One line of handle_request_lines; false (no sequence number) for a
/// blank line.
bool handle_request_line(InferenceService& service, ServerStats& stats,
                         int shard, const std::string& line,
                         std::uint64_t seq, const Deliver& deliver) {
  WireRequest request;
  std::string error;
  if (!parse_request_line(line, &request, &error)) {
    if (error.empty()) return false;  // blank line
    stats.requests_total.fetch_add(1, kRelaxed);
    stats.protocol_errors.fetch_add(1, kRelaxed);
    deliver(Reply{seq, format_parse_error(error)});
    return true;
  }
  stats.requests_total.fetch_add(1, kRelaxed);
  if (request.is_stats) {
    const std::uint64_t depth = service.queue().depth();
    const std::uint64_t generation =
        service.registry().generation(request.model);
    deliver(Reply{seq, request.stats_prometheus
                           ? render_stats_prometheus(stats, depth,
                                                     generation, shard)
                           : render_stats_response(stats, depth, generation,
                                                   request.has_id,
                                                   request.id)});
    return true;
  }
  const int e = static_cast<int>(request.endpoint);
  stats.endpoint[e].requests.fetch_add(1, kRelaxed);
  // The payload moves into the service and the rest of the request into
  // the callback, for format_response; nothing is copied per request.
  std::vector<double> x = std::move(request.x);
  const std::string model = request.model;
  const Endpoint endpoint = request.endpoint;
  const std::uint64_t request_seed = request.seed;
  service.submit_cb(
      model, endpoint, std::move(x), request_seed,
      [&stats, deliver, seq, e, submitted = Clock::now(),
       request = std::move(request)](const InferenceResult& result) {
        if (!result.ok) stats.endpoint[e].errors.fetch_add(1, kRelaxed);
        deliver(Reply{seq, format_response(request, result), e, submitted});
      });
  return true;
}

}  // namespace

void ResponseWindow::complete(Reply reply) {
  if (reply.seq < next_) return;  // already emitted; cannot happen
  const auto at = static_cast<std::size_t>(reply.seq - next_);
  if (at >= slots_.size()) slots_.resize(at + 1);
  slots_[at] = std::move(reply);
}

std::size_t ResponseWindow::take_ready(ServerStats& stats, std::string* out) {
  const Clock::time_point now = Clock::now();
  std::size_t n = 0;
  for (; !slots_.empty() && slots_.front(); slots_.pop_front(), ++next_) {
    const Reply& reply = *slots_.front();
    if (reply.endpoint >= 0) {
      const auto us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - reply.submitted)
              .count());
      stats.latency.record_us(us);
      stats.endpoint[reply.endpoint].latency.record_us(us);
    }
    stats.responses_total.fetch_add(1, kRelaxed);
    *out += reply.line;
    *out += '\n';
    ++n;
  }
  return n;
}

void handle_request_lines(InferenceService& service, ServerStats& stats,
                          int shard, std::string* buffer,
                          std::uint64_t* next_seq, const Deliver& deliver) {
  std::size_t start = 0;
  for (std::size_t nl; (nl = buffer->find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (handle_request_line(service, stats, shard,
                            buffer->substr(start, nl - start), *next_seq,
                            deliver)) {
      ++*next_seq;
    }
  }
  buffer->erase(0, start);
}

void serve_stream(InferenceService& service, ServerStats& stats, int in_fd,
                  int out_fd) {
  StreamState state;
  // Notifies under the lock: after the last reply the writer returns and
  // `state` dies, so no worker may touch it after unlocking.
  const Deliver deliver = [&state](Reply reply) {
    sq::MutexLock lock(state.mu);
    state.window.complete(std::move(reply));
    state.cv.notify_one();
  };

  std::thread reader([&] {
    std::uint64_t seq = 0;
    std::string buffer;
    std::vector<char> chunk(1 << 16);
    for (ssize_t n; (n = ::read(in_fd, chunk.data(), chunk.size())) != 0;) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      buffer.append(chunk.data(), static_cast<std::size_t>(n));
      handle_request_lines(service, stats, /*shard=*/0, &buffer, &seq,
                           deliver);
    }
    if (!buffer.empty()) {  // a last line without its newline
      buffer += '\n';
      handle_request_lines(service, stats, /*shard=*/0, &buffer, &seq,
                           deliver);
    }
    sq::MutexLock lock(state.mu);
    state.input_done = true;
    state.lines = seq;
    state.cv.notify_one();
  });

  std::string out;
  for (bool finished = false, writable = true; !finished;) {
    out.clear();
    {
      sq::MutexLock lock(state.mu);
      while (state.window.take_ready(stats, &out) == 0 && !state.finished()) {
        state.cv.wait(state.mu);
      }
      finished = state.finished();
    }
    // Once a write fails (the client went away), responses are dropped.
    for (std::size_t off = 0; writable && off < out.size();) {
      const ssize_t n = ::write(out_fd, out.data() + off, out.size() - off);
      if (n > 0) off += static_cast<std::size_t>(n);
      writable = n > 0 || (n < 0 && errno == EINTR);
    }
  }
  reader.join();
}

}  // namespace sqvae::serve
