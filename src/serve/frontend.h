// Line-protocol front end of both sqvae_serve transports, the epoll event
// loop (event_loop.h) and stdin/stdout (serve_stream): request lines go
// through handle_request_lines, responses through a ResponseWindow.
//
// Each non-blank line claims the next sequence number of its stream; its
// Reply carries that number back, inline (parse errors, stats, cache
// hits, sheds) or from a worker thread, and the window emits replies in
// sequence order. Counters move before their effect is visible: request
// counters when a line is handled, endpoint errors before its reply is
// delivered, responses_total and latency before the window hands the
// response to its transport.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "serve/service.h"
#include "serve/stats.h"

namespace sqvae::serve {

struct Reply {
  std::uint64_t seq = 0;  // the request line's place in its stream
  std::string line;       // without the newline
  /// Inference replies: endpoint index and submit time, for the latency
  /// histograms. -1 = untimed (parse errors, stats).
  int endpoint = -1;
  std::chrono::steady_clock::time_point submitted{};
};

/// How a stream receives its replies; called inline or on a worker.
using Deliver = std::function<void(Reply)>;

/// A stream's responses in request order. Not synchronised: its
/// transport serialises access (the loop thread, the stdin lock).
class ResponseWindow {
 public:
  /// Files a reply; replies may arrive in any order.
  void complete(Reply reply);
  /// Counts and appends the ready in-order prefix to `out`, one line and
  /// '\n' per reply. Returns how many were appended.
  std::size_t take_ready(ServerStats& stats, std::string* out);
  /// The sequence number emitted next.
  std::uint64_t emitted() const { return next_; }

 private:
  std::deque<std::optional<Reply>> slots_;  // slots_[i] holds seq next_ + i
  std::uint64_t next_ = 0;
};

/// Handles and erases the complete lines of `*buffer`; each non-blank one
/// claims sequence number (*next_seq)++. Parse errors and stats are
/// answered at once (`shard` labels Prometheus output); inference goes
/// to submit_cb with a callback that counts errors and delivers the
/// response. Hold no lock that `deliver` takes: it can run inline.
void handle_request_lines(InferenceService& service, ServerStats& stats,
                          int shard, std::string* buffer,
                          std::uint64_t* next_seq, const Deliver& deliver);

/// The stdin/stdout transport: answers the lines of `in_fd` on `out_fd`
/// and returns once input has ended and every response is written. A
/// reader thread reads with read(2) and never waits on output, so a
/// client may write everything before reading; the calling thread writes
/// each ready prefix. A full queue blocks the reader: pipe backpressure.
void serve_stream(InferenceService& service, ServerStats& stats, int in_fd,
                  int out_fd);

}  // namespace sqvae::serve
