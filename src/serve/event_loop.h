// EventLoopServer: non-blocking epoll front end for sqvae_serve.
//
// One thread owns every socket. A reader/writer thread pair per
// connection would cap a process at a few hundred sockets (two stacks
// each, scheduler pressure, no admission control); a single epoll_wait
// dispatcher holds tens of thousands of connections, while compute runs
// on the InferenceService worker pool.
//
//   * Edge-triggered readiness (EPOLLET): every readable event drains the
//     socket to EAGAIN into the connection's input buffer; frames (lines)
//     are carved off incrementally, so a request split one byte per
//     segment and ten requests coalesced into one segment both parse
//     identically (tests feed both shapes).
//   * Per-connection ordered responses: lines go through
//     handle_request_lines and responses through the connection's
//     ResponseWindow (frontend.h), the pieces the stdin transport shares.
//     Replies arrive out of order on the loop thread (a completion queue
//     + eventfd wakeup), and the writer flushes only the ready in-order
//     prefix, so responses leave in request order per connection.
//   * Bounded output queue: a connection whose unread responses exceed
//     max_outbuf_bytes stops having its input parsed (TCP backpressures
//     the sender) until the backlog drains — one slow reader cannot
//     balloon server memory.
//   * Admission control: beyond max_conns, a new connection gets one
//     "overloaded" error line and is closed (counted in
//     connections_shed); queue-level shedding is the service's
//     shed_on_full (see batch_queue.h).
//   * Idle timeout: connections with no traffic and no pending work for
//     idle_timeout_ms are closed (connections_idle_closed).
//   * Dead peers: EPIPE / ECONNRESET / unexpected EOF tear the
//     connection down immediately with stats accounting
//     (connections_reset); in-flight results for it are dropped on
//     arrival. A half-closed peer (FIN after its last request) still
//     receives every pending response before the server closes.
//   * Graceful drain: request_stop() (async-signal-safe — callable from
//     a SIGTERM handler) stops accepting, parses no further input,
//     finishes and flushes every in-flight response, then closes within
//     drain_timeout_ms.
//   * Zero-downtime rollout: request_reload() (async-signal-safe — the
//     SIGHUP handler's hook) makes the loop thread invoke
//     config.on_reload, which republishes the checkpoint through the
//     ModelRegistry; traffic keeps flowing, generation-pinned.
//   * Multi-process sharding: with config.reuse_port, N shard processes
//     bind the same port via SO_REUSEPORT and the kernel load-balances
//     accepted connections across them (see supervisor.h).
//
// Not built on non-Linux platforms (epoll): start() fails with an error.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/service.h"
#include "serve/stats.h"

namespace sqvae::serve {

struct EventLoopConfig {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the choice via port()).
  int port = 0;
  /// Bind with SO_REUSEPORT so N shard processes share one port and the
  /// kernel load-balances accepts across them (multi-process serving;
  /// see src/serve/supervisor.h).
  bool reuse_port = false;
  /// Shard index reported in the Prometheus export's shard label.
  int shard = 0;
  /// Invoked on the loop thread after request_reload() — the checkpoint
  /// rollout hook (typically: re-load the checkpoint file and publish it
  /// into the ModelRegistry; in-flight batches are generation-pinned and
  /// finish on the old snapshot, see registry.h).
  std::function<void()> on_reload;
  int listen_backlog = 1024;
  /// Connection-count admission limit (see header notes).
  std::size_t max_conns = 10000;
  /// A single request line larger than this is a protocol error and
  /// closes the connection (frame-flood protection).
  std::size_t max_line_bytes = 1 << 20;
  /// Output backlog cap per connection; above it, input parsing pauses.
  std::size_t max_outbuf_bytes = 4u << 20;
  /// Close connections idle (no traffic, no pending work) this long.
  /// 0 = never.
  std::uint64_t idle_timeout_ms = 0;
  /// Graceful-drain deadline after request_stop().
  std::uint64_t drain_timeout_ms = 10000;
};

class EventLoopServer {
 public:
  /// `service` and `stats` must outlive the server. The service should be
  /// configured with shed_on_full (the loop must never block in submit).
  EventLoopServer(InferenceService& service, const EventLoopConfig& config,
                  ServerStats& stats);
  /// The service must be shut down (workers joined) before destruction:
  /// worker completion callbacks post into this object.
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds and listens. False + `error` on failure (port in use,
  /// unsupported platform).
  bool start(std::string* error);

  /// The bound port (after start(); resolves config.port == 0).
  int port() const;

  /// Runs the loop on the calling thread until request_stop() completes a
  /// drain. Returns 0 on a clean drain, 1 on a loop-level failure.
  int run();

  /// Initiates graceful drain; async-signal-safe (one eventfd write).
  /// Safe to call from any thread, multiple times.
  void request_stop();

  /// Requests a checkpoint rollout: the loop thread invokes
  /// config.on_reload at the next iteration. Async-signal-safe (one
  /// eventfd write) — this is the SIGHUP hook. No-op without on_reload.
  void request_reload();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sqvae::serve
