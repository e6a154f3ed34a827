#include "serve/event_loop.h"

#include <cstdio>

#ifdef __linux__

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "serve/protocol.h"

namespace sqvae::serve {

namespace {

using Clock = std::chrono::steady_clock;

// epoll user-data tokens below kFirstConnToken identify the fixed fds.
constexpr std::uint64_t kListenerToken = 0;
constexpr std::uint64_t kStopToken = 1;
constexpr std::uint64_t kWakeToken = 2;
constexpr std::uint64_t kReloadToken = 3;
constexpr std::uint64_t kFirstConnToken = 4;

constexpr const char* kOverloadedConnLine =
    "{\"ok\": false, \"error\": \"overloaded: connection limit reached\"}\n";

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One response slot of a connection, in request order. Immediate
/// responses (parse errors, /stats) are born ready; inference slots
/// become ready when their worker completion arrives.
struct Slot {
  bool ready = false;
  bool timed = false;  // record latency on completion (inference slots)
  int endpoint = -1;   // per-endpoint latency attribution (timed slots)
  std::string line;
  Clock::time_point submitted{};
};

struct Conn {
  int fd = -1;
  std::uint64_t token = 0;
  std::string inbuf;
  std::deque<Slot> slots;
  /// Sequence number of slots.front(); slot seq i lives at index
  /// i - base_seq. Completions address slots by (token, seq), which stays
  /// stable while earlier slots are flushed away.
  std::uint64_t base_seq = 0;
  std::string outbuf;
  std::size_t out_off = 0;
  Clock::time_point last_activity{};
  bool want_write = false;        // EPOLLOUT armed
  bool input_closed = false;      // no further input is parsed
  bool peer_half_closed = false;  // read EOF; flush, then close
  bool close_after_flush = false; // fatal protocol error; flush, then close
  bool paused = false;            // output backlog: input parsing paused
};

struct Completion {
  std::uint64_t token = 0;
  std::uint64_t seq = 0;
  std::string line;
};

}  // namespace

struct EventLoopServer::Impl {
  InferenceService& service;
  EventLoopConfig config;
  ServerStats& stats;

  int epoll_fd = -1;
  int listen_fd = -1;
  int stop_fd = -1;
  int wake_fd = -1;
  int reload_fd = -1;
  int bound_port = 0;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_token = kFirstConnToken;

  /// The only cross-thread state of the loop: worker completion callbacks
  /// push here; the loop thread swaps the vector out under the lock in
  /// drain_completions. Everything else in Impl is loop-thread-only.
  sq::Mutex completions_mu;
  std::vector<Completion> completions GUARDED_BY(completions_mu);

  bool draining = false;
  Clock::time_point drain_deadline{};
  Clock::time_point last_idle_sweep{};

  Impl(InferenceService& s, const EventLoopConfig& c, ServerStats& st)
      : service(s), config(c), stats(st) {}

  ~Impl() {
    // lint-allow(unordered-iter): fd close order is immaterial
    for (auto& [token, conn] : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (stop_fd >= 0) ::close(stop_fd);
    if (wake_fd >= 0) ::close(wake_fd);
    if (reload_fd >= 0) ::close(reload_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  bool add_fd(int fd, std::uint64_t token, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = token;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  bool start(std::string* error) {
    const auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = std::string(what) + ": " + std::strerror(errno);
      }
      return false;
    };
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) return fail("epoll_create1");
    stop_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    reload_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (stop_fd < 0 || wake_fd < 0 || reload_fd < 0) return fail("eventfd");

    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (config.reuse_port &&
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return fail("setsockopt(SO_REUSEPORT)");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config.port));
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return fail("bind");
    }
    if (::listen(listen_fd, config.listen_backlog) < 0) return fail("listen");
    if (!set_nonblocking(listen_fd)) return fail("fcntl");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      bound_port = static_cast<int>(ntohs(addr.sin_port));
    }

    // Listener and eventfds are level-triggered (no drain-to-EAGAIN
    // obligations); connection sockets are edge-triggered (added in
    // accept_ready).
    if (!add_fd(listen_fd, kListenerToken, EPOLLIN) ||
        !add_fd(stop_fd, kStopToken, EPOLLIN) ||
        !add_fd(wake_fd, kWakeToken, EPOLLIN) ||
        !add_fd(reload_fd, kReloadToken, EPOLLIN)) {
      return fail("epoll_ctl");
    }
    return true;
  }

  // ---- connection lifecycle --------------------------------------------

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        // Transient accept failures (EMFILE under load, aborted
        // handshakes) must not stop the loop.
        return;
      }
      if (draining) {
        ::close(fd);
        continue;
      }
      if (conns.size() >= config.max_conns) {
        // Admission control: one overloaded line, then close. The socket
        // buffer is empty, so this tiny write cannot meaningfully block.
        // Counted first: the client may read the line, see EOF and read
        // the counter before this thread gets past close().
        stats.connections_shed.fetch_add(1, std::memory_order_relaxed);
        (void)!::write(fd, kOverloadedConnLine,
                       std::strlen(kOverloadedConnLine));
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->token = next_token++;
      conn->last_activity = Clock::now();
      if (!add_fd(fd, conn->token, EPOLLIN | EPOLLRDHUP | EPOLLET)) {
        ::close(fd);
        continue;
      }
      stats.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      stats.connections_active.fetch_add(1, std::memory_order_relaxed);
      conns.emplace(conn->token, std::move(conn));
    }
  }

  void teardown(Conn* conn, bool reset) {
    // Counters move before the close makes the teardown visible to the
    // peer.
    stats.connections_active.fetch_sub(1, std::memory_order_relaxed);
    stats.connections_closed.fetch_add(1, std::memory_order_relaxed);
    if (reset) {
      stats.connections_reset.fetch_add(1, std::memory_order_relaxed);
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
    // Late completions for this token are dropped on arrival.
    conns.erase(conn->token);
  }

  // ---- input path -------------------------------------------------------

  /// Drains the socket to EAGAIN (edge-triggered contract) and parses
  /// every complete frame. Returns false if the connection was torn down.
  bool handle_readable(Conn* conn) {
    if (conn->input_closed) return true;
    char buf[16384];
    while (true) {
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        conn->last_activity = Clock::now();
        conn->inbuf.append(buf, static_cast<std::size_t>(n));
        if (!process_inbuf(conn)) return false;
        if (conn->paused || conn->input_closed) {
          // Backpressure (or a fatal frame error): leave the rest in the
          // socket buffer; TCP throttles the sender. The pending edge is
          // re-created by resume_input's explicit re-read.
          return true;
        }
        continue;
      }
      if (n == 0) {
        // Peer finished sending. A half-closed peer still gets every
        // pending response; close now only if nothing is outstanding.
        conn->peer_half_closed = true;
        conn->input_closed = true;
        if (conn->slots.empty() && conn->outbuf.size() == conn->out_off) {
          teardown(conn, /*reset=*/false);
          return false;
        }
        return true;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      // ECONNRESET and friends: the peer died mid-stream.
      teardown(conn, /*reset=*/true);
      return false;
    }
  }

  /// Carves complete lines out of the input buffer and dispatches them.
  /// Returns false if the connection was torn down.
  bool process_inbuf(Conn* conn) {
    std::size_t start = 0;
    while (!conn->input_closed) {
      const std::size_t nl = conn->inbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = conn->inbuf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      handle_line(conn, line);
      if (conn->paused) break;
    }
    conn->inbuf.erase(0, start);
    if (!conn->input_closed && conn->inbuf.size() > config.max_line_bytes) {
      // A frame larger than the cap can never complete: answer with one
      // protocol error, then flush and close.
      stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Slot slot;
      slot.ready = true;
      slot.line = format_parse_error("request line exceeds " +
                                     std::to_string(config.max_line_bytes) +
                                     " bytes");
      conn->slots.push_back(std::move(slot));
      conn->inbuf.clear();
      conn->input_closed = true;
      conn->close_after_flush = true;
    }
    return flush(conn);
  }

  void handle_line(Conn* conn, const std::string& line) {
    WireRequest request;
    std::string error;
    if (!parse_request_line(line, &request, &error)) {
      if (error.empty()) return;  // blank line
      stats.requests_total.fetch_add(1, std::memory_order_relaxed);
      stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      Slot slot;
      slot.ready = true;
      slot.line = format_parse_error(error);
      conn->slots.push_back(std::move(slot));
      return;
    }
    stats.requests_total.fetch_add(1, std::memory_order_relaxed);

    if (request.is_stats) {
      Slot slot;
      slot.ready = true;
      slot.line =
          request.stats_prometheus
              ? render_stats_prometheus(
                    stats, service.queue().depth(),
                    service.registry().generation(request.model),
                    config.shard)
              : render_stats_response(
                    stats, service.queue().depth(),
                    service.registry().generation(request.model),
                    request.has_id, request.id);
      conn->slots.push_back(std::move(slot));
      return;
    }
    stats.endpoint[static_cast<int>(request.endpoint)].requests.fetch_add(
        1, std::memory_order_relaxed);

    Slot slot;
    slot.timed = true;
    slot.endpoint = static_cast<int>(request.endpoint);
    slot.submitted = Clock::now();
    const std::uint64_t seq =
        conn->base_seq + static_cast<std::uint64_t>(conn->slots.size());
    conn->slots.push_back(std::move(slot));

    // The completion callback runs on a worker thread (or inline for a
    // cache hit): it renders the response — the wire request's op/id
    // survive in the capture — posts it, and kicks the wake eventfd. It
    // must not touch `conn`: the connection may be gone by then.
    //
    // The submit arguments are copied out *before* the callback is built:
    // the callback takes the WireRequest by move (its op/model/id strings
    // would otherwise be heap-copied per request), and evaluation order
    // between a `std::move(request)` capture and sibling arguments
    // reading `request.model` is unspecified.
    const std::uint64_t token = conn->token;
    const std::string model = request.model;
    const Endpoint endpoint = request.endpoint;
    const std::uint64_t seed = request.seed;
    std::vector<double> payload = std::move(request.x);
    request.x.clear();
    Impl* impl = this;
    auto on_done = [impl, token, seq, endpoint,
                    request = std::move(request)](
                       const InferenceResult& result) {
      if (!result.ok) {
        impl->stats.endpoint[static_cast<int>(endpoint)].errors.fetch_add(
            1, std::memory_order_relaxed);
      }
      Completion completion;
      completion.token = token;
      completion.seq = seq;
      completion.line = format_response(request, result);
      {
        sq::MutexLock lock(impl->completions_mu);
        impl->completions.push_back(std::move(completion));
      }
      const std::uint64_t one = 1;
      (void)!::write(impl->wake_fd, &one, sizeof(one));
    };
    service.submit_cb(model, endpoint, std::move(payload), seed,
                      std::move(on_done));
  }

  /// Un-pauses a connection whose output backlog drained: parses frames
  /// that were already buffered, then re-reads the socket (the paused
  /// edge was consumed, so the read must be explicit).
  bool resume_input(Conn* conn) {
    conn->paused = false;
    if (!process_inbuf(conn)) return false;
    if (conn->paused || conn->input_closed) return true;
    return handle_readable(conn);
  }

  // ---- output path ------------------------------------------------------

  void arm_write(Conn* conn, bool on) {
    if (conn->want_write == on) return;
    conn->want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET | (on ? EPOLLOUT : 0u);
    ev.data.u64 = conn->token;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  /// Moves the ready in-order slot prefix into the output buffer and
  /// writes as much as the socket accepts. Returns false if the
  /// connection was torn down.
  bool flush(Conn* conn) {
    while (!conn->slots.empty() && conn->slots.front().ready) {
      Slot& slot = conn->slots.front();
      conn->outbuf += slot.line;
      conn->outbuf += '\n';
      stats.responses_total.fetch_add(1, std::memory_order_relaxed);
      if (slot.timed) {
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - slot.submitted)
                            .count();
        stats.latency.record_us(static_cast<std::uint64_t>(us));
        if (slot.endpoint >= 0 && slot.endpoint < kStatsEndpoints) {
          stats.endpoint[slot.endpoint].latency.record_us(
              static_cast<std::uint64_t>(us));
        }
      }
      conn->slots.pop_front();
      ++conn->base_seq;
    }

    while (conn->out_off < conn->outbuf.size()) {
      const ssize_t n =
          ::write(conn->fd, conn->outbuf.data() + conn->out_off,
                  conn->outbuf.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
        conn->last_activity = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_write(conn, true);
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      // EPIPE / ECONNRESET: the peer died mid-write. Tear down with
      // stats accounting — this is the regression path where the old
      // thread-per-connection writer could wedge on a dead socket.
      teardown(conn, /*reset=*/true);
      return false;
    }

    if (conn->out_off == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_off = 0;
      arm_write(conn, false);
      if (conn->close_after_flush ||
          (conn->peer_half_closed && conn->slots.empty()) ||
          (draining && conn->slots.empty())) {
        teardown(conn, /*reset=*/false);
        return false;
      }
    }

    const std::size_t backlog = conn->outbuf.size() - conn->out_off;
    if (!conn->paused && backlog > config.max_outbuf_bytes) {
      conn->paused = true;  // resume_input() runs when the backlog halves
    } else if (conn->paused && backlog < config.max_outbuf_bytes / 2) {
      return resume_input(conn);
    }
    return true;
  }

  // ---- completions / drain / idle ---------------------------------------

  void drain_completions() {
    std::uint64_t counter = 0;
    (void)!::read(wake_fd, &counter, sizeof(counter));
    std::vector<Completion> batch;
    {
      sq::MutexLock lock(completions_mu);
      batch.swap(completions);
    }
    for (Completion& completion : batch) {
      const auto it = conns.find(completion.token);
      if (it == conns.end()) continue;  // connection died first: dropped
      Conn* conn = it->second.get();
      const std::uint64_t idx = completion.seq - conn->base_seq;
      if (idx >= conn->slots.size()) continue;  // defensive; cannot happen
      Slot& slot =
          conn->slots[static_cast<std::size_t>(idx)];
      slot.ready = true;
      slot.line = std::move(completion.line);
      flush(conn);
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(config.drain_timeout_ms);
    if (listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Parse no further input; flush what is in flight. Idle connections
    // close immediately. Collect tokens first: flush() may erase conns.
    std::vector<std::uint64_t> tokens;
    tokens.reserve(conns.size());
    // lint-allow(unordered-iter): per-connection flag set, no output order
    for (auto& [token, conn] : conns) {
      conn->input_closed = true;
      tokens.push_back(token);
    }
    for (const std::uint64_t token : tokens) {
      const auto it = conns.find(token);
      if (it != conns.end()) flush(it->second.get());
    }
  }

  void idle_sweep() {
    if (config.idle_timeout_ms == 0) return;
    const Clock::time_point now = Clock::now();
    if (now - last_idle_sweep < std::chrono::milliseconds(250)) return;
    last_idle_sweep = now;
    const auto timeout = std::chrono::milliseconds(config.idle_timeout_ms);
    std::vector<std::uint64_t> victims;
    // lint-allow(unordered-iter): teardown order of idle peers is immaterial
    for (const auto& [token, conn] : conns) {
      // Pending work counts as activity: a connection waiting on its
      // response is not idle.
      if (conn->slots.empty() && conn->outbuf.size() == conn->out_off &&
          now - conn->last_activity > timeout) {
        victims.push_back(token);
      }
    }
    for (const std::uint64_t token : victims) {
      const auto it = conns.find(token);
      if (it == conns.end()) continue;
      stats.connections_idle_closed.fetch_add(1, std::memory_order_relaxed);
      teardown(it->second.get(), /*reset=*/false);
    }
  }

  int run() {
    epoll_event events[256];
    while (true) {
      int timeout_ms = config.idle_timeout_ms > 0 ? 250 : 1000;
      if (draining) {
        if (conns.empty()) return 0;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              drain_deadline - Clock::now())
                              .count();
        if (left <= 0) {
          // Deadline: force-close whatever is still stuck.
          while (!conns.empty()) {
            teardown(conns.begin()->second.get(), /*reset=*/true);
          }
          return 0;
        }
        timeout_ms = static_cast<int>(
            std::min<long long>(left, timeout_ms));
      }

      const int n = ::epoll_wait(epoll_fd, events,
                                 static_cast<int>(std::size(events)),
                                 timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::perror("epoll_wait");
        return 1;
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t token = events[i].data.u64;
        const std::uint32_t ev = events[i].events;
        if (token == kListenerToken) {
          accept_ready();
          continue;
        }
        if (token == kStopToken) {
          std::uint64_t counter = 0;
          (void)!::read(stop_fd, &counter, sizeof(counter));
          begin_drain();
          continue;
        }
        if (token == kWakeToken) {
          drain_completions();
          continue;
        }
        if (token == kReloadToken) {
          std::uint64_t counter = 0;
          (void)!::read(reload_fd, &counter, sizeof(counter));
          // Coalesced: N SIGHUPs before this wakeup reload once. The
          // hook runs on the loop thread — checkpoint loading is
          // millisecond-scale, and in-flight batches are pinned to the
          // generation they started with (registry.h), so traffic
          // neither drops nor mixes generations.
          if (config.on_reload) config.on_reload();
          continue;
        }
        const auto it = conns.find(token);
        if (it == conns.end()) continue;  // closed earlier this batch
        Conn* conn = it->second.get();
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
          const bool reset = !conn->slots.empty() ||
                             conn->outbuf.size() != conn->out_off ||
                             (ev & EPOLLERR) != 0;
          teardown(conn, reset);
          continue;
        }
        if ((ev & EPOLLOUT) != 0) {
          if (!flush(conn)) continue;
        }
        if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) {
          if (!handle_readable(conn)) continue;
        }
      }
      idle_sweep();
    }
  }
};

EventLoopServer::EventLoopServer(InferenceService& service,
                                 const EventLoopConfig& config,
                                 ServerStats& stats)
    : impl_(std::make_unique<Impl>(service, config, stats)) {}

EventLoopServer::~EventLoopServer() = default;

bool EventLoopServer::start(std::string* error) {
  return impl_->start(error);
}

int EventLoopServer::port() const { return impl_->bound_port; }

int EventLoopServer::run() { return impl_->run(); }

void EventLoopServer::request_stop() {
  const std::uint64_t one = 1;
  (void)!::write(impl_->stop_fd, &one, sizeof(one));
}

void EventLoopServer::request_reload() {
  const std::uint64_t one = 1;
  (void)!::write(impl_->reload_fd, &one, sizeof(one));
}

}  // namespace sqvae::serve

#else  // !__linux__

namespace sqvae::serve {

struct EventLoopServer::Impl {};

EventLoopServer::EventLoopServer(InferenceService&, const EventLoopConfig&,
                                 ServerStats&) {}

EventLoopServer::~EventLoopServer() = default;

bool EventLoopServer::start(std::string* error) {
  if (error != nullptr) {
    *error = "the event-loop server requires Linux epoll";
  }
  return false;
}

int EventLoopServer::port() const { return 0; }

int EventLoopServer::run() { return 1; }

void EventLoopServer::request_stop() {}

void EventLoopServer::request_reload() {}

}  // namespace sqvae::serve

#endif  // __linux__
