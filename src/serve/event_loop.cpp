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
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "serve/frontend.h"
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

/// Largest output-buffer capacity a drained connection keeps: about a
/// dozen 1024-value replies (~20 KiB each), more than a pipelining client
/// with 8 requests in flight gets at once. A smaller floor would release
/// and regrow the buffer on the loop thread after most such bursts,
/// delaying every reply queued behind it.
constexpr std::size_t kOutbufKeepBytes = 256u << 10;

constexpr const char* kOverloadedConnLine =
    "{\"ok\": false, \"error\": \"overloaded: connection limit reached\"}\n";

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

struct Conn {
  int fd = -1;
  std::uint64_t token = 0;
  std::string inbuf;
  ResponseWindow window;
  /// Posts replies to the loop thread by token: the connection may be
  /// gone by the time a worker delivers.
  Deliver deliver;
  std::uint64_t next_seq = 0;  // of the next request line
  std::string outbuf;
  std::size_t out_off = 0;
  Clock::time_point last_activity{};
  bool want_write = false;        // EPOLLOUT armed
  bool input_closed = false;      // no further input is parsed
  bool peer_half_closed = false;  // read EOF; flush, then close
  bool close_after_flush = false; // fatal protocol error; flush, then close
  bool paused = false;            // output backlog: input parsing paused

  /// Requests whose responses have not been emitted yet.
  bool pending() const { return window.emitted() != next_seq; }
};

struct Completion {
  std::uint64_t token = 0;
  Reply reply;
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
      conn->deliver = [impl = this, token = conn->token](Reply reply) {
        {
          sq::MutexLock lock(impl->completions_mu);
          impl->completions.push_back(Completion{token, std::move(reply)});
        }
        const std::uint64_t one = 1;
        (void)!::write(impl->wake_fd, &one, sizeof(one));
      };
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
        if (!conn->pending() && conn->outbuf.size() == conn->out_off) {
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

  /// Dispatches the complete lines of the input buffer. Returns false if
  /// the connection was torn down.
  bool process_inbuf(Conn* conn) {
    if (conn->input_closed) return flush(conn);
    handle_request_lines(service, stats, config.shard, &conn->inbuf,
                         &conn->next_seq, conn->deliver);
    if (conn->inbuf.size() > config.max_line_bytes) {
      // A frame larger than the cap can never complete: answer with one
      // protocol error after every earlier response, then close.
      stats.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn->window.complete(
          Reply{conn->next_seq++,
                format_parse_error("request line exceeds " +
                                   std::to_string(config.max_line_bytes) +
                                   " bytes")});
      conn->inbuf.clear();
      conn->input_closed = true;
      conn->close_after_flush = true;
    }
    return flush(conn);
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

  /// Moves the window's ready prefix into the output buffer and writes
  /// as much as the socket accepts. Returns false if the connection was
  /// torn down.
  bool flush(Conn* conn) {
    conn->window.take_ready(stats, &conn->outbuf);

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
      // Keep the buffer of a steady reply stream; give back what a burst
      // grew it to.
      if (conn->outbuf.capacity() > kOutbufKeepBytes) {
        std::string().swap(conn->outbuf);
      }
      arm_write(conn, false);
      if ((conn->close_after_flush || conn->peer_half_closed || draining) &&
          !conn->pending()) {
        teardown(conn, /*reset=*/false);
        return false;
      }
    }

    if (conn->out_off > conn->outbuf.size() / 2) {
      // Most of the buffer is on the wire: drop it, so replies queued
      // behind a slow reader reuse its room instead of growing it.
      conn->outbuf.erase(0, conn->out_off);
      conn->out_off = 0;
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
      conn->window.complete(std::move(completion.reply));
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
      if (!conn->pending() && conn->outbuf.size() == conn->out_off &&
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
          const bool reset = conn->pending() ||
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
