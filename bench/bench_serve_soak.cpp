// bench_serve_soak: open-loop soak client for the sqvae_serve event loop.
//
// Drives ≥1k concurrent TCP connections against a running server with
// Poisson request arrivals for a wall-clock duration, then verifies the
// full serving contract from the outside:
//
//   * every request got exactly one response, in per-connection request
//     order, all ok — zero shed, zero protocol errors (asserted against
//     the server's own /stats at the end);
//   * the request stream and the (id-sorted) response stream are written
//     to files, so the harness (ci/serve_soak.sh) can replay the requests
//     through `sqvae_serve --reference` and diff byte-for-byte — the
//     determinism contract held under 1k-way concurrency, caching, and
//     micro-batching;
//   * --abrupt N connections are killed with RST mid-stream (SO_LINGER 0)
//     to exercise the dead-peer teardown path; their traffic is excluded
//     from the replay diff.
//
// The client is a single-threaded epoll loop itself (nonblocking sockets,
// per-connection buffers), so a 1-core CI box can drive 1k sockets
// without a thread per connection on *either* side. Requests draw from a
// small payload × seed pool, so repeated keys exercise the response cache
// and in-flight dedup under load.
//
// Exit status: 0 = contract held; 1 = violations (printed); 2 = setup.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/number_text.h"

#ifdef __linux__

#include <arpa/inet.h>
#include <csignal>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>

namespace {

using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  bool abrupt = false;      // killed with RST mid-soak
  bool dead = false;
  std::string inbuf;
  std::string outbuf;       // unsent request bytes
  std::size_t out_off = 0;
  std::deque<std::uint64_t> expected;  // ids awaiting responses, in order
};

struct Arrival {
  std::uint64_t at_us = 0;  // offset from soak start
  std::size_t conn = 0;
  std::uint64_t id = 0;
  std::string line;
};

struct Soak {
  std::vector<Conn> conns;
  int epoll_fd = -1;
  std::uint64_t responses_ok = 0;
  std::uint64_t failures = 0;

  /// id -> response line (normal connections only), for the sorted dump.
  std::map<std::uint64_t, std::string> responses;

  void fail(const std::string& why) {
    ++failures;
    if (failures <= 20) std::fprintf(stderr, "soak: FAIL: %s\n", why.c_str());
  }

  void arm_out(std::size_t index, bool on) {
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = index;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conns[index].fd, &ev);
  }

  void flush(std::size_t index) {
    Conn& conn = conns[index];
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        arm_out(index, true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      if (!conn.abrupt) fail("send failed on a live connection");
      kill_conn(index, /*rst=*/false);
      return;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    arm_out(index, false);
  }

  void kill_conn(std::size_t index, bool rst) {
    Conn& conn = conns[index];
    if (conn.dead) return;
    if (rst) {
      struct linger lg {1, 0};
      ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
    conn.dead = true;
    conn.expected.clear();
  }

  void handle_readable(std::size_t index) {
    Conn& conn = conns[index];
    char buf[16384];
    while (!conn.dead) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.inbuf.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = conn.inbuf.find('\n')) != std::string::npos) {
          handle_line(index, conn.inbuf.substr(0, nl));
          conn.inbuf.erase(0, nl + 1);
        }
        continue;
      }
      if (n == 0) {
        if (!conn.abrupt && !conn.expected.empty()) {
          fail("server closed a connection with responses outstanding");
        }
        kill_conn(index, /*rst=*/false);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (!conn.abrupt) fail("recv failed on a live connection");
      kill_conn(index, /*rst=*/false);
      return;
    }
  }

  void handle_line(std::size_t index, const std::string& line) {
    Conn& conn = conns[index];
    if (conn.abrupt) return;  // excluded from the contract check
    if (conn.expected.empty()) {
      fail("unexpected extra response: " + line.substr(0, 120));
      return;
    }
    const std::uint64_t want = conn.expected.front();
    conn.expected.pop_front();
    const std::string tag = "\"id\": " + std::to_string(want) + ",";
    if (line.find(tag) == std::string::npos) {
      fail("out-of-order response (wanted id " + std::to_string(want) +
           "): " + line.substr(0, 120));
      return;
    }
    if (line.find("\"ok\": true") == std::string::npos) {
      fail("non-ok response: " + line.substr(0, 160));
      return;
    }
    ++responses_ok;
    responses.emplace(want, line);
  }

  std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const Conn& conn : conns) {
      if (!conn.abrupt) n += conn.expected.size();
    }
    return n;
  }
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// One blocking request/response exchange on a fresh connection (used for
/// the final /stats scrape).
std::string query_stats(int port) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  const char* req = "{\"op\": \"stats\"}\n";
  (void)!::send(fd, req, std::strlen(req), MSG_NOSIGNAL);
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
  ::close(fd);
  return line;
}

std::uint64_t stats_field(const std::string& stats, const std::string& key) {
  const std::size_t pos = stats.find("\"" + key + "\": ");
  if (pos == std::string::npos) return ~0ull;
  // The value runs up to the next ',' or '}'.
  std::uint64_t v = ~0ull;
  sqvae::number_text::parse_prefix(stats.data() + pos + key.size() + 4,
                                   stats.data() + stats.size(), &v);
  return v;
}

/// One in-band Prometheus scrape on a fresh connection: reads the
/// multi-line body until its "# EOF" terminator line. Exercises the
/// {"op": "stats", "format": "prometheus"} wire path under post-soak
/// server state; returns the body ("" on any transport failure).
std::string query_stats_prometheus(int port) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  const char* req = "{\"op\": \"stats\", \"format\": \"prometheus\"}\n";
  (void)!::send(fd, req, std::strlen(req), MSG_NOSIGNAL);
  std::string body;
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    body += line + "\n";
    if (line == "# EOF") break;
    line.clear();
  }
  ::close(fd);
  if (line != "# EOF") return "";  // truncated: the terminator never came
  return body;
}

}  // namespace

int main(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_int("port", 0, "sqvae_serve TCP port (required)");
  flags.add_int("conns", 1024, "concurrent connections");
  flags.add_int("abrupt", 8,
                "additional connections killed with RST mid-soak "
                "(dead-peer teardown coverage; excluded from the diff)");
  flags.add_int("seconds", 20, "soak duration");
  flags.add_int("rate", 400, "mean Poisson arrival rate, requests/second");
  flags.add_int("input_dim", 64, "model input dimension for payloads");
  flags.add_int("seed", 1234, "workload generator seed");
  flags.add_string("requests_out", "",
                   "write the (id-sorted) request stream here, for "
                   "--reference replay");
  flags.add_string("responses_out", "",
                   "write the id-sorted response stream here");
  try {
    if (!flags.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  const int port = static_cast<int>(flags.get_int("port"));
  const std::size_t n_conns = static_cast<std::size_t>(flags.get_int("conns"));
  const std::size_t n_abrupt =
      static_cast<std::size_t>(flags.get_int("abrupt"));
  const std::uint64_t seconds =
      static_cast<std::uint64_t>(flags.get_int("seconds"));
  const std::uint64_t rate = static_cast<std::uint64_t>(flags.get_int("rate"));
  const std::size_t input_dim =
      static_cast<std::size_t>(flags.get_int("input_dim"));
  if (port <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  // ---- deterministic workload -------------------------------------------
  // A small payload × seed pool makes repeated cache keys common, and the
  // op mix covers the coalescing (encode/reconstruct) and per-request
  // stochastic (latent_sample) paths.
  std::mt19937_64 rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  std::vector<std::string> payloads;
  for (int p = 0; p < 32; ++p) {
    std::string x = "[";
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    for (std::size_t i = 0; i < input_dim; ++i) {
      if (i > 0) x += ", ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f", dist(rng));
      x += buf;
    }
    x += "]";
    payloads.push_back(std::move(x));
  }

  const std::size_t total_conns = n_conns + n_abrupt;
  std::exponential_distribution<double> inter_arrival(
      static_cast<double>(rate));
  std::uniform_int_distribution<std::size_t> pick_conn(0, total_conns - 1);
  std::uniform_int_distribution<int> pick_payload(0, 31);
  std::uniform_int_distribution<int> pick_seed(0, 7);
  std::uniform_int_distribution<int> pick_op(0, 9);

  std::vector<Arrival> arrivals;
  double t = 0.0;
  std::uint64_t next_id = 1;
  while (true) {
    t += inter_arrival(rng);
    if (t >= static_cast<double>(seconds)) break;
    Arrival a;
    a.at_us = static_cast<std::uint64_t>(t * 1e6);
    a.conn = pick_conn(rng);
    a.id = next_id++;
    const int op = pick_op(rng);
    const std::string seed_str = std::to_string(100 + pick_seed(rng));
    const std::string id_str = std::to_string(a.id);
    if (op < 5) {
      a.line = "{\"op\": \"encode\", \"id\": " + id_str + ", \"seed\": " +
               seed_str + ", \"x\": " + payloads[pick_payload(rng)] + "}\n";
    } else if (op < 9) {
      a.line = "{\"op\": \"reconstruct\", \"id\": " + id_str +
               ", \"seed\": " + seed_str + ", \"x\": " +
               payloads[pick_payload(rng)] + "}\n";
    } else {
      a.line = "{\"op\": \"latent_sample\", \"id\": " + id_str +
               ", \"seed\": " + seed_str + "}\n";
    }
    arrivals.push_back(std::move(a));
  }
  std::fprintf(stderr, "soak: %zu conns (+%zu abrupt), %llu req over %llus\n",
               n_conns, n_abrupt,
               static_cast<unsigned long long>(arrivals.size()),
               static_cast<unsigned long long>(seconds));

  // ---- connect ----------------------------------------------------------
  Soak soak;
  soak.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (soak.epoll_fd < 0) {
    std::perror("epoll_create1");
    return 2;
  }
  soak.conns.resize(total_conns);
  for (std::size_t i = 0; i < total_conns; ++i) {
    Conn& conn = soak.conns[i];
    conn.fd = connect_loopback(port);
    if (conn.fd < 0) {
      std::fprintf(stderr, "soak: connect %zu/%zu failed: %s\n", i,
                   total_conns, std::strerror(errno));
      return 2;
    }
    conn.abrupt = i >= n_conns;
    const int fl = ::fcntl(conn.fd, F_GETFL, 0);
    ::fcntl(conn.fd, F_SETFL, fl | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(soak.epoll_fd, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  // Abrupt connections die at random times in the middle third.
  std::vector<std::uint64_t> kill_at_us(total_conns, ~0ull);
  std::uniform_real_distribution<double> kill_frac(0.33, 0.66);
  for (std::size_t i = n_conns; i < total_conns; ++i) {
    kill_at_us[i] = static_cast<std::uint64_t>(
        kill_frac(rng) * static_cast<double>(seconds) * 1e6);
  }

  // ---- drive ------------------------------------------------------------
  const Clock::time_point start = Clock::now();
  const auto elapsed_us = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
  };
  const std::uint64_t hard_deadline_us = seconds * 1000000ull + 30000000ull;

  std::size_t next_arrival = 0;
  epoll_event events[512];
  while (next_arrival < arrivals.size() || soak.outstanding() > 0) {
    const std::uint64_t now_us = elapsed_us();
    if (now_us > hard_deadline_us) {
      soak.fail(std::to_string(soak.outstanding()) +
                " responses still outstanding at the hard deadline");
      break;
    }

    // Launch every due arrival.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].at_us <= now_us) {
      Arrival& a = arrivals[next_arrival++];
      Conn& conn = soak.conns[a.conn];
      if (conn.dead) continue;  // an abrupt conn already killed
      conn.outbuf += a.line;
      if (!conn.abrupt) conn.expected.push_back(a.id);
      soak.flush(a.conn);
    }
    // Fire due RST kills.
    for (std::size_t i = n_conns; i < total_conns; ++i) {
      if (!soak.conns[i].dead && kill_at_us[i] <= now_us) {
        soak.kill_conn(i, /*rst=*/true);
      }
    }

    int timeout_ms = 50;
    if (next_arrival < arrivals.size()) {
      const std::uint64_t at = arrivals[next_arrival].at_us;
      timeout_ms = at > now_us
                       ? static_cast<int>(std::min<std::uint64_t>(
                             (at - now_us) / 1000 + 1, 50))
                       : 0;
    }
    const int n = ::epoll_wait(soak.epoll_fd, events, 512, timeout_ms);
    for (int e = 0; e < n; ++e) {
      const std::size_t index = static_cast<std::size_t>(events[e].data.u64);
      if (soak.conns[index].dead) continue;
      if ((events[e].events & EPOLLOUT) != 0) soak.flush(index);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        soak.handle_readable(index);
      }
    }
  }

  // ---- verify -----------------------------------------------------------
  const std::string stats = query_stats(port);
  std::fprintf(stderr, "soak: server stats: %s\n", stats.c_str());
  if (stats.empty()) {
    soak.fail("could not scrape /stats after the soak");
  } else {
    if (stats_field(stats, "protocol_errors") != 0) {
      soak.fail("server counted protocol errors");
    }
    if (stats_field(stats, "requests_shed") != 0 ||
        stats_field(stats, "connections_shed") != 0) {
      soak.fail("server shed load (rate too high for this box/lane)");
    }
  }

  // The Prometheus variant must frame correctly over the same socket
  // path (multi-line body, "# EOF" terminator) and agree with the JSON
  // scrape's invariants. Note: under --workers each scrape lands on one
  // kernel-chosen shard, so the two scrapes may describe different
  // shards — assert per-shard invariants, never cross-scrape equality.
  const std::string prom = query_stats_prometheus(port);
  if (prom.empty()) {
    soak.fail("could not scrape the in-band Prometheus stats variant");
  } else {
    if (prom.find("# TYPE sqvae_request_latency_seconds histogram") ==
        std::string::npos) {
      soak.fail("Prometheus scrape lacks the latency histogram family");
    }
    if (prom.find("sqvae_protocol_errors_total{shard=\"") ==
        std::string::npos) {
      soak.fail("Prometheus scrape lacks shard-labelled counters");
    }
  }

  for (std::size_t i = 0; i < total_conns; ++i) {
    if (!soak.conns[i].dead) soak.kill_conn(i, /*rst=*/false);
  }
  ::close(soak.epoll_fd);

  // ---- dump for the replay diff ----------------------------------------
  const std::string requests_out = flags.get_string("requests_out");
  if (!requests_out.empty()) {
    std::ofstream out(requests_out);
    std::vector<const Arrival*> sorted;
    sorted.reserve(arrivals.size());
    for (const Arrival& a : arrivals) {
      if (!soak.conns[a.conn].abrupt) sorted.push_back(&a);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Arrival* x, const Arrival* y) { return x->id < y->id; });
    for (const Arrival* a : sorted) out << a->line;
  }
  const std::string responses_out = flags.get_string("responses_out");
  if (!responses_out.empty()) {
    std::ofstream out(responses_out);
    for (const auto& [id, line] : soak.responses) out << line << '\n';
  }

  std::fprintf(stderr, "soak: %llu ok responses, %llu failure(s)\n",
               static_cast<unsigned long long>(soak.responses_ok),
               static_cast<unsigned long long>(soak.failures));
  if (soak.failures != 0) return 1;
  std::fprintf(stderr, "soak: PASS\n");
  return 0;
}

#else  // !__linux__

int main() {
  std::fprintf(stderr, "bench_serve_soak requires Linux epoll\n");
  return 2;
}

#endif  // __linux__
