// Serving micro-benchmark: per-request dispatch vs micro-batched dispatch
// through the InferenceService, written as JSON (default
// BENCH_serve_micro.json, --json=PATH) for the CI bench-regression gate.
//
// A/B per client count (1, 4, --clients): the same request stream served
// "serial" — one worker, max_batch = 1, i.e. the pre-serving status quo of
// answering one request at a time — vs "micro-batched" — a worker per
// thread of the process budget (common/thread_budget.h) with max_batch =
// --max_batch, so concurrent requests coalesce into shared tapes and
// shared CircuitExecutor::run_batch calls.
// Clients are synchronous (submit, wait for the result, repeat): a single
// client can never coalesce (its row measures pure queue overhead,
// expected ~1.0x), N clients form batches up to N. Reported: p50/p99
// request latency and aggregate throughput.
//
// The speedup is partly hardware-bound (more cores = more workers, each
// running its batches at a team of 1), so the JSON carries
// hardware_threads (the process budget) and ci/bench_gate.py tiers the bar
// like the train gate: the >= 2.0x requirement applies to >= 4-core
// runners; a single-core container only sees the coalescing amortisation
// (shared tape, shared dispatch; ~1.25x measured), which still clears a
// lower bar.
//
// Two further A/B sections (this PR's front-end rework):
//   * event_loop_ab — the epoll EventLoopServer vs a thread-per-connection
//     baseline (reimplemented here; the CLI no longer has one) over real
//     loopback TCP at 64 / 256 / 1024 closed-loop connections. Gated only
//     on >= 4-core runners (on one core both transports serialize onto the
//     same compute and the row mostly measures scheduler overhead);
//     Linux-only (epoll), omitted from the JSON elsewhere.
//   * cache_ab — the same request stream through the InferenceService with
//     the content-addressed response cache off vs on, high key-repeat
//     workload. A hit skips the entire circuit execution, so the >= 2.0x
//     bar holds on any core count.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/thread_budget.h"
#include "serve/event_loop.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "tests/serve_call.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <csignal>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace sqvae;

struct Percentiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

Percentiles percentiles(std::vector<double>& latencies_ms) {
  Percentiles p;
  if (latencies_ms.empty()) return p;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        latencies_ms.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(latencies_ms.size())));
    return latencies_ms[idx];
  };
  p.p50_ms = at(0.50);
  p.p99_ms = at(0.99);
  return p;
}

struct RunStats {
  double rps = 0.0;
  Percentiles latency;
};

/// `clients` synchronous threads, `per_client` reconstruct requests each.
RunStats run_load(serve::ModelRegistry& registry, const serve::ServeConfig& cfg,
                  const std::vector<std::vector<double>>& payloads,
                  int clients, int per_client) {
  serve::InferenceService service(registry, cfg);

  // Warm-up: replica construction must happen outside the timed window on
  // every worker that the timed load will engage. Sequential requests all
  // land on one worker (and with coalescing, one worker can swallow a
  // whole concurrent wave as a single batch), so warm with the same
  // closed-loop shape as the measurement: cfg.threads blocking clients,
  // several requests each, keeping multiple batches in flight.
  {
    std::vector<std::thread> warmers;
    for (int w = 0; w < std::max(cfg.threads, 2); ++w) {
      warmers.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          serve_call::call(service, serve::Endpoint::kReconstruct,
                           payloads[0], 0);
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::vector<double>& x =
            payloads[static_cast<std::size_t>(c + i) % payloads.size()];
        Stopwatch request;
        const serve::InferenceResult result = serve_call::call(
            service, serve::Endpoint::kReconstruct, x,
            static_cast<std::uint64_t>(c) * 1000 +
                static_cast<std::uint64_t>(i));
        mine.push_back(request.seconds() * 1e3);
        if (!result.ok) {
          std::fprintf(stderr, "request failed: %s\n", result.error.c_str());
          std::exit(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.seconds();
  service.shutdown();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  RunStats stats;
  stats.rps = static_cast<double>(clients) *
              static_cast<double>(per_client) / seconds;
  stats.latency = percentiles(all);
  return stats;
}

/// Best-of-N wrapper: container/runner jitter hits a short throughput run
/// hard, so each configuration is measured `reps` times and the run with
/// the highest throughput is reported (the standard bench convention for
/// contended machines — the best run is the least-perturbed one).
RunStats best_of(serve::ModelRegistry& registry, const serve::ServeConfig& cfg,
                 const std::vector<std::vector<double>>& payloads, int clients,
                 int per_client, int reps) {
  RunStats best;
  for (int r = 0; r < reps; ++r) {
    RunStats stats = run_load(registry, cfg, payloads, clients, per_client);
    if (stats.rps > best.rps) best = stats;
  }
  return best;
}

struct AbRow {
  int clients = 0;
  int requests = 0;
  std::size_t max_batch = 0;
  RunStats serial;
  RunStats batched;

  double speedup() const {
    return serial.rps > 0.0 ? batched.rps / serial.rps : 0.0;
  }
};

// ---- cache A/B ------------------------------------------------------------

struct CacheRow {
  int clients = 0;
  int requests = 0;
  int unique_keys = 0;
  double uncached_rps = 0.0;
  double cached_rps = 0.0;
  double hit_rate = 0.0;

  double speedup() const {
    return uncached_rps > 0.0 ? cached_rps / uncached_rps : 0.0;
  }
};

/// Closed-loop clients cycling a small key pool (payload × seed), cache
/// off vs on. The workload repeats keys heavily (CI-shaped traffic:
/// identical probe/replay requests), so the cached side answers most
/// requests from memory.
CacheRow run_cache_ab(serve::ModelRegistry& registry,
                      const std::vector<std::vector<double>>& payloads,
                      int clients, int total_requests, int reps) {
  CacheRow row;
  row.clients = clients;
  row.requests = total_requests;
  const int seeds = 4;
  row.unique_keys = static_cast<int>(payloads.size()) * seeds;
  const int per_client = total_requests / clients;

  const auto run_once = [&](std::size_t cache_bytes, double* hit_rate) {
    serve::ServerStats stats;
    serve::ServeConfig cfg;
    cfg.max_batch = 16;
    cfg.threads = 0;  // the process budget
    cfg.cache_bytes = cache_bytes;
    serve::InferenceService service(registry, cfg, &stats);
    for (int w = 0; w < 4; ++w) {
      serve_call::call(service, serve::Endpoint::kReconstruct, payloads[0], 0);
    }

    std::vector<std::thread> threads;
    Stopwatch wall;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int i = 0; i < per_client; ++i) {
          const int k = (c * per_client + i);
          const auto& x = payloads[static_cast<std::size_t>(k) %
                                   payloads.size()];
          const std::uint64_t seed = static_cast<std::uint64_t>(k % seeds);
          const serve::InferenceResult r = serve_call::call(
              service, serve::Endpoint::kReconstruct, x, seed);
          if (!r.ok) {
            std::fprintf(stderr, "cache A/B request failed: %s\n",
                         r.error.c_str());
            std::exit(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds = wall.seconds();
    service.shutdown();
    if (hit_rate != nullptr) {
      const double hits =
          static_cast<double>(stats.cache_hits.load()) +
          static_cast<double>(stats.cache_inflight_joined.load());
      *hit_rate = hits / static_cast<double>(clients * per_client);
    }
    return static_cast<double>(clients * per_client) / seconds;
  };

  for (int r = 0; r < reps; ++r) {
    row.uncached_rps = std::max(row.uncached_rps, run_once(0, nullptr));
    double hit_rate = 0.0;
    const double rps = run_once(64u << 20, &hit_rate);
    if (rps > row.cached_rps) {
      row.cached_rps = rps;
      row.hit_rate = hit_rate;
    }
  }
  return row;
}

// ---- event-loop A/B (Linux only) ------------------------------------------

struct ElRow {
  int conns = 0;
  int requests = 0;  // total across connections
  double thread_rps = 0.0;
  double epoll_rps = 0.0;

  double speedup() const {
    return thread_rps > 0.0 ? epoll_rps / thread_rps : 0.0;
  }
};

#ifdef __linux__

int listen_loopback(int* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1024) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port_out = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

/// The pre-event-loop baseline, preserved here for the A/B: one blocking
/// handler thread per accepted connection (read line, execute via the
/// shared service, write response). Stopped by closing the listener after
/// all clients hung up.
class ThreadPerConnServer {
 public:
  explicit ThreadPerConnServer(serve::InferenceService& service)
      : service_(service) {}

  bool start() {
    listener_ = listen_loopback(&port_);
    if (listener_ < 0) return false;
    acceptor_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) return;  // listener closed: shutting down
        sq::MutexLock lock(mu_);
        handlers_.emplace_back([this, fd] { handle(fd); });
      }
    });
    return true;
  }

  int port() const { return port_; }

  void stop() {
    ::shutdown(listener_, SHUT_RDWR);
    ::close(listener_);
    acceptor_.join();
    sq::MutexLock lock(mu_);
    for (std::thread& t : handlers_) t.join();
    handlers_.clear();
  }

 private:
  void handle(int fd) {
    std::string inbuf;
    char buf[8192];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      inbuf.append(buf, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = inbuf.find('\n')) != std::string::npos) {
        const std::string line = inbuf.substr(0, nl);
        inbuf.erase(0, nl + 1);
        serve::WireRequest request;
        std::string error;
        if (!serve::parse_request_line(line, &request, &error)) continue;
        const serve::InferenceResult result =
            serve_call::call(service_, request.endpoint, std::move(request.x),
                             request.seed, request.model);
        const std::string out = serve::format_response(request, result) + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
          const ssize_t w =
              ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
          if (w <= 0) break;
          off += static_cast<std::size_t>(w);
        }
      }
    }
    ::close(fd);
  }

  serve::InferenceService& service_;
  int listener_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  sq::Mutex mu_;
  std::vector<std::thread> handlers_;
};

/// Closed-loop load: `conns` connections, each sending `per_conn`
/// requests one at a time (next request only after the previous
/// response), driven by a single epoll thread on the client side.
/// Returns aggregate requests/second (connect time excluded).
double drive_closed_loop(int port, int conns, int per_conn,
                         const std::string& request_line) {
  struct CConn {
    int fd = -1;
    int remaining = 0;
    std::string inbuf;
  };
  std::vector<CConn> cs(static_cast<std::size_t>(conns));
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  for (int i = 0; i < conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::fprintf(stderr, "event-loop A/B: connect failed: %s\n",
                   std::strerror(errno));
      std::exit(1);
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    cs[static_cast<std::size_t>(i)].fd = fd;
    cs[static_cast<std::size_t>(i)].remaining = per_conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(i);
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  }

  // Closed loop: one small request into an empty socket buffer never
  // blocks, so plain blocking sends are safe here.
  const auto send_one = [&](CConn& conn) {
    (void)!::send(conn.fd, request_line.data(), request_line.size(),
                  MSG_NOSIGNAL);
  };

  Stopwatch wall;
  for (CConn& conn : cs) send_one(conn);
  int open = conns;
  epoll_event events[512];
  while (open > 0) {
    const int n = ::epoll_wait(epfd, events, 512, 10000);
    if (n <= 0) {
      std::fprintf(stderr, "event-loop A/B: stalled waiting for responses\n");
      std::exit(1);
    }
    for (int e = 0; e < n; ++e) {
      CConn& conn = cs[static_cast<std::size_t>(events[e].data.u64)];
      if (conn.fd < 0) continue;
      char buf[8192];
      const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (r <= 0) {
        std::fprintf(stderr, "event-loop A/B: connection died mid-run\n");
        std::exit(1);
      }
      conn.inbuf.append(buf, static_cast<std::size_t>(r));
      std::size_t nl;
      while ((nl = conn.inbuf.find('\n')) != std::string::npos) {
        conn.inbuf.erase(0, nl + 1);
        if (--conn.remaining > 0) {
          send_one(conn);
        } else {
          ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
          ::close(conn.fd);
          conn.fd = -1;
          --open;
          break;
        }
      }
    }
  }
  const double seconds = wall.seconds();
  ::close(epfd);
  return static_cast<double>(conns) * static_cast<double>(per_conn) / seconds;
}

std::vector<ElRow> run_event_loop_ab(serve::ModelRegistry& registry,
                                     const std::vector<double>& payload,
                                     int total_requests, int max_conns,
                                     int reps) {
  std::signal(SIGPIPE, SIG_IGN);
  // Both transports execute through an identically configured service; an
  // encode request keeps compute small so the rows contrast the
  // *front ends*, not the model.
  serve::WireRequest request;
  request.op = "encode";
  std::string line = "{\"op\": \"encode\", \"seed\": 1, \"x\": [";
  for (std::size_t i = 0; i < payload.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i > 0 ? ", " : "", payload[i]);
    line += buf;
  }
  line += "]}\n";

  std::vector<ElRow> rows;
  for (int conns : {64, 256, 1024}) {
    if (conns > max_conns) continue;
    ElRow row;
    row.conns = conns;
    const int per_conn = std::max(2, total_requests / conns);
    row.requests = per_conn * conns;
    for (int r = 0; r < reps; ++r) {
      {
        serve::ServeConfig cfg;
        cfg.threads = 0;
        serve::InferenceService service(registry, cfg);
        for (int w = 0; w < 4; ++w) {
          serve_call::call(service, serve::Endpoint::kEncode, payload, 1);
        }
        ThreadPerConnServer server(service);
        if (!server.start()) std::exit(1);
        row.thread_rps = std::max(
            row.thread_rps,
            drive_closed_loop(server.port(), conns, per_conn, line));
        server.stop();
        service.shutdown();
      }
      {
        serve::ServerStats stats;
        serve::ServeConfig cfg;
        cfg.threads = 0;
        cfg.shed_on_full = true;
        serve::InferenceService service(registry, cfg, &stats);
        for (int w = 0; w < 4; ++w) {
          serve_call::call(service, serve::Endpoint::kEncode, payload, 1);
        }
        serve::EventLoopConfig loop_cfg;
        serve::EventLoopServer server(service, loop_cfg, stats);
        std::string error;
        if (!server.start(&error)) {
          std::fprintf(stderr, "%s\n", error.c_str());
          std::exit(1);
        }
        std::thread loop([&] { server.run(); });
        row.epoll_rps = std::max(
            row.epoll_rps,
            drive_closed_loop(server.port(), conns, per_conn, line));
        server.request_stop();
        loop.join();
        service.shutdown();
      }
    }
    rows.push_back(row);
  }
  return rows;
}

#else  // !__linux__

std::vector<ElRow> run_event_loop_ab(serve::ModelRegistry&,
                                     const std::vector<double>&, int, int,
                                     int) {
  std::fprintf(stderr,
               "event_loop_ab skipped: requires Linux epoll "
               "(section omitted from the JSON)\n");
  return {};
}

#endif  // __linux__

void write_json(const std::string& path, const std::vector<AbRow>& rows,
                const std::vector<ElRow>& el_rows, const CacheRow& cache_row,
                int workers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"serve_micro/dispatch_ab\",\n"
      "  \"unit\": \"ms\",\n"
      "  \"description\": \"InferenceService throughput/latency: "
      "single-worker per-request dispatch vs multi-worker micro-batched "
      "dispatch, sq-ae digits model, synchronous clients\",\n"
      "  \"hardware_threads\": %d,\n"
      "  \"workers\": %d,\n"
      "  \"rows\": [\n",
      thread_budget::process_threads(), workers);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AbRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"clients\": %d, \"requests\": %d, \"max_batch\": %zu, "
        "\"serial_rps\": %.2f, \"batched_rps\": %.2f, "
        "\"serial_p50_ms\": %.4f, \"serial_p99_ms\": %.4f, "
        "\"batched_p50_ms\": %.4f, \"batched_p99_ms\": %.4f, "
        "\"speedup\": %.3f}%s\n",
        r.clients, r.requests, r.max_batch, r.serial.rps, r.batched.rps,
        r.serial.latency.p50_ms, r.serial.latency.p99_ms,
        r.batched.latency.p50_ms, r.batched.latency.p99_ms, r.speedup(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (!el_rows.empty()) {
    std::fprintf(
        f,
        "  \"event_loop_ab\": {\n"
        "    \"description\": \"TCP front-end A/B: epoll event loop vs "
        "thread-per-connection baseline, closed-loop connections, encode "
        "requests, shared worker pool\",\n"
        "    \"rows\": [\n");
    for (std::size_t i = 0; i < el_rows.size(); ++i) {
      const ElRow& r = el_rows[i];
      std::fprintf(f,
                   "      {\"conns\": %d, \"requests\": %d, "
                   "\"thread_rps\": %.2f, \"epoll_rps\": %.2f, "
                   "\"speedup\": %.3f}%s\n",
                   r.conns, r.requests, r.thread_rps, r.epoll_rps,
                   r.speedup(), i + 1 < el_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
  }
  std::fprintf(
      f,
      "  \"cache_ab\": {\n"
      "    \"description\": \"Content-addressed response cache off vs on, "
      "closed-loop clients cycling a small payload x seed pool, reconstruct "
      "requests\",\n"
      "    \"rows\": [\n"
      "      {\"clients\": %d, \"requests\": %d, \"unique_keys\": %d, "
      "\"uncached_rps\": %.2f, \"cached_rps\": %.2f, \"hit_rate\": %.3f, "
      "\"speedup\": %.3f}\n"
      "    ]\n  }\n",
      cache_row.clients, cache_row.requests, cache_row.unique_keys,
      cache_row.uncached_rps, cache_row.cached_rps, cache_row.hit_rate,
      cache_row.speedup());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("(json written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::add_common_flags(flags);
  flags.add_string("json", "BENCH_serve_micro.json", "JSON report path");
  flags.add_int("clients", 8, "largest client-thread count in the sweep");
  flags.add_int("max_batch", 16, "micro-batch cap of the batched side");
  flags.add_int("requests", 0,
                "requests per client (0 = auto: 200 small / 600 paper)");
  flags.add_int("reps", 3, "repetitions per configuration (best-of)");
  flags.add_int("el_requests", 4096,
                "event-loop A/B: total requests per connection-count row");
  flags.add_int("el_conns", 1024,
                "event-loop A/B: largest connection count (rows above it "
                "are skipped)");
  flags.add_int("cache_requests", 2048, "cache A/B: total requests");
  if (!bench::parse_or_die(flags, argc, argv)) return 0;
  const bench::BenchScale scale = bench::scale_from_flags(flags);

  // A trained-shape sq-ae on the digits geometry; serving throughput does
  // not depend on the parameter values, so fresh weights snapshot directly.
  serve::ModelSpec spec;
  spec.kind = "sq-ae";
  spec.input_dim = 64;
  spec.patches = 2;
  spec.entangling_layers = 2;
  std::string error;
  std::unique_ptr<models::Autoencoder> model =
      serve::build_model(spec, &error);
  if (model == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  serve::ModelRegistry registry;
  registry.publish("default", serve::LoadedModel::from_model(spec, *model));

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  std::vector<std::vector<double>> payloads(16);
  for (auto& row : payloads) {
    row.resize(spec.input_dim);
    for (double& v : row) v = rng.uniform();
  }

  int per_client = static_cast<int>(flags.get_int("requests"));
  if (per_client <= 0) per_client = scale.paper ? 600 : 200;
  const int max_clients =
      std::max(4, static_cast<int>(flags.get_int("clients")));
  const std::size_t max_batch =
      static_cast<std::size_t>(flags.get_int("max_batch"));
  const int workers = thread_budget::process_threads();

  serve::ServeConfig serial_cfg;
  serial_cfg.max_batch = 1;
  serial_cfg.max_batch_wait_us = 0;
  serial_cfg.threads = 1;  // the one-request-at-a-time status quo
  serve::ServeConfig batched_cfg;
  batched_cfg.max_batch = max_batch;
  batched_cfg.max_batch_wait_us = 0;  // closed-loop clients: see batch_queue.h
  batched_cfg.threads = workers;

  std::vector<int> client_counts = {1, 4};
  if (max_clients != 4 && max_clients != 1) {
    client_counts.push_back(max_clients);
  }

  std::vector<AbRow> rows;
  for (int clients : client_counts) {
    AbRow row;
    row.clients = clients;
    row.requests = per_client;
    row.max_batch = max_batch;
    row.serial = best_of(registry, serial_cfg, payloads, clients, per_client,
                         static_cast<int>(flags.get_int("reps")));
    row.batched = best_of(registry, batched_cfg, payloads, clients, per_client,
                          static_cast<int>(flags.get_int("reps")));
    rows.push_back(row);
  }

  Table table({"clients", "serial_rps", "batched_rps", "serial_p50_ms",
               "batched_p50_ms", "serial_p99_ms", "batched_p99_ms",
               "speedup"});
  for (const AbRow& r : rows) {
    table.add_row({std::to_string(r.clients), Table::fmt(r.serial.rps, 1),
                   Table::fmt(r.batched.rps, 1),
                   Table::fmt(r.serial.latency.p50_ms, 3),
                   Table::fmt(r.batched.latency.p50_ms, 3),
                   Table::fmt(r.serial.latency.p99_ms, 3),
                   Table::fmt(r.batched.latency.p99_ms, 3),
                   Table::fmt(r.speedup(), 3)});
  }
  bench::emit("Serving dispatch A/B (sq-ae, digits geometry)", table, flags);

  const int reps = static_cast<int>(flags.get_int("reps"));
  const std::vector<ElRow> el_rows = run_event_loop_ab(
      registry, payloads[0],
      static_cast<int>(flags.get_int("el_requests")),
      static_cast<int>(flags.get_int("el_conns")), std::min(reps, 2));
  if (!el_rows.empty()) {
    Table el_table({"conns", "requests", "thread_rps", "epoll_rps",
                    "speedup"});
    for (const ElRow& r : el_rows) {
      el_table.add_row({std::to_string(r.conns), std::to_string(r.requests),
                        Table::fmt(r.thread_rps, 1),
                        Table::fmt(r.epoll_rps, 1),
                        Table::fmt(r.speedup(), 3)});
    }
    bench::emit("TCP front-end A/B (epoll vs thread-per-connection)",
                el_table, flags);
  }

  const CacheRow cache_row =
      run_cache_ab(registry, payloads, /*clients=*/4,
                   static_cast<int>(flags.get_int("cache_requests")), reps);
  Table cache_table({"clients", "requests", "unique_keys", "uncached_rps",
                     "cached_rps", "hit_rate", "speedup"});
  cache_table.add_row(
      {std::to_string(cache_row.clients), std::to_string(cache_row.requests),
       std::to_string(cache_row.unique_keys),
       Table::fmt(cache_row.uncached_rps, 1),
       Table::fmt(cache_row.cached_rps, 1), Table::fmt(cache_row.hit_rate, 3),
       Table::fmt(cache_row.speedup(), 3)});
  bench::emit("Response cache A/B (reconstruct, repeated keys)", cache_table,
              flags);

  write_json(flags.get_string("json"), rows, el_rows, cache_row, workers);
  return 0;
}
