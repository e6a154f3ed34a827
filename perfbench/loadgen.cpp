// `load`: the closed-loop load generator of the serving workload.
//
// One process, one poll() thread, kConns TCP connections, each keeping
// kWindow requests in flight: every response releases the next request of
// the same connection. Requests come from plan_request() over the payload
// file, so the request stream depends only on the seed. Every response is
// checked (ok, expected id in per-connection order, expected width, only
// finite numbers); the first kKeep requests of each connection plus every
// 97th are saved for the byte comparison against sqvae_serve --reference.
// The timed interval is cut into kSubWindowS sub-windows, each with its
// host steal share (see bench.h). After it drains, a fixed
// untimed set of kQuality reconstruct and kQuality latent_sample requests
// gives the quality numbers (reconstruction error, share of valid
// molecules), so they depend on the seed only, not on speed.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>

#include "common/flags.h"
#include "bench.h"
#include "models/generation.h"

namespace perfbench {
namespace {

using sqvae::serve::Endpoint;

constexpr double kWarmupS = 1.0;
constexpr double kSubWindowS = 0.5;
// Requests per connection saved for the --reference comparison (plus every
// 97th), and untimed requests per quality endpoint.
constexpr std::uint64_t kKeep = 16;
constexpr std::uint64_t kQuality = 512;

struct Pending {
  std::uint64_t id = 0;
  std::uint64_t j = 0;
  double sent_us = 0.0;
  PlannedRequest req;
  std::string line;  // kept only for sampled requests
  bool quality = false;
};

struct Conn {
  int fd = -1;
  std::size_t index = 0;
  std::uint64_t next_j = 0;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
};

struct Kept {
  std::string request;
  std::string response;
};

struct Answer {
  PlannedRequest req;
  std::string response;
};

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses the number after `"key": ` in a flat JSON line; -1 when absent.
double json_number(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + pat.size(), nullptr);
}

/// The "y" array of an ok response: its text and its value count. False
/// when absent or when any entry is not a finite number.
bool response_values(const std::string& line, std::string* text,
                     std::size_t* count) {
  const std::size_t open = line.find("\"y\": [");
  if (open == std::string::npos) return false;
  const std::size_t begin = open + 6;
  const std::size_t end = line.find(']', begin);
  if (end == std::string::npos) return false;
  std::size_t n = end > begin ? 1 : 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = line[i];
    if (c == ',') {
      ++n;
    } else if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                 c == '-' || c == '+' || c == 'e' || c == ' ')) {
      return false;  // nan, inf or anything else
    }
  }
  *text = line.substr(begin, end - begin);
  *count = n;
  return true;
}

std::vector<double> parse_values(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) break;
    out.push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

bool write_some(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  return true;
}

}  // namespace

int cmd_load(int argc, char** argv) {
  sqvae::Flags flags;
  flags.add_int("port", 0, "server port on 127.0.0.1");
  flags.add_string("payloads", "", "payload file from gen-serve");
  flags.add_int("seed", 1, "workload seed");
  flags.add_double("seconds", 10.0, "nominal measured seconds");
  flags.add_string("out", "", "result JSON path");
  flags.add_string("ref_requests", "", "sampled request lines (output)");
  flags.add_string("ref_responses", "", "their responses (output)");
  flags.add_string("trace_out", "", "Chrome trace of the requests");
  flags.add_bool("storm_wait", true, "go on through a storm of steal");
  if (!flags.parse(argc, argv)) return 0;

  Payloads payloads;
  if (!load_payloads(flags.get_string("payloads"), &payloads)) {
    std::fprintf(stderr, "load: cannot read payloads\n");
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::size_t conns = kConns;
  const double seconds = flags.get_double("seconds");
  const double sub = kSubWindowS;
  const std::size_t input_dim = payloads.features[0].size();
  const std::size_t latent_dim = payloads.latents[0].size();
  const std::size_t rows = payloads.features.size();
  const bool tracing = !flags.get_string("trace_out").empty();

  std::vector<Conn> cs(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    cs[i].index = i;
    cs[i].fd = connect_loopback(static_cast<int>(flags.get_int("port")));
    if (cs[i].fd < 0) {
      std::fprintf(stderr, "load: cannot connect: %s\n", std::strerror(errno));
      return 1;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> latency_ms;
  std::vector<double> latency_window;
  const auto nominal =
      static_cast<std::size_t>(std::ceil(seconds / sub - 1e-9));
  const auto mild_cap =
      static_cast<std::size_t>(std::ceil(kExtend * seconds / sub - 1e-9));
  const double storm_extend =
      flags.get_bool("storm_wait") ? kStormExtend : kExtend;
  const auto cap =
      static_cast<std::size_t>(std::ceil(storm_extend * seconds / sub - 1e-9));
  std::vector<double> window_counts(cap, 0.0);
  std::vector<Kept> kept;
  SpanLog spans(static_cast<int>(conns));
  bool sending = true;

  auto fail = [&](const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  };
  std::vector<Answer> answers;  // quality requests
  auto enqueue = [&](Conn& c, const PlannedRequest& req, bool quality,
                     double now) {
    Pending p;
    p.j = c.next_j++;
    p.id = (static_cast<std::uint64_t>(c.index) << 40) | p.j;
    p.req = req;
    p.quality = quality;
    std::string line = request_line(p.req, p.id, payloads);
    if (p.j < kKeep || p.j % 97 == 0) p.line = line;
    p.sent_us = now;
    c.out += line;
    c.pending.push_back(std::move(p));
    ++attempted;
  };
  auto send_next = [&](Conn& c, double now) {
    enqueue(c, plan_request("mix", c.index, conns, c.next_j, rows, seed),
            false, now);
  };

  const double start = mono_us();
  const double m0 = start + kWarmupS * 1e6;
  double m1 = m0 + static_cast<double>(cap) * sub * 1e6;
  for (Conn& c : cs) {
    for (std::size_t w = 0; w < kWindow; ++w) send_next(c, start);
    if (!write_some(c)) {
      std::fprintf(stderr, "load: send failed\n");
      return 1;
    }
  }

  auto on_response = [&](Conn& c, const std::string& line, double now) {
    if (c.pending.empty()) {
      fail("unexpected response line");
      return;
    }
    Pending p = std::move(c.pending.front());
    c.pending.pop_front();
    // Completions inside the timed interval count toward throughput; the
    // latency of requests also sent inside it is recorded.
    const bool in_interval = now >= m0 && now < m1;
    const bool measured = in_interval && p.sent_us >= m0;
    // Traced runs record spans in odd sub-windows only, so adjacent even
    // ones give the untraced throughput under the same host conditions.
    const std::size_t window =
        in_interval ? static_cast<std::size_t>((now - m0) / (sub * 1e6)) : 0;
    if (tracing && measured && window % 2 == 1) {
      spans.add(static_cast<int>(c.index), "net.request", p.sent_us, now, p.id);
    }
    std::string values;
    std::size_t count = 0;
    if (line.rfind("{\"ok\": true", 0) != 0) {
      fail("not ok: " + line.substr(0, 160));
    } else if (json_number(line, "id") != static_cast<double>(p.id)) {
      fail("out of order: expected id " + std::to_string(p.id));
    } else if (!response_values(line, &values, &count)) {
      fail("non-finite or missing values");
    } else if (count != (p.req.endpoint == Endpoint::kEncode ? latent_dim
                                                             : input_dim)) {
      fail("wrong width " + std::to_string(count));
    } else {
      ++ok;
      if (in_interval) {
        if (window < window_counts.size()) window_counts[window] += 1.0;
        if (measured) {
          latency_ms.push_back((now - p.sent_us) / 1e3);
          latency_window.push_back(static_cast<double>(window));
        }
      }
    }
    if (!p.line.empty()) kept.push_back(Kept{std::move(p.line), line});
    if (p.quality) answers.push_back(Answer{p.req, line});
    if (sending) send_next(c, now);
  };

  std::vector<pollfd> pfds(conns);
  std::vector<char> buf(1 << 16);
  std::vector<double> window_steal;
  CpuTimes window_start{};
  double next_boundary = m0;
  std::size_t clean = 0;
  bool storm_seen = false;
  // Runs until the timed interval is over (when `sending`) and every
  // outstanding request is answered, or the drain deadline passes. The
  // timed interval ends at the first sub-window boundary after the nominal
  // length with at least 1/kKeepOf of the nominal count of clean
  // (low-steal) sub-windows, and at the latest after `mild_cap` sub-windows,
  // or `cap` once a storm of steal was seen (see bench.h).
  auto pump = [&]() -> bool {
    double drain_deadline = sending ? 0.0 : mono_us() + 10e6;
    while (true) {
      double now = mono_us();
      if (sending && now >= next_boundary) {
        const CpuTimes t = read_cpu_times();
        if (next_boundary > m0) {
          window_steal.push_back(steal_share(window_start, t));
          if (window_steal.back() <= kStealLimit) ++clean;
          const std::size_t closed = window_steal.size();
          storm_seen = storm_seen || in_storm(window_steal, 4);  // 2 s
          if ((closed >= nominal && kKeepOf * clean >= nominal) ||
              (closed >= mild_cap && !storm_seen) || closed >= cap) {
            m1 = next_boundary;
          }
        }
        window_start = t;
        next_boundary += sub * 1e6;
      }
      if (sending && now >= m1) {
        sending = false;
        drain_deadline = now + 10e6;
      }
      std::size_t outstanding = 0;
      for (const Conn& c : cs) outstanding += c.pending.size();
      if (!sending && (outstanding == 0 || now > drain_deadline)) return true;
      for (std::size_t i = 0; i < conns; ++i) {
        pfds[i].fd = cs[i].fd;
        pfds[i].events =
            static_cast<short>(POLLIN | (cs[i].out.empty() ? 0 : POLLOUT));
        pfds[i].revents = 0;
      }
      if (poll(pfds.data(), pfds.size(), 5) < 0 && errno != EINTR) {
        return false;
      }
      for (std::size_t i = 0; i < conns; ++i) {
        Conn& c = cs[i];
        if (pfds[i].revents & POLLIN) {
          const ssize_t n = recv(c.fd, buf.data(), buf.size(), 0);
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          if (n <= 0) {
            std::fprintf(stderr, "load: connection %zu closed\n", i);
            return false;
          }
          c.in.append(buf.data(), static_cast<std::size_t>(n));
          now = mono_us();
          std::size_t from = 0;
          std::size_t nl;
          while ((nl = c.in.find('\n', from)) != std::string::npos) {
            on_response(c, c.in.substr(from, nl - from), now);
            from = nl + 1;
          }
          c.in.erase(0, from);
        }
        if (!c.out.empty() && !write_some(c)) {
          std::fprintf(stderr, "load: send failed\n");
          return false;
        }
      }
    }
  };
  if (!pump()) return 1;

  // Untimed quality requests, spread over the connections.
  const std::uint64_t qbase = seed * 1000003ull + (1ull << 40);
  for (std::uint64_t q = 0; q < 2 * kQuality; ++q) {
    PlannedRequest r;
    r.endpoint = q % 2 == 0 ? Endpoint::kReconstruct : Endpoint::kLatentSample;
    r.payload = static_cast<std::size_t>(q % rows);
    r.seed = qbase + q;
    enqueue(cs[q % conns], r, true, mono_us());
  }
  for (Conn& c : cs) {
    if (!write_some(c)) {
      std::fprintf(stderr, "load: send failed\n");
      return 1;
    }
  }
  if (!pump()) return 1;
  for (const Conn& c : cs) {
    for (std::size_t k = 0; k < c.pending.size(); ++k) fail("missing response");
  }

  // Server counters, read over the first connection after the drain.
  std::string stats_line;
  {
    const std::string req = "{\"op\": \"stats\"}\n";
    send(cs[0].fd, req.data(), req.size(), MSG_NOSIGNAL);
    std::string acc = cs[0].in;
    const double give_up = mono_us() + 5e6;
    while (acc.find('\n') == std::string::npos && mono_us() < give_up) {
      pollfd pfd{cs[0].fd, POLLIN, 0};
      if (poll(&pfd, 1, 50) <= 0) continue;
      const ssize_t n = recv(cs[0].fd, buf.data(), buf.size(), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) break;
      if (n > 0) acc.append(buf.data(), static_cast<std::size_t>(n));
    }
    stats_line = acc.substr(0, acc.find('\n'));
  }
  for (Conn& c : cs) close(c.fd);

  // Quality from the untimed requests.
  double se = 0.0;
  std::size_t se_n = 0;
  std::size_t generated = 0;
  std::size_t valid = 0;
  for (const Answer& a : answers) {
    std::string text;
    std::size_t count = 0;
    if (!response_values(a.response, &text, &count)) continue;
    const std::vector<double> y = parse_values(text);
    if (a.req.endpoint == Endpoint::kReconstruct) {
      const std::vector<double>& x = payloads.features[a.req.payload];
      for (std::size_t i = 0; i < y.size() && i < x.size(); ++i) {
        se += (y[i] - x[i]) * (y[i] - x[i]);
      }
      se_n += y.size();
    } else {
      ++generated;
      if (!sqvae::models::decode_sample(y, kMatrixDim).empty()) ++valid;
    }
  }
  std::string ref_req;
  std::string ref_resp;
  for (const Kept& k : kept) {
    ref_req += k.request;
    ref_resp += k.response + "\n";
  }
  if (!write_text(flags.get_string("ref_requests"), ref_req) ||
      !write_text(flags.get_string("ref_responses"), ref_resp)) {
    std::fprintf(stderr, "load: cannot write the sampled lines\n");
    return 1;
  }

  const double requests_shed = json_number(stats_line, "requests_shed");
  const double connections_shed = json_number(stats_line, "connections_shed");
  const double protocol_errors = json_number(stats_line, "protocol_errors");
  if (requests_shed < 0.0 || connections_shed < 0.0 || protocol_errors < 0.0) {
    fail("no stats reply: " + stats_line.substr(0, 160));
  }
  JsonObject out;
  out.integer("attempted", static_cast<long long>(attempted))
      .integer("ok", static_cast<long long>(ok))
      .integer("failed", static_cast<long long>(failed))
      .raw("failures", [&] {
        std::string a = "[";
        for (std::size_t i = 0; i < failures.size(); ++i) {
          a += (i ? ", " : "") + JsonObject().str("m", failures[i]).done();
        }
        return a + "]";
      }())
      .num("sub_window_s", sub)
      .integer("keep_windows",
               static_cast<long long>((nominal + kKeepOf - 1) / kKeepOf))
      .nums("window_counts",
            std::vector<double>(window_counts.begin(),
                                window_counts.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        window_steal.size())))
      .nums("window_steal", window_steal)
      .nums("latency_ms", latency_ms)
      .nums("latency_window", latency_window)
      .num("recon_mse", se_n > 0 ? se / static_cast<double>(se_n) : NAN)
      .integer("generated", static_cast<long long>(generated))
      .integer("valid", static_cast<long long>(valid))
      .integer("reference_lines", static_cast<long long>(kept.size()))
      .num("requests_shed", std::max(0.0, requests_shed))
      .num("connections_shed", std::max(0.0, connections_shed))
      .num("protocol_errors", std::max(0.0, protocol_errors));
  if (tracing &&
      !spans.write_chrome(flags.get_string("trace_out"),
                          JsonObject().str("source", "load").done())) {
    std::fprintf(stderr, "load: cannot write the trace\n");
    return 1;
  }
  if (!write_text(flags.get_string("out"), out.done())) {
    std::fprintf(stderr, "load: cannot write the result\n");
    return 1;
  }
  return 0;
}

}  // namespace perfbench
