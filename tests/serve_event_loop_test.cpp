// EventLoopServer: incremental framing over real sockets (byte-at-a-time
// and coalesced request streams parse identically), response ordering,
// the /stats endpoint, connection-limit admission, cache integration over
// TCP, the mid-write disconnect regression (a peer that dies while its
// response is being written must tear down with stats accounting, never
// wedge the loop), and graceful drain.
#include <gtest/gtest.h>

#ifdef __linux__

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/event_loop.h"
#include "serve/loaded_model.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/stats.h"

namespace {

using namespace sqvae;

/// Blocking line-oriented test client over a real TCP socket.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  void send_byte_at_a_time(const std::string& bytes) {
    for (char c : bytes) send_all(std::string(1, c));
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Closes with SO_LINGER(0): the kernel sends RST instead of FIN — the
  /// abrupt-death shape of a crashed client.
  void reset() {
    struct linger lg {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

  /// Reads until `lines` full lines arrived or the peer closed.
  std::vector<std::string> read_lines(std::size_t lines) {
    std::vector<std::string> out;
    std::string buf;
    char chunk[4096];
    while (out.size() < lines) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while (out.size() < lines && (nl = buf.find('\n')) != std::string::npos) {
        out.push_back(buf.substr(0, nl));
        buf.erase(0, nl + 1);
      }
    }
    return out;
  }

  /// True when the peer has closed (a clean EOF arrives).
  bool read_eof() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::signal(SIGPIPE, SIG_IGN);
    spec_.kind = "sq-ae";
    spec_.input_dim = 16;
    spec_.patches = 2;
    spec_.entangling_layers = 2;
    std::string error;
    model_ = serve::build_model(spec_, &error);
    ASSERT_NE(model_, nullptr) << error;
    registry_.publish("default",
                      serve::LoadedModel::from_model(spec_, *model_));
  }

  /// Starts the service and the loop (ephemeral port) with the given
  /// configs; the loop runs on its own thread until stop_server().
  void start_server(serve::ServeConfig config = {},
                    serve::EventLoopConfig loop_config = {}) {
    config.threads = 2;
    config.shed_on_full = true;  // the loop must never block in submit
    service_ =
        std::make_unique<serve::InferenceService>(registry_, config, &stats_);
    server_ = std::make_unique<serve::EventLoopServer>(*service_, loop_config,
                                                       stats_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    ASSERT_GT(server_->port(), 0);
    loop_thread_ = std::thread([this] { loop_status_ = server_->run(); });
  }

  void stop_server() {
    if (server_ != nullptr && loop_thread_.joinable()) {
      server_->request_stop();
      loop_thread_.join();
    }
    if (service_ != nullptr) service_->shutdown();
  }

  void TearDown() override {
    stop_server();
    service_.reset();  // workers joined above; now safe to drop the server
    server_.reset();
  }

  std::string request_line(int id, std::uint64_t seed) const {
    std::string x = "[";
    for (std::size_t i = 0; i < spec_.input_dim; ++i) {
      if (i > 0) x += ", ";
      x += std::to_string(0.1 + 0.05 * static_cast<double>(i));
    }
    x += "]";
    return "{\"op\": \"encode\", \"id\": " + std::to_string(id) +
           ", \"seed\": " + std::to_string(seed) + ", \"x\": " + x + "}\n";
  }

  /// Polls /stats over a fresh connection until `pred` holds (or 5s).
  template <typename Pred>
  bool stats_eventually(Pred pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  serve::ModelSpec spec_;
  std::unique_ptr<models::Autoencoder> model_;
  serve::ModelRegistry registry_;
  serve::ServerStats stats_;
  std::unique_ptr<serve::InferenceService> service_;
  std::unique_ptr<serve::EventLoopServer> server_;
  std::thread loop_thread_;
  int loop_status_ = -1;
};

TEST_F(EventLoopTest, ByteAtATimeAndCoalescedFramingParseIdentically) {
  start_server();

  // Shape A: one connection trickles two requests a byte at a time —
  // every read ends mid-frame.
  Client trickle(server_->port());
  ASSERT_TRUE(trickle.connected());
  trickle.send_byte_at_a_time(request_line(1, 42) + request_line(2, 43));
  trickle.shutdown_write();
  const std::vector<std::string> slow = trickle.read_lines(2);

  // Shape B: another coalesces the same two requests into a single send.
  Client bulk(server_->port());
  ASSERT_TRUE(bulk.connected());
  bulk.send_all(request_line(1, 42) + request_line(2, 43));
  bulk.shutdown_write();
  const std::vector<std::string> fast = bulk.read_lines(2);

  ASSERT_EQ(slow.size(), 2u);
  EXPECT_NE(slow[0].find("\"ok\": true"), std::string::npos) << slow[0];
  EXPECT_NE(slow[0].find("\"id\": 1"), std::string::npos);
  EXPECT_NE(slow[1].find("\"id\": 2"), std::string::npos);
  // Same requests, same model: byte-identical responses regardless of how
  // the bytes were segmented.
  EXPECT_EQ(slow, fast);

  // Half-closed peers (FIN sent after the last request) received all
  // responses and then got a clean close.
  EXPECT_TRUE(trickle.read_eof());
}

TEST_F(EventLoopTest, ResponsesArriveInRequestOrder) {
  start_server();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) burst += request_line(i, i);
  client.send_all(burst);
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_lines(kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_NE(lines[i].find("\"id\": " + std::to_string(i) + ","),
              std::string::npos)
        << "out of order at " << i << ": " << lines[i];
  }
}

TEST_F(EventLoopTest, StatsEndpointReportsCounters) {
  start_server();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all(request_line(1, 7));
  ASSERT_EQ(client.read_lines(1).size(), 1u);
  client.send_all("{\"op\": \"stats\", \"id\": 99}\n");
  const std::vector<std::string> lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& s = lines[0];
  EXPECT_NE(s.find("\"ok\": true"), std::string::npos) << s;
  EXPECT_NE(s.find("\"id\": 99"), std::string::npos);
  EXPECT_NE(s.find("\"connections_active\": 1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"requests_total\": 2"), std::string::npos) << s;
  EXPECT_NE(s.find("\"responses_total\": 1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"latency_count\": 1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(s.find("\"registry_generation\""), std::string::npos);
  EXPECT_NE(s.find("\"latency_p99_us\""), std::string::npos);
}

TEST_F(EventLoopTest, MalformedLinesGetErrorsAndAreCounted) {
  start_server();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all("this is not json\n\n{\"op\": \"nope\"}\n" +
                  request_line(5, 1));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);  // blank line skipped, no response for it
  EXPECT_NE(lines[0].find("\"ok\": false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("unknown op"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"ok\": true"), std::string::npos) << lines[2];
  EXPECT_GE(stats_.protocol_errors.load(), 2u);
}

TEST_F(EventLoopTest, OversizedFrameClosesAfterEarlierResponses) {
  // The frame-size error is the connection's last line: every request
  // before the oversized frame is answered first, in order.
  serve::EventLoopConfig loop_config;
  loop_config.max_line_bytes = 1024;
  start_server({}, loop_config);
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all(request_line(1, 1) + "not json\n" + std::string(4096, 'x'));
  const std::vector<std::string> lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\": 1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"ok\": false"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("exceeds 1024 bytes"), std::string::npos)
      << lines[2];
  EXPECT_TRUE(client.read_eof());
}

TEST_F(EventLoopTest, ConnectionLimitShedsWithOverloadedLine) {
  serve::EventLoopConfig loop_config;
  loop_config.max_conns = 1;
  start_server({}, loop_config);

  Client first(server_->port());
  ASSERT_TRUE(first.connected());
  // The admitted connection must be registered before the second attempt.
  ASSERT_TRUE(stats_eventually(
      [&] { return stats_.connections_accepted.load() >= 1; }));

  Client second(server_->port());
  ASSERT_TRUE(second.connected());
  const std::vector<std::string> lines = second.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("overloaded"), std::string::npos) << lines[0];
  EXPECT_TRUE(second.read_eof());
  EXPECT_GE(stats_.connections_shed.load(), 1u);

  // The admitted connection still serves.
  first.send_all(request_line(1, 1));
  EXPECT_EQ(first.read_lines(1).size(), 1u);
}

TEST_F(EventLoopTest, CachedRepeatsAreByteIdenticalOverTcp) {
  serve::ServeConfig config;
  config.cache_bytes = 1 << 20;
  start_server(config);

  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all(request_line(1, 42) + request_line(1, 42) +
                  request_line(1, 42));
  client.shutdown_write();
  const std::vector<std::string> lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], lines[1]);
  EXPECT_EQ(lines[1], lines[2]);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
  // At least one of the repeats was answered from the cache or joined the
  // in-flight owner (scheduling decides the exact split).
  EXPECT_GE(stats_.cache_hits.load() + stats_.cache_inflight_joined.load(),
            1u);
}

// The regression this PR guards: a peer that vanishes mid-conversation
// (RST while responses are queued) must tear its connection down with
// stats accounting — the old thread-per-connection writer could sit in a
// blocking write to the dead socket.
TEST_F(EventLoopTest, PeerResetMidStreamTearsDownAndServerKeepsServing) {
  start_server();

  {
    Client doomed(server_->port());
    ASSERT_TRUE(doomed.connected());
    // Queue a pile of requests, then RST without reading a byte: the
    // responses land on a dead socket.
    std::string burst;
    for (int i = 0; i < 16; ++i) burst += request_line(i, i);
    doomed.send_all(burst);
    doomed.reset();
  }

  // The loop notices (EPOLLERR/EPOLLHUP or a failed write) and accounts
  // the teardown; late worker completions for the dead token are dropped.
  ASSERT_TRUE(stats_eventually([&] {
    return stats_.connections_closed.load() >= 1 &&
           stats_.connections_active.load() == 0;
  })) << "closed=" << stats_.connections_closed.load()
      << " active=" << stats_.connections_active.load();

  // The loop is alive and a new connection serves normally.
  Client survivor(server_->port());
  ASSERT_TRUE(survivor.connected());
  survivor.send_all(request_line(1, 1));
  const std::vector<std::string> lines = survivor.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
}

TEST_F(EventLoopTest, IdleConnectionsAreReaped) {
  serve::EventLoopConfig loop_config;
  loop_config.idle_timeout_ms = 300;
  start_server({}, loop_config);

  Client idler(server_->port());
  ASSERT_TRUE(idler.connected());
  // No traffic: the sweep closes it within ~timeout + sweep period.
  EXPECT_TRUE(idler.read_eof());
  EXPECT_TRUE(stats_eventually(
      [&] { return stats_.connections_idle_closed.load() >= 1; }));
}

TEST_F(EventLoopTest, GracefulDrainFlushesInFlightResponses) {
  start_server();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  client.send_all(request_line(1, 5));
  // Wait until the request is parsed (drain discards *unparsed* input),
  // then stop while it is still queued or executing: the drain contract
  // says its response is computed, flushed, and the connection closed
  // before run() returns.
  ASSERT_TRUE(
      stats_eventually([&] { return stats_.requests_total.load() >= 1; }));
  server_->request_stop();
  const std::vector<std::string> lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
  EXPECT_TRUE(client.read_eof());
  loop_thread_.join();
  EXPECT_EQ(loop_status_, 0);
  EXPECT_EQ(stats_.connections_active.load(), 0u);
}

}  // namespace

#else  // !__linux__

TEST(EventLoopTest, SkippedOnNonLinux) {
  GTEST_SKIP() << "EventLoopServer requires Linux epoll";
}

#endif  // __linux__
