// The line-protocol front end and sqvae_serve's stdin/stdout transport
// (serve_stream): ResponseWindow ordering and counting, every response
// byte-equal to the in-process reference and in request order over a
// regular file and over pipes, inline answers overtaking pending ones,
// the request/response/protocol-error counters, and a client that writes
// every request before reading any response (bounded by a deadline, so
// a transport that stops reading fails instead of hanging).
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve_call.h"

namespace {

using namespace sqvae;
using Clock = std::chrono::steady_clock;

// ---- ResponseWindow --------------------------------------------------------

TEST(ResponseWindow, EmitsInSequenceOrderAndCountsFirst) {
  serve::ServerStats stats;
  serve::ResponseWindow window;
  std::string out;
  window.complete(serve::Reply{2, "two"});
  window.complete(serve::Reply{1, "one", /*endpoint=*/0, Clock::now()});
  EXPECT_EQ(window.take_ready(stats, &out), 0u);  // seq 0 still missing
  EXPECT_EQ(out, "");
  EXPECT_EQ(stats.responses_total.load(), 0u);

  window.complete(serve::Reply{0, "zero"});
  EXPECT_EQ(window.take_ready(stats, &out), 3u);
  EXPECT_EQ(out, "zero\none\ntwo\n");
  EXPECT_EQ(window.emitted(), 3u);
  EXPECT_EQ(stats.responses_total.load(), 3u);
  // Only the inference reply is timed.
  EXPECT_EQ(stats.latency.count(), 1u);
  EXPECT_EQ(stats.endpoint[0].latency.count(), 1u);
}

// ---- serve_stream ----------------------------------------------------------

serve::ModelSpec small_sq_ae_spec() {
  serve::ModelSpec spec;
  spec.kind = "sq-ae";
  spec.input_dim = 16;
  spec.patches = 2;
  spec.entangling_layers = 2;
  return spec;
}

std::string payload(std::size_t n, double phase) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < n; ++i) {
    os << (i > 0 ? ", " : "") << 0.5 + 0.4 * std::sin(0.3 * i + phase);
  }
  os << "]";
  return os.str();
}

/// A serving stack over a small sq-ae, as sqvae_serve builds it, plus a
/// private replica for the in-process reference.
struct Stack {
  explicit Stack(const serve::ServeConfig& config) {
    std::string error;
    auto model = serve::build_model(small_sq_ae_spec(), &error);
    loaded = serve::LoadedModel::from_model(small_sq_ae_spec(), *model);
    replica = loaded->make_replica();
    registry.publish("default", loaded);
    service = std::make_unique<serve::InferenceService>(registry, config,
                                                        &stats);
  }

  /// The byte-exact response the in-process reference gives to `line`.
  std::string reference(const std::string& line) {
    serve::WireRequest request;
    std::string error;
    if (!serve::parse_request_line(line, &request, &error)) {
      return serve::format_parse_error(error);
    }
    return serve::format_response(
        request, serve::execute_single(*loaded, *replica, request.endpoint,
                                       request.x, request.seed));
  }

  std::shared_ptr<const serve::LoadedModel> loaded;
  std::unique_ptr<models::Autoencoder> replica;
  serve::ModelRegistry registry;
  serve::ServerStats stats;
  std::unique_ptr<serve::InferenceService> service;
};

/// Runs serve_stream over pipes: writes `input` (all of it, before
/// reading anything, within `deadline`), then reads the output to EOF.
/// Returns the output; `*wrote_all` says whether the input went through
/// before the deadline.
std::string serve_over_pipes(Stack& stack, const std::string& input,
                             Clock::time_point deadline, bool* wrote_all) {
  int in[2];
  int out[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_EQ(::pipe(out), 0);
  std::thread server([&] {
    serve::serve_stream(*stack.service, stack.stats, in[0], out[1]);
    ::close(out[1]);
  });

  // The client's end is non-blocking so the deadline holds even when
  // the server stops reading.
  ::fcntl(in[1], F_SETFL, ::fcntl(in[1], F_GETFL) | O_NONBLOCK);
  std::size_t off = 0;
  while (off < input.size() && Clock::now() < deadline) {
    pollfd ready{in[1], POLLOUT, 0};
    if (::poll(&ready, 1, 100) <= 0) continue;
    const ssize_t n = ::write(in[1], input.data() + off, input.size() - off);
    if (n > 0) off += static_cast<std::size_t>(n);
  }
  *wrote_all = off == input.size();
  ::close(in[1]);  // EOF (early, on a missed deadline) ends the stream

  std::string output;
  char buf[65536];
  for (ssize_t n; (n = ::read(out[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) output.append(buf, static_cast<std::size_t>(n));
    if (n < 0 && errno != EINTR) break;
  }
  server.join();
  ::close(in[0]);
  ::close(out[0]);
  return output;
}

/// Runs serve_stream from one regular file into another.
std::string serve_over_files(Stack& stack, const std::string& input) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string stem = "serve_stream_test." + std::to_string(::getpid());
  const std::filesystem::path in_path = dir / (stem + ".in");
  const std::filesystem::path out_path = dir / (stem + ".out");
  std::ofstream(in_path, std::ios::binary) << input;
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0600);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  serve::serve_stream(*stack.service, stack.stats, in_fd, out_fd);
  ::close(in_fd);
  ::close(out_fd);
  std::ostringstream output;
  output << std::ifstream(out_path, std::ios::binary).rdbuf();
  std::filesystem::remove(in_path);
  std::filesystem::remove(out_path);
  return output.str();
}

/// A blank line, a parse error, two stats requests, and inference
/// requests whose replies arrive out of order: one worker holds the first
/// reconstruct open until the second one joins its batch, while the
/// encode in between is a cache hit answered inline.
void check_mixed_stream(bool pipes) {
  serve::ServeConfig config;
  config.threads = 1;
  config.max_batch = 2;
  config.max_batch_wait_us = 10'000'000;
  config.cache_bytes = 1 << 20;
  Stack stack(config);
  const std::string hot = payload(16, 0.0);
  std::vector<double> hot_x;
  {
    serve::WireRequest warm;
    std::string error;
    ASSERT_TRUE(serve::parse_request_line(
        "{\"op\": \"encode\", \"x\": " + hot + "}", &warm, &error));
    hot_x = warm.x;
  }
  // Two warm-up encodes fill one batch at once (a lone one would wait out
  // the straggler window); seed 7's answer is now cached.
  serve_call::Pending warm(*stack.service, "default",
                           serve::Endpoint::kEncode, hot_x, 7);
  serve_call::Pending filler(*stack.service, "default",
                             serve::Endpoint::kEncode, hot_x, 8);
  ASSERT_TRUE(warm.wait().ok && filler.wait().ok);

  const std::vector<std::string> inference = {
      "{\"op\": \"reconstruct\", \"id\": 1, \"seed\": 11, \"x\": " +
          payload(16, 1.0) + "}",
      "{\"op\": \"encode\", \"id\": 2, \"seed\": 7, \"x\": " + hot + "}",
      "{\"op\": \"reconstruct\", \"id\": 4, \"seed\": 12, \"x\": " +
          payload(16, 2.0) + "}",
  };
  const std::string input =
      "\n"
      "not json\n" +
      inference[0] + "\n" + inference[1] +
      "\n"
      "{\"op\": \"stats\", \"id\": 3}\n"
      "{\"op\": \"stats\", \"format\": \"prometheus\"}\n" +
      inference[2] + "\n";

  bool wrote_all = true;
  const std::string output =
      pipes ? serve_over_pipes(stack, input,
                               Clock::now() + std::chrono::seconds(60),
                               &wrote_all)
            : serve_over_files(stack, input);
  ASSERT_TRUE(wrote_all);

  std::istringstream lines(output);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, stack.reference("not json"));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, stack.reference(inference[0]));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, stack.reference(inference[1]));

  // Stats render when their line is handled: four lines counted so far.
  ASSERT_TRUE(std::getline(lines, line));
  for (const char* key : {"\"id\": 3", "\"requests_total\": 4",
                          "\"protocol_errors\": 1", "\"cache_hits\": 1"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << "\n" << line;
  }
  std::string prometheus;
  while (std::getline(lines, line) && line != "# EOF") {
    prometheus += line + "\n";
  }
  EXPECT_EQ(line, "# EOF");
  EXPECT_NE(prometheus.find("sqvae_requests_total{shard=\"0\"} 5\n"),
            std::string::npos);

  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, stack.reference(inference[2]));
  EXPECT_FALSE(std::getline(lines, line)) << "unexpected: " << line;

  const serve::ServerStats& stats = stack.stats;
  EXPECT_EQ(stats.requests_total.load(), 6u);
  EXPECT_EQ(stats.responses_total.load(), 6u);
  EXPECT_EQ(stats.protocol_errors.load(), 1u);
  EXPECT_EQ(stats.cache_hits.load(), 1u);
  EXPECT_EQ(stats.endpoint[static_cast<int>(serve::Endpoint::kReconstruct)]
                .requests.load(),
            2u);
  EXPECT_EQ(stats.latency.count(), 3u);
}

TEST(ServeStream, RegularFileAnswersInOrder) { check_mixed_stream(false); }

TEST(ServeStream, PipeAnswersInOrder) { check_mixed_stream(true); }

TEST(ServeStream, ClientMayWriteEverythingBeforeReading) {
  // More than four times a pipe buffer each way: the transport must keep
  // reading requests while its output pipe is full.
  serve::ServeConfig config;
  config.threads = 2;
  Stack stack(config);
  std::vector<std::string> requests;
  std::string input;
  for (int i = 0; i < 768; ++i) {
    requests.push_back("{\"op\": \"reconstruct\", \"id\": " +
                       std::to_string(i) + ", \"seed\": " +
                       std::to_string(i) + ", \"x\": " +
                       payload(16, 0.01 * i) + "}");
    input += requests.back() + "\n";
  }

  bool wrote_all = false;
  const std::string output = serve_over_pipes(
      stack, input, Clock::now() + std::chrono::seconds(60), &wrote_all);
  ASSERT_TRUE(wrote_all) << "the transport stopped reading its input";
  EXPECT_GE(output.size(), 256u << 10);

  std::istringstream lines(output);
  std::string line;
  for (const std::string& request : requests) {
    ASSERT_TRUE(std::getline(lines, line));
    ASSERT_EQ(line, stack.reference(request));
  }
  EXPECT_FALSE(std::getline(lines, line));
  EXPECT_EQ(stack.stats.requests_total.load(), requests.size());
  EXPECT_EQ(stack.stats.responses_total.load(), requests.size());
  EXPECT_EQ(stack.stats.protocol_errors.load(), 0u);
}

}  // namespace
