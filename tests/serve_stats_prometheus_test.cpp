// Prometheus exposition compliance and LatencyHistogram bound/percentile
// contracts: exact HELP/TYPE framing, label escaping, cumulative bucket
// monotonicity with honest le bounds, the "# EOF" in-band terminator, the
// per-endpoint breakdown in both wire formats, both renderings pinned
// byte for byte (tests/golden/), and docs/OPERATIONS.md's metric table
// against the families actually emitted. Thread-free on purpose — format
// compliance needs no concurrency.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "prometheus_text.h"
#include "serve/batch_queue.h"
#include "serve/stats.h"

namespace {

using namespace sqvae;
using serve::LatencyHistogram;
using serve::ServerStats;

// ---- LatencyHistogram bounds and percentiles ------------------------------

TEST(LatencyHistogramTest, BucketUpperBoundsAreInclusivePowerOfTwoEdges) {
  // Bucket 0 holds {0, 1}us; bucket b >= 1 holds [2^b, 2^(b+1)) us, so
  // the inclusive integer upper bound is 2^(b+1) - 1.
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(1), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(3), 15u);
  EXPECT_EQ(LatencyHistogram::bucket_upper_us(10), 2047u);
  // A sample exactly at a bound lands in the bucket whose bound it is.
  LatencyHistogram h;
  h.record_us(15);
  EXPECT_EQ(h.bucket_count(3), 1u);
  h.record_us(16);
  EXPECT_EQ(h.bucket_count(4), 1u);
}

TEST(LatencyHistogramTest, RecordPlacesSamplesInLog2Buckets) {
  LatencyHistogram h;
  h.record_us(0);
  h.record_us(1);
  EXPECT_EQ(h.bucket_count(0), 2u);
  h.record_us(2);
  h.record_us(3);
  EXPECT_EQ(h.bucket_count(1), 2u);
  h.record_us(1000);  // [512, 1024) -> bucket 9
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_us(), 0u + 1 + 2 + 3 + 1000);
}

TEST(LatencyHistogramTest, PercentileInterpolatesInsideTrueBounds) {
  LatencyHistogram h;
  // 1000 samples of 100us all land in bucket 6 = [64, 128). Every
  // percentile estimate must stay inside that bucket — the old
  // implementation interpolated in [32, 64) and reported a 2x
  // underestimate for mid-bucket samples.
  for (int i = 0; i < 1000; ++i) h.record_us(100);
  for (double q : {0.01, 0.50, 0.99}) {
    const double p = h.percentile_us(q);
    EXPECT_GE(p, 64.0) << "q=" << q;
    EXPECT_LE(p, 128.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, PercentileSpansDistinctBuckets) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record_us(10);    // bucket 3: [8, 16)
  for (int i = 0; i < 10; ++i) h.record_us(5000);  // bucket 12: [4096, 8192)
  const double p50 = h.percentile_us(0.50);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 16.0);
  const double p99 = h.percentile_us(0.99);
  EXPECT_GE(p99, 4096.0);
  EXPECT_LE(p99, 8192.0);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_us(0.50), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_us(), 0u);
}

// ---- label escaping -------------------------------------------------------

TEST(PrometheusEscapeTest, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(serve::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(serve::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(serve::prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(serve::prometheus_escape_label("a\nb"), "a\\nb");
}

// ---- the validator itself (sanity: it must reject real violations) --------

TEST(ValidatorTest, AcceptsMinimalFamily) {
  const std::string body =
      "# HELP x_total Things.\n# TYPE x_total counter\nx_total 3\n";
  EXPECT_EQ(prom_test::validate_prometheus_text(body), "");
}

TEST(ValidatorTest, RejectsSampleWithoutType) {
  EXPECT_NE(prom_test::validate_prometheus_text("x_total 3\n"), "");
}

TEST(ValidatorTest, RejectsNonMonotonicHistogram) {
  const std::string body =
      "# HELP h Hist.\n# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
  EXPECT_NE(prom_test::validate_prometheus_text(body), "");
}

TEST(ValidatorTest, RejectsHistogramCountMismatch) {
  const std::string body =
      "# HELP h Hist.\n# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
  EXPECT_NE(prom_test::validate_prometheus_text(body), "");
}

TEST(ValidatorTest, RejectsBadLabelEscape) {
  const std::string body =
      "# HELP x_total T.\n# TYPE x_total counter\n"
      "x_total{a=\"b\\tc\"} 1\n";
  EXPECT_NE(prom_test::validate_prometheus_text(body), "");
}

// ---- the real renderer against the validator ------------------------------

/// A ServerStats populated across every counter class so the render
/// exercises non-zero paths.
void populate(ServerStats* stats) {
  stats->connections_accepted = 7;
  stats->connections_active = 2;
  stats->connections_closed = 5;
  stats->connections_reset = 3;
  stats->connections_shed = 4;
  stats->connections_idle_closed = 6;
  stats->requests_total = 40;
  stats->responses_total = 39;
  stats->protocol_errors = 1;
  stats->requests_shed = 8;
  stats->cache_hits = 10;
  stats->cache_misses = 30;
  stats->cache_inflight_joined = 9;
  stats->cache_evictions = 11;
  stats->cache_bytes = 4096;
  stats->cache_entries = 12;
  for (int i = 0; i < 20; ++i) stats->latency.record_us(100 + i);
  const int encode = static_cast<int>(serve::Endpoint::kEncode);
  const int recon = static_cast<int>(serve::Endpoint::kReconstruct);
  stats->endpoint[encode].requests = 25;
  stats->endpoint[encode].errors = 1;
  for (int i = 0; i < 25; ++i) stats->endpoint[encode].latency.record_us(80);
  stats->endpoint[recon].requests = 15;
  for (int i = 0; i < 15; ++i) {
    stats->endpoint[recon].latency.record_us(9000);
  }
}

TEST(RenderPrometheusTest, PassesTextFormatValidator) {
  ServerStats stats;
  populate(&stats);
  const std::string body =
      serve::render_stats_prometheus(stats, /*queue_depth=*/3,
                                     /*registry_generation=*/2, /*shard=*/1);
  EXPECT_EQ(prom_test::validate_prometheus_text(body), "") << body;
}

TEST(RenderPrometheusTest, ExactFramingAndShardLabels) {
  ServerStats stats;
  populate(&stats);
  const std::string body = serve::render_stats_prometheus(stats, 3, 2, 1);

  // HELP precedes TYPE precedes the sample, verbatim.
  const std::string help = "# HELP sqvae_requests_total ";
  const std::string type = "# TYPE sqvae_requests_total counter\n";
  const std::string sample = "sqvae_requests_total{shard=\"1\"} 40\n";
  const std::size_t help_at = body.find(help);
  const std::size_t type_at = body.find(type);
  const std::size_t sample_at = body.find(sample);
  ASSERT_NE(help_at, std::string::npos);
  ASSERT_NE(type_at, std::string::npos);
  ASSERT_NE(sample_at, std::string::npos) << body;
  EXPECT_LT(help_at, type_at);
  EXPECT_LT(type_at, sample_at);

  // Gauges are typed as gauges.
  EXPECT_NE(body.find("# TYPE sqvae_connections_active gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE sqvae_model_generation gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("sqvae_model_generation{shard=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("sqvae_queue_depth{shard=\"1\"} 3\n"),
            std::string::npos);

  // Per-endpoint counters carry both labels.
  EXPECT_NE(
      body.find(
          "sqvae_endpoint_requests_total{shard=\"1\",endpoint=\"encode\"} 25"),
      std::string::npos);
  EXPECT_NE(
      body.find(
          "sqvae_endpoint_errors_total{shard=\"1\",endpoint=\"encode\"} 1"),
      std::string::npos);

  // The in-band terminator is the final line.
  ASSERT_GE(body.size(), 5u);
  EXPECT_EQ(body.substr(body.size() - 5), "# EOF");
}

TEST(RenderPrometheusTest, HistogramUsesHonestBoundsInSeconds) {
  ServerStats stats;
  const int encode = static_cast<int>(serve::Endpoint::kEncode);
  // 80us lands in bucket 6 ([64, 128)us, inclusive bound 127us). Every
  // le bound at or above 127us must count it; every bound below must not.
  stats.endpoint[encode].latency.record_us(80);
  const std::string body = serve::render_stats_prometheus(stats, 0, 1, 0);

  // Mirror the renderer's %.17g formatting for the expected bounds.
  const auto g17 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const std::string labels = "{shard=\"0\",endpoint=\"encode\",le=\"";
  // Bucket 5's inclusive bound: 63us — count still 0.
  EXPECT_NE(body.find("sqvae_request_latency_seconds_bucket" + labels +
                      g17(63 / 1e6) + "\"} 0\n"),
            std::string::npos)
      << body;
  // Bucket 6's inclusive bound: 127us — count 1 (80us <= 127us).
  EXPECT_NE(body.find("sqvae_request_latency_seconds_bucket" + labels +
                      g17(127 / 1e6) + "\"} 1\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("sqvae_request_latency_seconds_bucket" + labels +
                      "+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("sqvae_request_latency_seconds_sum{shard=\"0\","
                      "endpoint=\"encode\"} " +
                      g17(80 / 1e6) + "\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("sqvae_request_latency_seconds_count{shard=\"0\","
                      "endpoint=\"encode\"} 1\n"),
            std::string::npos);
}

/// A file of the source tree, "" when unreadable.
std::string source_file(const std::string& relative) {
  std::ifstream f(std::string(SQVAE_SOURCE_DIR) + "/" + relative,
                  std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(RenderPinTest, BothRenderingsMatchTheirPins) {
  // Every scalar counter holds a distinct value, so a reordered, dropped
  // or mislabelled metric changes the bytes.
  ServerStats stats;
  populate(&stats);
  EXPECT_EQ(serve::render_stats_response(stats, 3, 2, true, 9) + "\n",
            source_file("tests/golden/stats.json"));
  EXPECT_EQ(serve::render_stats_prometheus(stats, 3, 2, 1) + "\n",
            source_file("tests/golden/stats.prom"));
}

TEST(RenderPrometheusTest, OperationsTableListsExactlyTheEmittedFamilies) {
  ServerStats stats;
  std::set<std::string> emitted;
  std::istringstream body(serve::render_stats_prometheus(stats, 0, 1, 0));
  for (std::string line; std::getline(body, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      emitted.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  // The first column of the table under "### Prometheus metrics
  // reference", up to the next heading.
  std::set<std::string> documented;
  std::istringstream doc(source_file("docs/OPERATIONS.md"));
  bool in_section = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("### ", 0) == 0) {
      in_section = line == "### Prometheus metrics reference";
    } else if (in_section && line.rfind("| `", 0) == 0) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  EXPECT_EQ(documented, emitted);
}

// ---- JSON variant keeps its contract --------------------------------------

TEST(RenderJsonTest, KeepsGlobalKeysAndAddsEndpointBreakdown) {
  ServerStats stats;
  populate(&stats);
  const std::string line =
      serve::render_stats_response(stats, /*queue_depth=*/3,
                                   /*registry_generation=*/2,
                                   /*has_id=*/true, /*id=*/9);
  // Single line (the line protocol's framing unit).
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Pre-existing keys survive.
  for (const char* key :
       {"\"id\": 9", "\"requests_total\": 40", "\"responses_total\": 39",
        "\"protocol_errors\": 1", "\"cache_hits\": 10", "\"queue_depth\": 3",
        "\"registry_generation\": 2", "\"latency_count\": 20",
        "\"latency_p50_us\":", "\"latency_p99_us\":"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << "\n" << line;
  }
  // New per-endpoint keys, one set per endpoint.
  for (const char* key :
       {"\"encode_requests\": 25", "\"encode_errors\": 1",
        "\"encode_p50_us\":", "\"encode_p99_us\":",
        "\"reconstruct_requests\": 15", "\"decode_requests\": 0",
        "\"latent_sample_requests\": 0"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << "\n" << line;
  }
}

TEST(RenderJsonTest, EndpointPercentilesStayInsideTrueBuckets) {
  ServerStats stats;
  const int recon = static_cast<int>(serve::Endpoint::kReconstruct);
  for (int i = 0; i < 100; ++i) {
    stats.endpoint[recon].latency.record_us(9000);  // bucket [8192, 16384)
  }
  const std::string line =
      serve::render_stats_response(stats, 0, 1, false, 0);
  const std::size_t at = line.find("\"reconstruct_p50_us\": ");
  ASSERT_NE(at, std::string::npos);
  const double p50 = std::stod(line.substr(at + 22));
  EXPECT_GE(p50, 8192.0);
  EXPECT_LE(p50, 16384.0);
}

}  // namespace
