// ServerStats: lock-free serving observability for the /stats endpoint.
//
// Every counter is a relaxed std::atomic: producers (the event-loop
// thread, worker threads finishing requests, the response cache) bump
// them on hot paths without synchronisation, and the /stats endpoint
// renders a point-in-time snapshot. Relaxed ordering is sound because the
// numbers are monitoring data — each counter is individually exact
// (atomic increments never lose updates), only cross-counter consistency
// is approximate, which is the universal contract of stats endpoints.
//
// Latency lives in a fixed log2-bucketed histogram (LatencyHistogram):
// recording is one atomic increment into the bucket of
// floor(log2(micros)), and percentiles are reconstructed at read time
// with linear interpolation inside the winning bucket. The bucket bounds
// are part of the public contract (bucket_upper_us) because the
// Prometheus exposition needs honest `le` bounds; the interpolation
// error is bounded by one bucket width — the true percentile lies inside
// [2^b, 2^(b+1)) alongside the estimate, so the estimate is never off by
// more than a factor of 2 (and the bound is exact, not heuristic: every
// sample in the bucket is within those bounds by construction).
//
// Two wire formats render the same counters, walking one table of scalar
// metrics (JSON key, Prometheus name, type, help, accessor; stats.cpp)
// and then the per-endpoint counters and latency histograms:
//   * render_stats_response — the serve line protocol's flat JSON object
//     (one line), readable by the same minimal parsers that read
//     inference replies;
//   * render_stats_prometheus — Prometheus text exposition format 0.0.4
//     (multi-line, HELP/TYPE metadata, shard/endpoint labels, cumulative
//     histogram buckets), served by {"op": "stats", "format":
//     "prometheus"} and by the --stats_port HTTP scrape endpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sqvae::serve {

/// Log2-bucketed latency histogram over microseconds. Bucket 0 counts
/// samples of 0-1us; bucket b >= 1 counts samples in [2^b, 2^(b+1)) us
/// (the last bucket is open-ended: record_us clamps). 40 buckets cover
/// ~12 days, far beyond any request latency.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  void record_us(std::uint64_t us) {
    std::uint64_t v = us;
    int b = 0;
    while (v > 1 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of all recorded values in microseconds (Prometheus _sum).
  std::uint64_t sum_us() const {
    return sum_us_.load(std::memory_order_relaxed);
  }

  std::uint64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket b in microseconds: 2^(b+1) - 1
  /// (values are integer microseconds, so bucket 0 = {0, 1}us has bound
  /// 1, bucket 3 = [8, 16) has bound 15). These are the honest
  /// Prometheus `le` bounds; the last bucket is open-ended and maps to
  /// le="+Inf".
  static std::uint64_t bucket_upper_us(int b) {
    return (1ull << (b + 1)) - 1;
  }

  /// Percentile estimate in microseconds (q in [0, 1]): finds the bucket
  /// holding the q-th sample and interpolates linearly inside its true
  /// bounds [2^b, 2^(b+1)), so the estimate is off by at most one bucket
  /// width (a factor of 2). 0 when the histogram is empty.
  double percentile_us(double q) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// Number of inference endpoints. Mirrors the Endpoint enum in
/// batch_queue.h — which includes this header, so the count is a plain
/// constant here and stats.cpp asserts it against the enum. Indexed by
/// static_cast<int>(Endpoint).
constexpr int kStatsEndpoints = 4;

/// Per-endpoint request breakdown: encode / decode / reconstruct /
/// latent_sample split out from the global counters, so one expensive
/// endpoint cannot hide behind a cheap one's volume in the p99.
struct EndpointStats {
  std::atomic<std::uint64_t> requests{0};
  /// Responses with ok == false (validation failures, shed, internal).
  std::atomic<std::uint64_t> errors{0};
  /// Wall time from request parse to response ready, this endpoint only.
  LatencyHistogram latency;
};

/// One process-wide bundle of serving counters. All monotonic except the
/// explicit gauges. Members are written by the event loop, the service's
/// worker threads, and the response cache; read by /stats.
struct ServerStats {
  // ---- connections (event loop) ---------------------------------------
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_active{0};  // gauge
  std::atomic<std::uint64_t> connections_closed{0};
  /// Peer died mid-stream: EPIPE / ECONNRESET / EOF with unread output.
  std::atomic<std::uint64_t> connections_reset{0};
  /// Admission control: accepted then refused because the connection
  /// limit was reached (the peer gets one overloaded error line).
  std::atomic<std::uint64_t> connections_shed{0};
  std::atomic<std::uint64_t> connections_idle_closed{0};

  // ---- requests --------------------------------------------------------
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> responses_total{0};
  /// Lines that failed to parse (the client got an error reply).
  std::atomic<std::uint64_t> protocol_errors{0};
  /// Requests refused with the overloaded error by queue load shedding.
  std::atomic<std::uint64_t> requests_shed{0};

  // ---- response cache --------------------------------------------------
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  /// Requests that joined an identical in-flight computation instead of
  /// recomputing (the dedup win: N identical concurrent requests cost one
  /// execution).
  std::atomic<std::uint64_t> cache_inflight_joined{0};
  std::atomic<std::uint64_t> cache_evictions{0};
  std::atomic<std::uint64_t> cache_bytes{0};    // gauge
  std::atomic<std::uint64_t> cache_entries{0};  // gauge

  /// Wall time from request parse to response ready, all endpoints.
  LatencyHistogram latency;

  /// Per-endpoint breakdown, indexed by static_cast<int>(Endpoint).
  EndpointStats endpoint[kStatsEndpoints];
};

/// Renders the /stats response line: {"ok": true, "op": "stats", ...} with
/// every counter above (including the per-endpoint breakdown as
/// <name>_requests / <name>_errors / <name>_p50_us / <name>_p99_us) plus
/// the sampled gauges passed in (queue depth and registry generation live
/// outside ServerStats). The scalar keys come from the table in stats.cpp.
std::string render_stats_response(const ServerStats& stats,
                                  std::uint64_t queue_depth,
                                  std::uint64_t registry_generation,
                                  bool has_id, std::uint64_t id);

/// Renders the Prometheus text exposition (format 0.0.4) of the same
/// counters: HELP/TYPE metadata per family, every sample labelled
/// shard="<shard>", per-endpoint counters and latency histograms labelled
/// endpoint="<name>" with cumulative le buckets from
/// LatencyHistogram::bucket_upper_us (seconds, Prometheus convention).
/// The body's final line is "# EOF" (a comment, ignored by parsers) so
/// line-protocol clients reading the in-band variant know where the
/// multi-line body ends.
std::string render_stats_prometheus(const ServerStats& stats,
                                    std::uint64_t queue_depth,
                                    std::uint64_t registry_generation,
                                    int shard);

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prometheus_escape_label(const std::string& value);

}  // namespace sqvae::serve
