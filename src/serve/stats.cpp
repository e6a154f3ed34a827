#include "serve/stats.h"

#include <cstdio>
#include <sstream>

#include "serve/batch_queue.h"

namespace sqvae::serve {

static_assert(static_cast<int>(Endpoint::kLatentSample) + 1 == kStatsEndpoints,
              "kStatsEndpoints must mirror the Endpoint enum");

double LatencyHistogram::percentile_us(double q) const {
  // Snapshot the buckets once; concurrent recording keeps each bucket
  // individually exact, so the estimate is a valid point-in-time view.
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;

  // The q-th sample (1-based rank) and the bucket that holds it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += counts[b];
    if (static_cast<double>(seen) < rank) continue;
    // Linear interpolation inside the bucket's true bounds: bucket 0
    // holds [0, 2)us, bucket b >= 1 holds [2^b, 2^(b+1))us. Every sample
    // in the bucket lies inside [lo, hi), so the estimate is off by at
    // most hi - lo — one bucket width, a factor of 2.
    const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << b);
    const double hi = static_cast<double>(1ull << (b + 1));
    const double frac =
        counts[b] == 0 ? 0.0
                       : (rank - before) / static_cast<double>(counts[b]);
    return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
  }
  return static_cast<double>(bucket_upper_us(kBuckets - 1));
}

namespace {

/// What one rendering reads: the counters plus the two gauges sampled
/// outside ServerStats.
struct StatsInputs {
  const ServerStats& stats;
  std::uint64_t queue_depth;
  std::uint64_t registry_generation;
};

/// One scalar metric, as both renderings name and read it.
struct ScalarMetric {
  const char* json_key;
  const char* prometheus_name;
  const char* type;  // Prometheus metric type
  const char* help;
  std::uint64_t (*value)(const StatsInputs&);
};

std::uint64_t load(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

template <std::atomic<std::uint64_t> ServerStats::*kCounter>
std::uint64_t counter(const StatsInputs& in) {
  return load(in.stats.*kCounter);
}

using S = ServerStats;

/// The scalar metrics of both renderings, in output order. The
/// per-endpoint counters and the latency histograms follow them.
constexpr ScalarMetric kScalarMetrics[] = {
    {"connections_accepted", "sqvae_connections_accepted_total", "counter",
     "Connections accepted by the event loop.",
     counter<&S::connections_accepted>},
    {"connections_active", "sqvae_connections_active", "gauge",
     "Currently open connections.", counter<&S::connections_active>},
    {"connections_closed", "sqvae_connections_closed_total", "counter",
     "Connections closed.", counter<&S::connections_closed>},
    {"connections_reset", "sqvae_connections_reset_total", "counter",
     "Connections torn down because the peer died mid-stream.",
     counter<&S::connections_reset>},
    {"connections_shed", "sqvae_connections_shed_total", "counter",
     "Connections refused by the --max_conns admission limit.",
     counter<&S::connections_shed>},
    {"connections_idle_closed", "sqvae_connections_idle_closed_total",
     "counter", "Connections closed by the --idle_ms timeout.",
     counter<&S::connections_idle_closed>},
    {"requests_total", "sqvae_requests_total", "counter",
     "Request lines received.", counter<&S::requests_total>},
    {"responses_total", "sqvae_responses_total", "counter",
     "Response lines sent.", counter<&S::responses_total>},
    {"protocol_errors", "sqvae_protocol_errors_total", "counter",
     "Request lines that failed to parse.", counter<&S::protocol_errors>},
    {"requests_shed", "sqvae_requests_shed_total", "counter",
     "Requests refused by queue load shedding.", counter<&S::requests_shed>},
    {"cache_hits", "sqvae_cache_hits_total", "counter", "Response cache hits.",
     counter<&S::cache_hits>},
    {"cache_misses", "sqvae_cache_misses_total", "counter",
     "Response cache misses.", counter<&S::cache_misses>},
    {"cache_inflight_joined", "sqvae_cache_inflight_joined_total", "counter",
     "Requests that joined an identical in-flight computation.",
     counter<&S::cache_inflight_joined>},
    {"cache_evictions", "sqvae_cache_evictions_total", "counter",
     "Response cache evictions.", counter<&S::cache_evictions>},
    {"cache_bytes", "sqvae_cache_bytes", "gauge",
     "Response cache resident bytes.", counter<&S::cache_bytes>},
    {"cache_entries", "sqvae_cache_entries", "gauge",
     "Response cache resident entries.", counter<&S::cache_entries>},
    {"queue_depth", "sqvae_queue_depth", "gauge",
     "Batch queue depth at scrape time.",
     [](const StatsInputs& in) { return in.queue_depth; }},
    {"registry_generation", "sqvae_model_generation", "gauge",
     "Registry generation of the default model (bumps on rollout).",
     [](const StatsInputs& in) { return in.registry_generation; }},
};

}  // namespace

std::string render_stats_response(const ServerStats& stats,
                                  std::uint64_t queue_depth,
                                  std::uint64_t registry_generation,
                                  bool has_id, std::uint64_t id) {
  const StatsInputs in{stats, queue_depth, registry_generation};
  std::ostringstream os;
  os << "{\"ok\": true, ";
  if (has_id) os << "\"id\": " << id << ", ";
  os << "\"op\": \"stats\"";
  for (const ScalarMetric& m : kScalarMetrics) {
    os << ", \"" << m.json_key << "\": " << m.value(in);
  }
  // Percentiles are <= 2^40 so ~14 chars, but %.1f's worst case for an
  // arbitrary double is ~310 — size for the compiler's view of it.
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                ", \"latency_count\": %llu, \"latency_p50_us\": %.1f, "
                "\"latency_p99_us\": %.1f",
                static_cast<unsigned long long>(stats.latency.count()),
                stats.latency.percentile_us(0.50),
                stats.latency.percentile_us(0.99));
  os << buf;
  for (int e = 0; e < kStatsEndpoints; ++e) {
    const EndpointStats& ep = stats.endpoint[e];
    const char* name = endpoint_name(static_cast<Endpoint>(e));
    os << ", \"" << name << "_requests\": " << load(ep.requests) << ", \""
       << name << "_errors\": " << load(ep.errors);
    std::snprintf(buf, sizeof(buf), ", \"%s_p50_us\": %.1f", name,
                  ep.latency.percentile_us(0.50));
    os << buf;
    std::snprintf(buf, sizeof(buf), ", \"%s_p99_us\": %.1f", name,
                  ep.latency.percentile_us(0.99));
    os << buf;
  }
  os << "}";
  return os.str();
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

/// Appends one metric family: HELP, TYPE, then one sample per (extra
/// label set, value) pair the caller emits via the returned helper.
void family(std::string* out, const char* name, const char* type,
            const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void sample(std::string* out, const char* name, const std::string& labels,
            double value) {
  char buf[64];
  // %.17g round-trips doubles; counters are integers and print as such.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += name;
  if (!labels.empty()) {
    *out += '{';
    *out += labels;
    *out += '}';
  }
  *out += ' ';
  *out += buf;
  *out += '\n';
}

}  // namespace

std::string render_stats_prometheus(const ServerStats& stats,
                                    std::uint64_t queue_depth,
                                    std::uint64_t registry_generation,
                                    int shard) {
  const auto v = [](const std::atomic<std::uint64_t>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  const std::string shard_label = "shard=\"" + std::to_string(shard) + "\"";

  std::string out;
  out.reserve(8192);
  const StatsInputs in{stats, queue_depth, registry_generation};
  for (const ScalarMetric& m : kScalarMetrics) {
    family(&out, m.prometheus_name, m.type, m.help);
    sample(&out, m.prometheus_name, shard_label,
           static_cast<double>(m.value(in)));
  }

  std::string endpoint_labels[kStatsEndpoints];
  for (int e = 0; e < kStatsEndpoints; ++e) {
    endpoint_labels[e] =
        shard_label + ",endpoint=\"" +
        prometheus_escape_label(endpoint_name(static_cast<Endpoint>(e))) +
        "\"";
  }
  family(&out, "sqvae_endpoint_requests_total", "counter",
         "Requests received, by endpoint.");
  for (int e = 0; e < kStatsEndpoints; ++e) {
    sample(&out, "sqvae_endpoint_requests_total", endpoint_labels[e],
           v(stats.endpoint[e].requests));
  }
  family(&out, "sqvae_endpoint_errors_total", "counter",
         "Non-ok responses, by endpoint.");
  for (int e = 0; e < kStatsEndpoints; ++e) {
    sample(&out, "sqvae_endpoint_errors_total", endpoint_labels[e],
           v(stats.endpoint[e].errors));
  }

  // Latency histograms: cumulative le buckets in seconds. The le bounds
  // are the histogram's true inclusive bounds (bucket_upper_us), so a
  // bucket's count is exactly the number of requests at or under its
  // bound — honest buckets, no interpolation on this path.
  family(&out, "sqvae_request_latency_seconds", "histogram",
         "Request wall time from parse to response ready, by endpoint.");
  for (int e = 0; e < kStatsEndpoints; ++e) {
    const LatencyHistogram& h = stats.endpoint[e].latency;
    const std::string& labels = endpoint_labels[e];
    // One bucket snapshot feeds the cumulative series, the +Inf bucket,
    // and _count: deriving +Inf from the separate count() atomic could
    // momentarily disagree with the bucket sums under concurrent
    // recording and break the validator's monotonicity check.
    std::uint64_t cumulative = 0;
    for (int b = 0; b < LatencyHistogram::kBuckets - 1; ++b) {
      cumulative += h.bucket_count(b);
      char le[48];
      std::snprintf(le, sizeof(le), "%.17g",
                    static_cast<double>(LatencyHistogram::bucket_upper_us(b)) /
                        1e6);
      sample(&out, "sqvae_request_latency_seconds_bucket",
             labels + ",le=\"" + le + "\"",
             static_cast<double>(cumulative));
    }
    cumulative += h.bucket_count(LatencyHistogram::kBuckets - 1);
    sample(&out, "sqvae_request_latency_seconds_bucket",
           labels + ",le=\"+Inf\"", static_cast<double>(cumulative));
    sample(&out, "sqvae_request_latency_seconds_sum", labels,
           static_cast<double>(h.sum_us()) / 1e6);
    sample(&out, "sqvae_request_latency_seconds_count", labels,
           static_cast<double>(cumulative));
  }

  // Comment terminator: line-protocol clients reading the in-band
  // variant stop here; Prometheus parsers ignore comments.
  out += "# EOF";
  return out;
}

}  // namespace sqvae::serve
