// Line protocol of sqvae_serve: one JSON-ish object per line in, one per
// line out (stdin/stdout or a TCP connection — see cli/sqvae_serve.cpp).
//
// Request:  {"op": "reconstruct", "seed": 7, "x": [0.1, ...],
//            "model": "default", "id": 42}
//   op     one of encode / decode / reconstruct / latent_sample (required)
//   x      payload row (feature row for encode/reconstruct, latent row for
//          decode; omitted for latent_sample)
//   seed   per-request determinism seed (default 0)
//   model  registry name (default "default")
//   id     opaque tag echoed back, for pipelined clients (optional)
//   format "json" (default) or "prometheus" — stats op only: selects the
//          one-line JSON object or the multi-line Prometheus text
//          exposition (terminated by a "# EOF" line)
//
// Response: {"ok": true, "id": 42, "op": "reconstruct", "y": [...]}
//       or  {"ok": false, "id": 42, "error": "..."}
//
// The parser accepts the JSON subset the protocol needs — one flat object
// of string / integer / number-array values, no nesting, no string
// escapes — and ignores unknown keys so clients may annotate requests.
// Numbers go through common/number_text.h both ways: values are printed in
// the shortest form that reads back to the same double, so piping the
// same requests twice (or through --reference) diffs byte-identical when
// the math is. Number literals follow JSON: a leading '+', hex, nan/inf
// and values that overflow or underflow to zero are rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batch_queue.h"

namespace sqvae::serve {

struct WireRequest {
  std::string op;
  std::string model = "default";
  std::uint64_t seed = 0;
  std::vector<double> x;
  bool has_id = false;
  std::uint64_t id = 0;

  /// True for {"op": "stats"}: answered by the line front end
  /// (frontend.h) from its ServerStats, never enqueued.
  bool is_stats = false;
  /// {"op": "stats", "format": "prometheus"}: the front end answers with
  /// the multi-line Prometheus text exposition instead of the one-line
  /// JSON object. The body's last line is "# EOF" — clients read up to
  /// it, since the line protocol's one-line framing does not apply.
  bool stats_prometheus = false;
  Endpoint endpoint = Endpoint::kReconstruct;  // parsed from op
};

/// Parses one request line. False + `error` on malformed input or an
/// unknown op; blank lines return false with an empty error (skip them).
bool parse_request_line(const std::string& line, WireRequest* out,
                        std::string* error);

/// Formats the response line (ok or error form) for a parsed request.
std::string format_response(const WireRequest& request,
                            const InferenceResult& result);

/// Error response for a line that failed to parse.
std::string format_parse_error(const std::string& error);

}  // namespace sqvae::serve
