#include "serve/protocol.h"

#include <cctype>
#include <cstdio>

#include "common/number_text.h"

namespace sqvae::serve {

namespace {

/// Minimal scanner over the protocol's JSON subset (see protocol.h).
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  bool string_value(std::string* out) {
    if (!eat('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return false;  // escapes unsupported
      out->push_back(text_[pos_++]);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }

  /// Non-finite values are rejected (the wire never opts in): "nan" and
  /// "inf" are not JSON, and echoing the NaN outputs they produce would
  /// make the *response* invalid JSON too. Overflowing literals such as
  /// 1e999 fail as out of range.
  bool number_value(double* out) {
    skip_ws();
    return advance(number_text::parse_prefix(cursor(), end(), out));
  }

  /// Full-range uint64 (seed/id): going through a double would corrupt
  /// values above 2^53. A sign or a value past 2^64 - 1 is malformed.
  bool uint_value(std::uint64_t* out) {
    skip_ws();
    return advance(number_text::parse_prefix(cursor(), end(), out));
  }

  bool array_value(std::vector<double>* out) {
    if (!eat('[')) return false;
    out->clear();
    if (eat(']')) return true;
    while (true) {
      double v = 0.0;
      if (!number_value(&v)) return false;
      out->push_back(v);
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  /// Skips a value of any supported shape (for unknown keys).
  bool skip_value() {
    skip_ws();
    if (peek_is('"')) {
      std::string ignored;
      return string_value(&ignored);
    }
    if (peek_is('[')) {
      std::vector<double> ignored;
      return array_value(&ignored);
    }
    if (peek_is('t')) return literal("true");
    if (peek_is('f')) return literal("false");
    if (peek_is('n')) return literal("null");
    double ignored = 0.0;
    return number_value(&ignored);
  }

  bool literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
      ++pos_;
    }
    return true;
  }

 private:
  const char* cursor() const { return text_.data() + pos_; }
  const char* end() const { return text_.data() + text_.size(); }

  bool advance(const number_text::Parsed& parsed) {
    if (parsed.error != number_text::Error::kNone) return false;
    pos_ = static_cast<std::size_t>(parsed.end - text_.data());
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Error strings quote the offending key ("expected ':' after \"op\""),
/// so they must be escaped or the error response itself is invalid JSON.
std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool blank(const std::string& line) {
  for (char c : line) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace

bool parse_request_line(const std::string& line, WireRequest* out,
                        std::string* error) {
  *out = WireRequest{};
  error->clear();
  if (blank(line)) return false;

  std::string format;
  Scanner scan(line);
  if (!scan.eat('{')) {
    *error = "request must be a {...} object";
    return false;
  }
  if (!scan.eat('}')) {
    while (true) {
      std::string key;
      if (!scan.string_value(&key)) {
        *error = "expected a \"key\"";
        return false;
      }
      if (!scan.eat(':')) {
        *error = "expected ':' after \"" + key + "\"";
        return false;
      }
      bool parsed = true;
      if (key == "op") {
        parsed = scan.string_value(&out->op);
      } else if (key == "model") {
        parsed = scan.string_value(&out->model);
      } else if (key == "seed") {
        parsed = scan.uint_value(&out->seed);
      } else if (key == "id") {
        parsed = scan.uint_value(&out->id);
        out->has_id = true;
      } else if (key == "x") {
        parsed = scan.array_value(&out->x);
      } else if (key == "format") {
        parsed = scan.string_value(&format);
      } else {
        parsed = scan.skip_value();
      }
      if (!parsed) {
        *error = "malformed value for \"" + key + "\"";
        return false;
      }
      if (scan.eat('}')) break;
      if (!scan.eat(',')) {
        *error = "expected ',' or '}'";
        return false;
      }
    }
  }
  if (!scan.at_end()) {
    *error = "trailing content after the request object";
    return false;
  }
  if (out->op.empty()) {
    *error = "missing \"op\"";
    return false;
  }
  if (out->op == "stats") {
    out->is_stats = true;
    // "format" selects the stats wire shape; it is ignored (skipped like
    // any unknown key) on inference ops.
    if (format == "prometheus") {
      out->stats_prometheus = true;
    } else if (!format.empty() && format != "json") {
      *error = "unknown stats format: " + format + " (json, prometheus)";
      return false;
    }
    return true;
  }
  if (!parse_endpoint(out->op, &out->endpoint)) {
    *error = "unknown op: " + out->op +
             " (encode, decode, reconstruct, latent_sample, stats)";
    return false;
  }
  return true;
}

std::string format_response(const WireRequest& request,
                            const InferenceResult& result) {
  std::string out;
  // A value's shortest form is at most 24 characters, so an ok line is one
  // allocation.
  if (result.ok) {
    out.reserve(64 + request.op.size() + result.values.size() * (24 + 2));
  }
  out += result.ok ? "{\"ok\": true" : "{\"ok\": false";
  if (request.has_id) {
    out += ", \"id\": ";
    number_text::append(&out, request.id);
  }
  if (!result.ok) {
    out += ", \"error\": \"" + escape_json(result.error) + "\"}";
    return out;
  }
  out += ", \"op\": \"" + request.op + "\", \"y\": [";
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    if (i > 0) out += ", ";
    number_text::append(&out, result.values[i]);
  }
  out += "]}";
  return out;
}

std::string format_parse_error(const std::string& error) {
  return "{\"ok\": false, \"error\": \"" + escape_json(error) + "\"}";
}

}  // namespace sqvae::serve
