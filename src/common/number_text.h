// The one number codec: the only place where a double (or an integer read
// from text) crosses between binary and text. The serve wire protocol,
// checkpoints v1/v2 (parameters, Adam state, Rng state), CSV datasets,
// circuit text and command-line flags all go through it.
//
// Writing uses std::to_chars' shortest round-trip form: the fewest digits
// that read back to exactly the same double ("0.1", not max_digits10's
// "0.10000000000000001"; "1e-07"). Reading uses std::from_chars, which is
// locale-independent and correctly rounded, so any text a round-trip
// writer produced — this one, or a max_digits10 stream — reads back to the
// same bits. Accepted: JSON numbers, plus leading zeros, ".5" and "5.",
// and the "inf"/"infinity"/"nan" spellings. Rejected: an empty field,
// leading whitespace, a leading '+', hex floats ("0x1p3"), and values
// that overflow ("1e400") or underflow to zero ("1e-400").
//
// Non-finite values are rejected unless the caller passes
// NonFinite::kAllow. Checkpoints allow them, so a diverged run stays
// inspectable (serve::LoadedModel still refuses to serve one); the wire,
// CSV, flags and circuit text do not.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace sqvae::number_text {

enum class NonFinite { kReject, kAllow };

enum class Error {
  kNone,
  kEmpty,       // nothing to read
  kNotANumber,  // does not start with a number
  kTrailing,    // a number followed by other characters
  kOutOfRange,  // overflows, or underflows to zero
  kNonFinite,   // nan/inf where the caller did not opt in
};

/// A short lower-case phrase for error messages ("number out of range").
const char* describe(Error error);

/// Appends the shortest text that reads back to exactly `v` ("nan",
/// "-nan", "inf", "-inf" for the non-finite values).
void append(std::string* out, double v);

/// Appends an integer in plain decimal.
template <std::integral Int>
void append(std::string* out, Int v) {
  char buf[24];  // 20 digits of uint64 max, or a sign and 19 digits
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

/// `v` as text (see append).
template <typename T>
std::string to_text(T v) {
  std::string out;
  append(&out, v);
  return out;
}

// append_line's fields: words verbatim, numbers through append.
inline void append_field(std::string* out, std::string_view word) {
  *out += word;
}
template <typename T>
  requires std::is_arithmetic_v<T>
void append_field(std::string* out, T v) {
  append(out, v);
}

/// Appends one line of space-separated fields: the whitespace layout
/// Cursor reads back.
template <typename First, typename... Rest>
void append_line(std::string* out, const First& first, const Rest&... rest) {
  append_field(out, first);
  ((*out += ' ', append_field(out, rest)), ...);
  *out += '\n';
}

/// Where a prefix read stopped, and why it failed (kNone on success).
struct Parsed {
  const char* end;
  Error error;
};

/// Reads the number at the start of [first, last) and stops at the first
/// character that cannot continue it; the caller decides what may follow
/// (the wire's ',' or ']'). `*out` is written only on success.
Parsed parse_prefix(const char* first, const char* last, double* out,
                    NonFinite non_finite = NonFinite::kReject);

template <std::integral Int>
Parsed parse_prefix(const char* first, const char* last, Int* out) {
  if (first == last) return {first, Error::kEmpty};
  Int v{};
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) return {ptr, Error::kOutOfRange};
  if (ec != std::errc{}) return {first, Error::kNotANumber};
  *out = v;
  return {ptr, Error::kNone};
}

/// Reads `text` as exactly one number: anything after it is kTrailing.
/// `*out` is written only on success.
Error parse(std::string_view text, double* out,
            NonFinite non_finite = NonFinite::kReject);

template <std::integral Int>
Error parse(std::string_view text, Int* out) {
  const char* last = text.data() + text.size();
  Int v{};
  const Parsed p = parse_prefix(text.data(), last, &v);
  if (p.error != Error::kNone) return p.error;
  if (p.end != last) return Error::kTrailing;
  *out = v;
  return Error::kNone;
}

/// The environment variable `name` read as a non-negative integer. Unset
/// or empty keeps `fallback`. Anything but exactly one non-negative
/// integer ("-1", "32k", "1e6") also keeps it, after one line on stderr
/// naming the variable.
std::size_t env_setting(const char* name, std::size_t fallback);

/// Reads whitespace-separated tokens from a text buffer — the checkpoint
/// layout. Whitespace is the C locale's isspace set. Every number must be
/// a whole token, so "3abc" fails where an istream would read 3.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// The next token; empty once only whitespace remains.
  std::string_view token();

  /// Consumes the next token; true when it equals `expected`.
  bool word(std::string_view expected) { return token() == expected; }

  /// Reads the next token as one number.
  bool number(double* out, NonFinite non_finite) {
    return parse(token(), out, non_finite) == Error::kNone;
  }
  template <std::integral Int>
  bool number(Int* out) {
    return parse(token(), out) == Error::kNone;
  }

  /// True when only whitespace remains — a checkpoint with trailing bytes
  /// (the tail of a concatenated file, stray garbage) is not complete.
  bool at_end();

 private:
  void skip_space();

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace sqvae::number_text
