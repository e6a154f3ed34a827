#include "common/number_text.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sqvae::number_text {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

const char* describe(Error error) {
  switch (error) {
    case Error::kNone: return "ok";
    case Error::kEmpty: return "empty field";
    case Error::kNotANumber: return "not a number";
    case Error::kTrailing: return "trailing characters after the number";
    case Error::kOutOfRange: return "number out of range";
    case Error::kNonFinite: return "non-finite number";
  }
  return "unknown error";
}

void append(std::string* out, double v) {
  // The longest shortest form is 24 characters: "-2.2250738585072014e-308".
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

Parsed parse_prefix(const char* first, const char* last, double* out,
                    NonFinite non_finite) {
  if (first == last) return {first, Error::kEmpty};
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec == std::errc::result_out_of_range) return {ptr, Error::kOutOfRange};
  if (ec != std::errc{}) return {first, Error::kNotANumber};
  if (non_finite == NonFinite::kReject && !std::isfinite(v)) {
    return {ptr, Error::kNonFinite};
  }
  *out = v;
  return {ptr, Error::kNone};
}

Error parse(std::string_view text, double* out, NonFinite non_finite) {
  const char* last = text.data() + text.size();
  double v = 0.0;
  const Parsed p = parse_prefix(text.data(), last, &v, non_finite);
  if (p.error != Error::kNone) return p.error;
  if (p.end != last) return Error::kTrailing;
  *out = v;
  return Error::kNone;
}

std::size_t env_setting(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  std::size_t v = 0;
  const Error error = parse(std::string_view(text), &v);
  if (error != Error::kNone) {
    std::fprintf(stderr,
                 "%s=%s ignored (%s; expected a non-negative integer), "
                 "using %zu\n",
                 name, text, describe(error), fallback);
    return fallback;
  }
  return v;
}

void Cursor::skip_space() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

std::string_view Cursor::token() {
  skip_space();
  const std::size_t begin = pos_;
  while (pos_ < text_.size() && !is_space(text_[pos_])) ++pos_;
  return text_.substr(begin, pos_ - begin);
}

bool Cursor::at_end() {
  skip_space();
  return pos_ == text_.size();
}

}  // namespace sqvae::number_text
