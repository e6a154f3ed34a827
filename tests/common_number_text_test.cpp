// The number codec (common/number_text.h): bit-exact round trips, exact
// agreement with strtod on the max_digits10 text older writers produced,
// one exact rejection reason per malformed input, and compatibility with
// checkpoints and response lines written before the codec existed.
#include "common/number_text.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "serve/protocol.h"

namespace sqvae::number_text {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// The format every writer used before the codec: a stream at
/// max_digits10.
std::string max_digits10(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void expect_round_trip(double v) {
  const std::string text = to_text(v);
  double back = 0.0;
  ASSERT_EQ(parse(text, &back), Error::kNone) << text;
  EXPECT_EQ(bits(back), bits(v)) << text;
}

TEST(NumberText, EdgeValuesRoundTripBitExactly) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  for (const double v :
       {0.0, -0.0, denorm_min, -denorm_min, DBL_MIN, -DBL_MIN, DBL_MAX,
        -DBL_MAX, 0.1, 1e21, 1e-7, 1.0 / 3, std::numbers::pi / 3, 1e-300,
        1e16, 123456789012.0}) {
    expect_round_trip(v);
  }
  EXPECT_EQ(to_text(0.1), "0.1");
  EXPECT_EQ(to_text(-0.0), "-0");
  EXPECT_EQ(to_text(1e-7), "1e-07");
  EXPECT_EQ(to_text(denorm_min), "5e-324");
}

TEST(NumberText, RandomBitPatternsRoundTripBitExactly) {
  Rng rng(20261018);
  int finite = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = from_bits(rng());
    if (!std::isfinite(v)) continue;  // NaN payloads are not text
    ++finite;
    const std::string text = to_text(v);
    double back = 0.0;
    ASSERT_EQ(parse(text, &back), Error::kNone) << text;
    ASSERT_EQ(bits(back), bits(v)) << text;
  }
  EXPECT_GT(finite, 990'000);
}

TEST(NumberText, MaxDigits10TextReadsLikeStrtod) {
  // Every checkpoint and response before the codec was printed this way;
  // the codec must read it to exactly the bits strtod did.
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    const double v = from_bits(rng());
    if (!std::isfinite(v)) continue;
    const std::string text = max_digits10(v);
    double codec = 0.0;
    ASSERT_EQ(parse(text, &codec), Error::kNone) << text;
    const double reference = std::strtod(text.c_str(), nullptr);
    ASSERT_EQ(bits(codec), bits(reference)) << text;
    ASSERT_EQ(bits(codec), bits(v)) << text;
  }
}

TEST(NumberText, NonFiniteValuesNeedTheOptIn) {
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    double back = 0.0;
    EXPECT_EQ(parse(to_text(v), &back), Error::kNonFinite);
    ASSERT_EQ(parse(to_text(v), &back, NonFinite::kAllow), Error::kNone);
    EXPECT_EQ(back, v);
  }
  const double nan = -std::numeric_limits<double>::quiet_NaN();
  double back = 0.0;
  ASSERT_EQ(parse(to_text(nan), &back, NonFinite::kAllow), Error::kNone);
  EXPECT_TRUE(std::isnan(back));
  EXPECT_EQ(std::signbit(back), std::signbit(nan));
}

TEST(NumberText, ParsingIsLocaleIndependent) {
  // Under a comma-decimal locale, strtod would read "1.5" as 1 (the comma
  // is the separator); std::from_chars must not. Without such a locale
  // installed the test runs under the current one: the parse must be exact
  // either way.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous ? previous : "C";
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    std::setlocale(LC_NUMERIC, "fr_FR.UTF-8");
  }
  double a = 0.0;
  double b = 0.0;
  const Error ea = parse("1.5", &a);
  const Error eb = parse("-2.25e1", &b);
  const std::string written = to_text(-22.5);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(ea, Error::kNone);
  EXPECT_EQ(eb, Error::kNone);
  EXPECT_EQ(a, 1.5);
  EXPECT_EQ(b, -22.5);
  EXPECT_EQ(written, "-22.5");
}

struct RejectRow {
  const char* text;
  NonFinite non_finite;
  Error expected;
};

TEST(NumberText, RejectionTable) {
  const RejectRow rows[] = {
      {"", NonFinite::kReject, Error::kEmpty},
      {" 1", NonFinite::kReject, Error::kNotANumber},
      {"1 ", NonFinite::kReject, Error::kTrailing},
      {"1.5x", NonFinite::kReject, Error::kTrailing},
      {"1e", NonFinite::kReject, Error::kTrailing},
      {"abc", NonFinite::kReject, Error::kNotANumber},
      {"1e400", NonFinite::kReject, Error::kOutOfRange},
      {"-1e400", NonFinite::kAllow, Error::kOutOfRange},
      {"nan", NonFinite::kReject, Error::kNonFinite},
      {"-nan", NonFinite::kReject, Error::kNonFinite},
      {"inf", NonFinite::kReject, Error::kNonFinite},
      {"-infinity", NonFinite::kReject, Error::kNonFinite},
      {"nan", NonFinite::kAllow, Error::kNone},
      {"-inf", NonFinite::kAllow, Error::kNone},
      // Accepted by strtod (and so by the wire) before the codec:
      {"+1.5", NonFinite::kReject, Error::kNotANumber},
      {"0x1p3", NonFinite::kReject, Error::kTrailing},  // strtod: 8
      {"1e-400", NonFinite::kReject, Error::kOutOfRange},  // strtod: 0
  };
  for (const RejectRow& row : rows) {
    double out = 42.0;
    const Error got = parse(row.text, &out, row.non_finite);
    EXPECT_EQ(got, row.expected)
        << '"' << row.text << "\" read as " << describe(got);
    if (got != Error::kNone) {
      EXPECT_EQ(out, 42.0) << row.text;  // untouched on failure
    }
  }
}

TEST(NumberText, IntegersReadWholeTokensOnly) {
  long long s = 0;
  EXPECT_EQ(parse("-12", &s), Error::kNone);
  EXPECT_EQ(s, -12);
  EXPECT_EQ(parse("3.7", &s), Error::kTrailing);
  EXPECT_EQ(parse("5x", &s), Error::kTrailing);
  EXPECT_EQ(parse("+5", &s), Error::kNotANumber);
  std::uint64_t u = 0;
  EXPECT_EQ(parse("18446744073709551615", &u), Error::kNone);
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse("18446744073709551616", &u), Error::kOutOfRange);
  EXPECT_EQ(parse("-1", &u), Error::kNotANumber);
  EXPECT_EQ(to_text(std::numeric_limits<std::uint64_t>::max()),
            "18446744073709551615");
  EXPECT_EQ(to_text(std::numeric_limits<long long>::min()),
            "-9223372036854775808");
}

TEST(NumberText, SettingsKeepTheirDefaultOnMalformedText) {
  // Environment settings (SQVAE_PAR_THRESHOLD, SQVAE_BLOCK_QUBITS) used to
  // go through strtoull/strtol: "-1" wrapped to 2^64-1, "32k" read 32 and
  // "1e6" read 1.
  struct Row {
    const char* text;
    std::size_t expected;
  };
  const std::size_t fallback = std::size_t{1} << 15;
  const Row rows[] = {
      {"-1", fallback},
      {"32k", fallback},
      {"1e6", fallback},
      {"", fallback},
      {nullptr, fallback},
      {"65536", 65536},
      {"0", 0},
      {" 8", fallback},
      {"99999999999999999999", fallback},
  };
  for (const Row& row : rows) {
    if (row.text == nullptr) {
      ::unsetenv("SQVAE_TEST_SETTING");
    } else {
      ::setenv("SQVAE_TEST_SETTING", row.text, 1);
    }
    EXPECT_EQ(env_setting("SQVAE_TEST_SETTING", fallback), row.expected)
        << (row.text == nullptr ? "(unset)" : row.text);
  }
  ::unsetenv("SQVAE_TEST_SETTING");
}

TEST(NumberText, CursorReadsWhitespaceSeparatedTokens) {
  Cursor in(" adam\t3 \n0.5  -0 nan\r\n  ");
  long long t = 0;
  double a = 0.0, b = 1.0, c = 0.0;
  EXPECT_TRUE(in.word("adam"));
  EXPECT_TRUE(in.number(&t));
  EXPECT_EQ(t, 3);
  EXPECT_TRUE(in.number(&a, NonFinite::kReject));
  EXPECT_TRUE(in.number(&b, NonFinite::kReject));
  EXPECT_TRUE(std::signbit(b));
  EXPECT_FALSE(in.at_end());
  EXPECT_TRUE(in.number(&c, NonFinite::kAllow));
  EXPECT_TRUE(std::isnan(c));
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(in.token(), "");

  Cursor partial("3abc 4");
  std::size_t n = 0;
  EXPECT_FALSE(partial.number(&n));  // an istream would have read 3
}

// ---- compatibility with text written before the codec ---------------------

std::string source_file(const std::string& relative) {
  std::ifstream f(std::string(SQVAE_SOURCE_DIR) + "/" + relative,
                  std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The fixtures' model: small enough to check in, with every matrix shape
/// kind (weights and bias rows) and a generative head.
std::unique_ptr<models::ClassicalVae> tiny_model(std::uint64_t seed) {
  models::ClassicalConfig c;
  c.input_dim = 4;
  c.hidden = {3};
  c.latent_dim = 2;
  Rng rng(seed);
  return std::make_unique<models::ClassicalVae>(c, rng);
}

/// The parameter block as the max_digits10 stream writer printed it.
void legacy_parameters(std::ostream& os, models::Autoencoder& model) {
  const auto params = models::checkpoint_parameters(model);
  os << params.size() << '\n';
  for (const ad::Parameter* p : params) {
    os << p->value.rows() << ' ' << p->value.cols();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      os << ' ' << p->value[i];
    }
    os << '\n';
  }
}

/// The Adam block as the max_digits10 stream writer printed it. The moments
/// are private, so they are read back out of the codec's block.
void legacy_adam(std::ostream& os, const nn::Adam& adam) {
  std::string block;
  adam.serialize(&block);
  Cursor in(block);
  long long t = 0;
  std::size_t groups = 0;
  ASSERT_TRUE(in.word("adam") && in.number(&t) && in.number(&groups));
  os << "adam " << t << ' ' << groups << '\n';
  for (std::size_t g = 0; g < groups; ++g) {
    double lr = 0.0;
    std::size_t n = 0;
    ASSERT_TRUE(in.number(&lr, NonFinite::kAllow) && in.number(&n));
    os << lr << ' ' << n << '\n';
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t rows = 0, cols = 0;
      ASSERT_TRUE(in.number(&rows) && in.number(&cols));
      os << rows << ' ' << cols;
      for (std::size_t k = 0; k < 2 * rows * cols; ++k) {
        double v = 0.0;
        ASSERT_TRUE(in.number(&v, NonFinite::kAllow));
        os << ' ' << v;
      }
      os << '\n';
    }
  }
  ASSERT_TRUE(in.at_end());
}

std::string legacy_v1(models::Autoencoder& model) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "sqvae-checkpoint 1\n";
  legacy_parameters(os, model);
  return os.str();
}

std::string legacy_v2(models::Autoencoder& model,
                      const models::TrainState& state) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "sqvae-checkpoint 2\n";
  legacy_parameters(os, model);
  os << "epoch " << state.next_epoch << '\n';
  os << "best " << (state.has_best ? 1 : 0) << ' ' << state.best_epoch << ' '
     << state.best_metric << ' ' << state.epochs_since_improvement << '\n';
  os << "optimizer 1\n";
  legacy_adam(os, *state.optimizer);
  const Rng::State s = state.rng->state();
  os << "rng 1\n"
     << s.state_hi << ' ' << s.state_lo << ' ' << s.cached_normal << ' '
     << (s.has_cached_normal ? 1 : 0) << '\n';
  return os.str();
}

void expect_same_parameters(models::Autoencoder& a, models::Autoencoder& b) {
  const auto pa = models::checkpoint_parameters(a);
  const auto pb = models::checkpoint_parameters(b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_EQ(pa[k]->value.size(), pb[k]->value.size());
    for (std::size_t i = 0; i < pa[k]->value.size(); ++i) {
      EXPECT_EQ(bits(pa[k]->value[i]), bits(pb[k]->value[i])) << k << ':' << i;
    }
  }
}

TEST(NumberTextCompat, V1FixtureLoadsAndReprintsToItsBytes) {
  const std::string fixture = source_file("tests/golden/checkpoint_v1.txt");
  ASSERT_FALSE(fixture.empty());
  auto model = tiny_model(1);
  ASSERT_TRUE(models::checkpoint_from_text(fixture, *model));
  EXPECT_EQ(legacy_v1(*model), fixture);

  // The serve path reads the same values.
  auto served = tiny_model(2);
  ASSERT_TRUE(models::load_params_only(fixture, *served));
  expect_same_parameters(*model, *served);

  // The codec's own text is shorter and reloads bit-identically.
  const std::string text = models::checkpoint_to_text(*model);
  EXPECT_LT(text.size(), fixture.size());
  auto twin = tiny_model(3);
  ASSERT_TRUE(models::checkpoint_from_text(text, *twin));
  expect_same_parameters(*model, *twin);
  EXPECT_EQ(models::checkpoint_to_text(*twin), text);
}

TEST(NumberTextCompat, V2FixtureLoadsAndReprintsToItsBytes) {
  const std::string fixture = source_file("tests/golden/checkpoint_v2.txt");
  ASSERT_FALSE(fixture.empty());
  auto model = tiny_model(1);
  auto groups = model->param_groups(0.05, 0.01);
  nn::Adam adam(groups);
  Rng rng(0);
  models::TrainState state;
  state.optimizer = &adam;
  state.rng = &rng;
  ASSERT_TRUE(models::checkpoint_from_text_v2(fixture, *model, state));
  EXPECT_EQ(state.next_epoch, 5u);
  EXPECT_EQ(adam.step_count(), 3);
  EXPECT_EQ(legacy_v2(*model, state), fixture);

  auto served = tiny_model(2);
  ASSERT_TRUE(models::load_params_only(fixture, *served));
  expect_same_parameters(*model, *served);

  const std::string text = models::checkpoint_to_text_v2(*model, state);
  EXPECT_LT(text.size(), fixture.size());
  auto twin = tiny_model(3);
  auto twin_groups = twin->param_groups(0.05, 0.01);
  nn::Adam twin_adam(twin_groups);
  Rng twin_rng(9);
  models::TrainState twin_state;
  twin_state.optimizer = &twin_adam;
  twin_state.rng = &twin_rng;
  ASSERT_TRUE(models::checkpoint_from_text_v2(text, *twin, twin_state));
  expect_same_parameters(*model, *twin);
  EXPECT_EQ(models::checkpoint_to_text_v2(*twin, twin_state), text);
  EXPECT_EQ(legacy_v2(*twin, twin_state), fixture);
  EXPECT_EQ(twin_rng(), rng());
}

TEST(NumberTextCompat, ResponseLineIsShorterAndReadsBackExactly) {
  Rng rng(11);
  serve::WireRequest request;
  request.op = "reconstruct";
  request.has_id = true;
  request.id = 7;
  serve::InferenceResult result;
  result.ok = true;
  for (int i = 0; i < 1024; ++i) result.values.push_back(rng.uniform(-1, 1));
  const std::string line = serve::format_response(request, result);

  // The same line as the max_digits10 stream printed it.
  std::ostringstream legacy;
  legacy << std::setprecision(std::numeric_limits<double>::max_digits10)
         << "{\"ok\": true, \"id\": 7, \"op\": \"reconstruct\", \"y\": [";
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    legacy << (i > 0 ? ", " : "") << result.values[i];
  }
  legacy << "]}";
  EXPECT_LT(line.size(), legacy.str().size());

  // Both spellings read back to the same values through the wire parser.
  for (const std::string& text : {line, legacy.str()}) {
    const std::size_t at = text.find("\"y\": ");
    ASSERT_NE(at, std::string::npos);
    const std::string again =
        "{\"op\": \"decode\", \"x\": " + text.substr(at + 5);
    serve::WireRequest parsed;
    std::string error;
    ASSERT_TRUE(serve::parse_request_line(again, &parsed, &error)) << error;
    ASSERT_EQ(parsed.x.size(), result.values.size());
    for (std::size_t i = 0; i < parsed.x.size(); ++i) {
      ASSERT_EQ(bits(parsed.x[i]), bits(result.values[i])) << i;
    }
  }
}

}  // namespace
}  // namespace sqvae::number_text
