#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace sqvae {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformMoments) {
  Rng rng(7);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
    sum_sq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum_sq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, UniformIndexUnbiased) {
  Rng rng(9);
  int counts[5] = {0};
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, WeightedChoiceRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0};
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.weighted_choice({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(12);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(13);
  Rng child = a.split();
  // Child and parent should not produce identical sequences.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a() == child()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Matrix, MatmulKnownResult) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a.matmul(b);
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(Matrix, TransposeAndIdentity) {
  const Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t(2, 1), 6);
  const Matrix i3 = Matrix::identity(3);
  EXPECT_EQ(a.matmul(i3.transpose()), a);
}

TEST(Matrix, NormsAndStats) {
  const Matrix m{{3, -4}};
  EXPECT_EQ(m.l1_norm(), 7.0);
  EXPECT_EQ(m.frobenius_norm(), 5.0);
  EXPECT_EQ(m.max(), 3.0);
  EXPECT_EQ(m.min(), -4.0);
  EXPECT_EQ(m.sum(), -1.0);
}

TEST(Matrix, MseAgainstSelfIsZero) {
  const Matrix m{{1, 2}, {3, 4}};
  EXPECT_EQ(m.mse(m), 0.0);
  Matrix shifted = m;
  shifted *= 2.0;
  EXPECT_NEAR(m.mse(shifted), (1.0 + 4.0 + 9.0 + 16.0) / 4.0, 1e-12);
}

TEST(Matrix, VectorHelpers) {
  EXPECT_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_EQ(l1_norm({1, -2, 3}), 6.0);
  EXPECT_NEAR(l2_norm({3, 4}), 5.0, 1e-12);
  const auto n = l1_normalized({2.0, -2.0});
  EXPECT_NEAR(n[0], 0.5, 1e-12);
  EXPECT_NEAR(std::abs(n[1]), 0.5, 1e-12);
  EXPECT_NEAR(mse({1, 2}, {2, 4}), 2.5, 1e-12);
}

TEST(Flags, ParsesAllForms) {
  Flags flags;
  flags.add_string("name", "default", "a name");
  flags.add_int("count", 5, "a count");
  flags.add_double("rate", 0.1, "a rate");
  flags.add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--name=alice", "--count", "12",
                        "--rate=0.5", "--verbose"};
  ASSERT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(flags.get_string("name"), "alice");
  EXPECT_EQ(flags.get_int("count"), 12);
  EXPECT_EQ(flags.get_double("rate"), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, DefaultsWhenUnset) {
  Flags flags;
  flags.add_int("epochs", 20, "epochs");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("epochs"), 20);
}

TEST(Flags, RejectsUnknownAndMalformed) {
  Flags flags;
  flags.add_int("count", 5, "a count");
  const char* unknown[] = {"prog", "--nope=1"};
  EXPECT_THROW(flags.parse(2, unknown), std::invalid_argument);
  const char* bad_value[] = {"prog", "--count=abc"};
  EXPECT_THROW(flags.parse(2, bad_value), std::invalid_argument);
  const char* positional[] = {"prog", "stray"};
  EXPECT_THROW(flags.parse(2, positional), std::invalid_argument);
}

TEST(Flags, NumberValuesMustBeWholeFiniteNumbers) {
  struct Row {
    const char* arg;
    bool accepted;
  };
  const Row rows[] = {
      {"--n=5", true},         {"--n=-3", true},
      {"--n=5x", false},       {"--n=3.7", false},
      {"--n=", false},         {"--n=+5", false},
      {"--lr=0.01", true},     {"--lr=25", true},
      {"--lr=1e-3", true},     {"--lr=1e+06", true},
      {"--lr=0.01abc", false}, {"--lr=nan", false},
      {"--lr=inf", false},     {"--lr=1e400", false},
      {"--lr= 1", false},      {"--lr=0x10", false},
  };
  for (const Row& row : rows) {
    Flags flags;
    flags.add_int("n", 1, "an int");
    flags.add_double("lr", 0.5, "a double");
    const char* argv[] = {"prog", row.arg};
    if (row.accepted) {
      EXPECT_NO_THROW(flags.parse(2, argv)) << row.arg;
    } else {
      EXPECT_THROW(flags.parse(2, argv), std::invalid_argument) << row.arg;
    }
  }
  Flags flags;
  flags.add_int("n", 1, "an int");
  flags.add_double("lr", 0.5, "a double");
  const char* argv[] = {"prog", "--n=-3", "--lr=1e-3"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(flags.get_int("n"), -3);
  EXPECT_EQ(flags.get_double("lr"), 1e-3);
}

TEST(Flags, DoubleDefaultsKeepEveryDigit) {
  Flags flags;
  flags.add_double("third", 1.0 / 3, "a third");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_double("third"), 1.0 / 3);
  EXPECT_NE(flags.usage("prog").find("0.3333333333333333"), std::string::npos);
}

TEST(Flags, ListsSplitOnCommasAndDropEmptyItems) {
  struct Row {
    const char* value;
    std::vector<std::string> items;
  };
  const Row rows[] = {
      {"", {}},
      {"a", {"a"}},
      {"a,,b,", {"a", "b"}},
  };
  for (const Row& row : rows) {
    Flags flags;
    flags.add_string("inputs", "", "a list");
    const std::string arg = std::string("--inputs=") + row.value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(flags.parse(2, argv)) << row.value;
    EXPECT_EQ(flags.get_list("inputs"), row.items) << '"' << row.value << '"';
  }
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags;
  flags.add_int("count", 5, "a count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Table, TextAndCsvRendering) {
  Table t({"model", "loss"});
  t.add_row({"VAE", Table::fmt(0.12345, 3)});
  t.add_row({"SQ-VAE", Table::fmt(0.1, 3)});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("model"), std::string::npos);
  EXPECT_NE(text.find("0.123"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("model,loss"), std::string::npos);
  EXPECT_NE(csv.find("SQ-VAE,0.100"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(w.seconds(), 0.0);
  w.reset();
  EXPECT_LT(w.seconds(), 1.0);
}

}  // namespace
}  // namespace sqvae
