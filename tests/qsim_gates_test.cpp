#include "qsim/gates.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/rng.h"

namespace sqvae::qsim {
namespace {

bool approx(const cplx& a, const cplx& b, double tol = 1e-12) {
  return std::abs(a - b) <= tol;
}

/// U U^dag == I.
void expect_unitary(const Mat2& m) {
  const Mat2 prod = matmul2(m, dagger(m));
  EXPECT_TRUE(approx(prod[0], cplx{1, 0}));
  EXPECT_TRUE(approx(prod[1], cplx{0, 0}));
  EXPECT_TRUE(approx(prod[2], cplx{0, 0}));
  EXPECT_TRUE(approx(prod[3], cplx{1, 0}));
}

class ParameterizedGateUnitarity
    : public ::testing::TestWithParam<std::tuple<GateKind, double>> {};

TEST_P(ParameterizedGateUnitarity, MatrixIsUnitary) {
  const auto [kind, theta] = GetParam();
  expect_unitary(gate_matrix(kind, theta));
}

INSTANTIATE_TEST_SUITE_P(
    RotationsAtAngles, ParameterizedGateUnitarity,
    ::testing::Combine(
        ::testing::Values(GateKind::kRX, GateKind::kRY, GateKind::kRZ,
                          GateKind::kCRX, GateKind::kCRY, GateKind::kCRZ),
        ::testing::Values(-3.0, -0.7, 0.0, 0.1, std::numbers::pi / 2, 2.9)));

TEST(Gates, FixedGatesAreUnitary) {
  for (GateKind k : {GateKind::kH, GateKind::kX, GateKind::kY, GateKind::kZ,
                     GateKind::kS, GateKind::kT}) {
    expect_unitary(gate_matrix(k, 0.0));
  }
}

TEST(Gates, RotationAtZeroIsIdentity) {
  for (GateKind k : {GateKind::kRX, GateKind::kRY, GateKind::kRZ}) {
    const Mat2 m = gate_matrix(k, 0.0);
    EXPECT_TRUE(approx(m[0], cplx{1, 0})) << gate_name(k);
    EXPECT_TRUE(approx(m[3], cplx{1, 0})) << gate_name(k);
    EXPECT_TRUE(approx(m[1], cplx{0, 0})) << gate_name(k);
  }
}

TEST(Gates, RxAtPiIsMinusIX) {
  const Mat2 m = gate_matrix(GateKind::kRX, std::numbers::pi);
  EXPECT_TRUE(approx(m[0], cplx{0, 0}));
  EXPECT_TRUE(approx(m[1], cplx{0, -1}));
  EXPECT_TRUE(approx(m[2], cplx{0, -1}));
  EXPECT_TRUE(approx(m[3], cplx{0, 0}));
}

TEST(Gates, RyMatchesPaperFig3dConvention) {
  // Fig. 3(d): RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]].
  const double phi = 0.8;
  const Mat2 m = gate_matrix(GateKind::kRY, phi);
  EXPECT_TRUE(approx(m[0], cplx{std::cos(phi / 2), 0}));
  EXPECT_TRUE(approx(m[1], cplx{-std::sin(phi / 2), 0}));
  EXPECT_TRUE(approx(m[2], cplx{std::sin(phi / 2), 0}));
  EXPECT_TRUE(approx(m[3], cplx{std::cos(phi / 2), 0}));
}

TEST(Gates, RzMatchesPaperFig3dConvention) {
  // Fig. 3(d): RZ(phi) = diag(e^{-i phi/2}, e^{i phi/2}).
  const double phi = 1.3;
  const Mat2 m = gate_matrix(GateKind::kRZ, phi);
  EXPECT_TRUE(approx(m[0], std::exp(cplx{0, -phi / 2})));
  EXPECT_TRUE(approx(m[3], std::exp(cplx{0, phi / 2})));
}

TEST(Gates, SSquaredIsZ) {
  const Mat2 s = gate_matrix(GateKind::kS, 0.0);
  const Mat2 z = gate_matrix(GateKind::kZ, 0.0);
  const Mat2 ss = matmul2(s, s);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(approx(ss[i], z[i]));
}

TEST(Gates, TSquaredIsS) {
  const Mat2 t = gate_matrix(GateKind::kT, 0.0);
  const Mat2 s = gate_matrix(GateKind::kS, 0.0);
  const Mat2 tt = matmul2(t, t);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(approx(tt[i], s[i]));
}

class GateDerivative
    : public ::testing::TestWithParam<std::tuple<GateKind, double>> {};

TEST_P(GateDerivative, MatchesFiniteDifferenceEntrywise) {
  const auto [kind, theta] = GetParam();
  const double eps = 1e-6;
  const Mat2 plus = gate_matrix(kind, theta + eps);
  const Mat2 minus = gate_matrix(kind, theta - eps);
  const Mat2 d = gate_matrix_derivative(kind, theta);
  for (int i = 0; i < 4; ++i) {
    const cplx fd = (plus[i] - minus[i]) / (2.0 * eps);
    EXPECT_NEAR(std::abs(fd - d[i]), 0.0, 1e-8)
        << gate_name(kind) << " entry " << i << " theta " << theta;
  }
}

TEST_P(GateDerivative, IsTheGeneratorTimesTheMatrix) {
  // dR/dtheta = (-i/2) P R: the executor's reverse walk differentiates
  // bound matrices this way, without evaluating sin/cos again.
  const auto [kind, theta] = GetParam();
  const Mat2 d = gate_matrix_derivative(kind, theta);
  const Mat2 gd = matmul2(rotation_generator(kind), gate_matrix(kind, theta));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(gd[i] - d[i]), 0.0, 1e-15)
        << gate_name(kind) << " entry " << i << " theta " << theta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllParamGates, GateDerivative,
    ::testing::Combine(
        ::testing::Values(GateKind::kRX, GateKind::kRY, GateKind::kRZ,
                          GateKind::kCRX, GateKind::kCRY, GateKind::kCRZ),
        ::testing::Values(-2.2, -0.4, 0.0, 0.9, 1.7, 3.0)));

/// The RZ/CRZ matrix as it was once built: two complex exponentials.
Mat2 rz_by_exp(double theta) {
  constexpr cplx i{0.0, 1.0};
  return {std::exp(-i * (theta / 2.0)), cplx{0, 0}, cplx{0, 0},
          std::exp(i * (theta / 2.0))};
}

TEST(Gates, RzFromOneCosSinPairIsBitIdenticalToExp) {
  // gate_matrix builds RZ/CRZ from the cos/sin pair it already holds; the
  // bits of every bound matrix (and so of every trained or served result)
  // must equal the two-exponential form.
  std::vector<double> angles = {0.0,     -0.0,     1e-310,  -1e-310,
                                1e-300,  -1e-300,  1e-8,    -1e-8,
                                std::numbers::pi,  -std::numbers::pi,
                                2 * std::numbers::pi, 1e6, -1e15, 1e300};
  Rng rng(77);
  for (int k = 0; k < 1000000; ++k) {
    angles.push_back(rng.uniform(-4 * std::numbers::pi, 4 * std::numbers::pi));
  }
  for (int e = -1074; e <= 1023; ++e) {
    angles.push_back(std::ldexp(rng.uniform(1.0, 2.0), e));
    angles.push_back(-std::ldexp(rng.uniform(1.0, 2.0), e));
  }
  int mismatches = 0;
  for (const double theta : angles) {
    const Mat2 want = rz_by_exp(theta);
    for (const GateKind kind : {GateKind::kRZ, GateKind::kCRZ}) {
      const Mat2 got = gate_matrix(kind, theta);
      if (std::memcmp(got.data(), want.data(), sizeof(Mat2)) != 0) {
        if (++mismatches <= 5) ADD_FAILURE() << "theta " << theta;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << angles.size() << " angles";
}

TEST(Gates, Classification) {
  EXPECT_TRUE(is_parameterized(GateKind::kRX));
  EXPECT_TRUE(is_parameterized(GateKind::kCRZ));
  EXPECT_FALSE(is_parameterized(GateKind::kH));
  EXPECT_FALSE(is_parameterized(GateKind::kCNOT));
  EXPECT_TRUE(is_two_qubit(GateKind::kCNOT));
  EXPECT_TRUE(is_two_qubit(GateKind::kSWAP));
  EXPECT_FALSE(is_two_qubit(GateKind::kRY));
}

}  // namespace
}  // namespace sqvae::qsim
