#include "autodiff/tape.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.h"

namespace sqvae::ad {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng,
                     double lo = -1.0, double hi = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.uniform(lo, hi);
  return m;
}

/// Checks d(scalar graph)/d(param) against central finite differences for
/// every element of `param`.
void check_gradient(Parameter& param,
                    const std::function<double()>& scalar_eval,
                    const std::function<Var(Tape&)>& graph_builder,
                    double tol = 1e-5) {
  Tape tape;
  Var loss = graph_builder(tape);
  param.zero_grad();
  tape.backward(loss);
  const Matrix analytic = param.grad;

  const double eps = 1e-6;
  for (std::size_t i = 0; i < param.value.size(); ++i) {
    const double saved = param.value[i];
    param.value[i] = saved + eps;
    const double plus = scalar_eval();
    param.value[i] = saved - eps;
    const double minus = scalar_eval();
    param.value[i] = saved;
    EXPECT_NEAR(analytic[i], (plus - minus) / (2 * eps), tol)
        << "element " << i;
  }
}

TEST(Tape, MatmulForwardAndGradients) {
  Rng rng(1);
  Parameter a(random_matrix(3, 4, rng));
  Parameter b(random_matrix(4, 2, rng));
  auto build = [&](Tape& t) {
    Var out = t.matmul(t.leaf(&a), t.leaf(&b));
    // Reduce to scalar with MSE against zeros: loss = mean(out^2).
    return t.mse_loss(out, Matrix(3, 2));
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  check_gradient(a, eval, build);
  check_gradient(b, eval, build);
}

TEST(Tape, AddBiasBroadcastsRow) {
  Rng rng(2);
  Parameter x(random_matrix(4, 3, rng));
  Parameter bias(random_matrix(1, 3, rng));
  auto build = [&](Tape& t) {
    return t.mse_loss(t.add_bias(t.leaf(&x), t.leaf(&bias)), Matrix(4, 3, 0.5));
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  check_gradient(x, eval, build);
  check_gradient(bias, eval, build);
}

class ElementwiseOp
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ElementwiseOp, GradientMatchesFiniteDifference) {
  const auto [op_name, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  // Keep values in ranges where the op is smooth (away from ReLU's kink).
  Parameter x(random_matrix(3, 3, rng, 0.1, 2.0));
  Parameter y(random_matrix(3, 3, rng, 0.1, 2.0));
  const std::string name = op_name;
  auto apply = [name](Tape& t, Var a, Var b) {
    if (name == "relu") return t.relu(a);
    if (name == "sigmoid") return t.sigmoid(a);
    if (name == "tanh") return t.tanh_(a);
    if (name == "exp") return t.exp_(a);
    if (name == "mul") return t.mul(a, b);
    if (name == "add") return t.add(a, b);
    if (name == "sub") return t.sub(a, b);
    if (name == "scale") return t.scale(a, -1.7);
    return a;
  };
  auto build = [&](Tape& t) {
    Var out = apply(t, t.leaf(&x), t.leaf(&y));
    return t.mse_loss(out, Matrix(3, 3, 0.3));
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  check_gradient(x, eval, build);
  if (name == "mul" || name == "add" || name == "sub") {
    check_gradient(y, eval, build);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ElementwiseOp,
    ::testing::Values(std::tuple{std::string("relu"), 10},
                      std::tuple{std::string("sigmoid"), 11},
                      std::tuple{std::string("tanh"), 12},
                      std::tuple{std::string("exp"), 13},
                      std::tuple{std::string("mul"), 14},
                      std::tuple{std::string("add"), 15},
                      std::tuple{std::string("sub"), 16},
                      std::tuple{std::string("scale"), 17}));

TEST(Tape, ReluForwardClampsNegatives) {
  Tape t;
  Var x = t.constant(Matrix{{-1.0, 0.0, 2.5}});
  const Matrix& y = t.value(t.relu(x));
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_EQ(y(0, 2), 2.5);
}

TEST(Tape, SigmoidForwardValues) {
  Tape t;
  Var x = t.constant(Matrix{{0.0}});
  EXPECT_NEAR(t.value(t.sigmoid(x))(0, 0), 0.5, 1e-12);
}

TEST(Tape, SliceConcatRoundTrip) {
  Rng rng(3);
  Parameter x(random_matrix(2, 6, rng));
  auto build = [&](Tape& t) {
    Var v = t.leaf(&x);
    Var left = t.slice_cols(v, 0, 3);
    Var right = t.slice_cols(v, 3, 3);
    Var joined = t.concat_cols({left, right});
    return t.mse_loss(joined, Matrix(2, 6, 0.1));
  };
  Tape t;
  Var loss = build(t);
  // Forward: concat(slice) reproduces the original values.
  // (verified via the loss being the same as direct mse)
  const double direct = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < x.value.size(); ++i) {
      const double d = x.value[i] - 0.1;
      s += d * d;
    }
    return s / static_cast<double>(x.value.size());
  }();
  EXPECT_NEAR(t.value(loss)(0, 0), direct, 1e-12);
  auto eval = [&]() {
    Tape tt;
    return tt.value(build(tt))(0, 0);
  };
  check_gradient(x, eval, build);
}

TEST(Tape, KlGaussianValueAndGradient) {
  // KL(N(mu, e^lv) || N(0,1)) per element = 0.5 (e^lv + mu^2 - 1 - lv).
  Rng rng(4);
  Parameter mu(random_matrix(2, 3, rng));
  Parameter logvar(random_matrix(2, 3, rng, -1.0, 1.0));
  auto build = [&](Tape& t) {
    return t.kl_gaussian(t.leaf(&mu), t.leaf(&logvar));
  };
  Tape t;
  Var kl = build(t);
  double expected = 0.0;
  for (std::size_t i = 0; i < mu.value.size(); ++i) {
    expected += 0.5 * (std::exp(logvar.value[i]) +
                       mu.value[i] * mu.value[i] - 1.0 - logvar.value[i]);
  }
  expected /= 2.0;  // batch mean (2 rows)
  EXPECT_NEAR(t.value(kl)(0, 0), expected, 1e-12);

  auto eval = [&]() {
    Tape tt;
    return tt.value(build(tt))(0, 0);
  };
  check_gradient(mu, eval, build);
  check_gradient(logvar, eval, build);
}

TEST(Tape, KlIsZeroForStandardNormal) {
  Tape t;
  Var kl = t.kl_gaussian(t.constant(Matrix(3, 4)), t.constant(Matrix(3, 4)));
  EXPECT_NEAR(t.value(kl)(0, 0), 0.0, 1e-12);
}

TEST(Tape, MseLossValue) {
  Tape t;
  Var pred = t.constant(Matrix{{1.0, 2.0}, {3.0, 4.0}});
  Var loss = t.mse_loss(pred, Matrix{{0.0, 2.0}, {3.0, 2.0}});
  EXPECT_NEAR(t.value(loss)(0, 0), (1.0 + 0.0 + 0.0 + 4.0) / 4.0, 1e-12);
}

TEST(Tape, CustomOpBackwardReceivesUpstreamGradient) {
  // Custom op: y = 3x. Backward must push 3 * upstream.
  Rng rng(5);
  Parameter x(random_matrix(2, 2, rng));
  auto build = [&](Tape& t) {
    Var xv = t.leaf(&x);
    Matrix y = t.value(xv) * 3.0;
    Var out = t.custom({xv}, std::move(y), [xv](Tape& tt, const Matrix& g) {
      tt.accum_grad(xv, g * 3.0);
    });
    return t.mse_loss(out, Matrix(2, 2, 1.0));
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  check_gradient(x, eval, build);
}

TEST(Tape, GradientsAccumulateAcrossBackwardPasses) {
  Parameter x(Matrix{{2.0}});
  for (int pass = 0; pass < 3; ++pass) {
    Tape t;
    Var loss = t.mse_loss(t.leaf(&x), Matrix(1, 1));  // d/dx = 2x = 4
    t.backward(loss);
  }
  EXPECT_NEAR(x.grad(0, 0), 3 * 4.0, 1e-12);
  x.zero_grad();
  EXPECT_EQ(x.grad(0, 0), 0.0);
}

TEST(Tape, ConstantsReceiveNoGradient) {
  Tape t;
  Var c = t.constant(Matrix{{1.0, 2.0}});
  Parameter p(Matrix{{3.0, 4.0}});
  Var loss = t.mse_loss(t.mul(c, t.leaf(&p)), Matrix(1, 2));
  t.backward(loss);
  EXPECT_FALSE(t.requires_grad(c));
  EXPECT_GT(std::abs(p.grad(0, 0)), 0.0);
}

TEST(Tape, ValuesOnlyTapeComputesValuesAndRecordsNoGradient) {
  // Inference builds the training graph on a values-only tape: leaves come
  // in as constants, so nothing requires a gradient, and every value keeps
  // its bits.
  Rng rng(8);
  Parameter w(random_matrix(4, 3, rng));
  Parameter b(random_matrix(1, 3, rng));
  const Matrix x = random_matrix(2, 4, rng);
  auto build = [&](Tape& t) {
    return t.sigmoid(t.add_bias(t.matmul(t.constant(x), t.leaf(&w)),
                                t.leaf(&b)));
  };
  Tape differentiable;
  const Var y = build(differentiable);
  Tape values_only{ValuesOnly{}};
  const Var v = build(values_only);
  EXPECT_TRUE(differentiable.requires_grad(y));
  for (int id = 0; id < static_cast<int>(values_only.num_nodes()); ++id) {
    EXPECT_FALSE(values_only.requires_grad(Var{id})) << "node " << id;
  }
  EXPECT_EQ(values_only.value(v), differentiable.value(y));
}

TEST(Tape, DiamondGraphAccumulatesBothPaths) {
  // loss = mean((x + x)^2): d/dx = 4x/n per element times 2... checked by FD.
  Rng rng(6);
  Parameter x(random_matrix(2, 2, rng));
  auto build = [&](Tape& t) {
    Var v = t.leaf(&x);
    return t.mse_loss(t.add(v, v), Matrix(2, 2));
  };
  auto eval = [&]() {
    Tape t;
    return t.value(build(t))(0, 0);
  };
  check_gradient(x, eval, build);
}

}  // namespace
}  // namespace sqvae::ad
