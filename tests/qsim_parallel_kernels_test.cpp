// Golden equivalence of the amplitude-parallel kernel table
// (kernels::parallel_table()) against the active serial table, and bitwise
// 1-thread-vs-N-thread reproducibility, at register widths 14..16.
//
// Contract under test (kernels.h "amplitude-parallel layer"):
//
//   * gate kernels, elementwise kernels, and the lambda output of
//     apply_diag_observable are BIT-IDENTICAL to the serial table — the
//     parallel drivers run the serial bodies on disjoint chunks with
//     partition-invariant arithmetic — at every thread count;
//   * reductions (inner, norm_squared, expectation_z, the value of
//     apply_diag_observable) use fixed block-ordered accumulation: bitwise
//     reproducible across thread counts, and within 1e-12 of the serial
//     single-chain result;
//   * the high-qubit pair-exchange paths (qubit masks above the chunk
//     size) are covered by targeting the top qubits explicitly.
//
// Widths 14..16 sit above the chunk size (2^12 amplitudes), so both driver
// regimes — chunked sub-array calls and flattened pair-run splitting — are
// exercised. Widths 17..18 ride in qsim_scaling_slow_test.cpp.
#include "qsim/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "qsim/gates.h"

namespace sqvae::qsim {
namespace {

constexpr double kTol = 1e-12;

#ifdef _OPENMP
constexpr int kThreadCounts[] = {1, 2, 3, 4};
#else
// Without OpenMP the drivers run the same chunk loop serially; the sweep
// still pins the chunked-reduction bits.
constexpr int kThreadCounts[] = {1};
#endif

/// Pins the test thread's budget (common/thread_budget.h), which every
/// parallel region sizes its team from, until the next set() or the end
/// of the guard's scope.
class ThreadCountGuard {
 public:
  void set(int threads) {
    scope_.reset();
    scope_.emplace(threads);
  }

 private:
  std::optional<thread_budget::Scope> scope_;
};

std::vector<cplx> random_amps(int num_qubits, Rng& rng) {
  std::vector<cplx> amps(std::size_t{1} << num_qubits);
  double norm_sq = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.normal(), rng.normal()};
    norm_sq += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (cplx& a : amps) a *= inv;
  return amps;
}

Mat2 random_unitary(Rng& rng) {
  const Mat2 a = gate_matrix(GateKind::kRZ, rng.uniform(-3.0, 3.0));
  const Mat2 b = gate_matrix(GateKind::kRY, rng.uniform(-3.0, 3.0));
  const Mat2 c = gate_matrix(GateKind::kRX, rng.uniform(-3.0, 3.0));
  return matmul2(a, matmul2(b, c));
}

void expect_amps_bitwise(const std::vector<cplx>& a,
                         const std::vector<cplx>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0);
}

const kernels::KernelTable& par() { return kernels::parallel_table(); }
const kernels::KernelTable& serial() { return kernels::active(); }

/// Target positions spanning every driver regime: adjacent shuffle (0),
/// low strides (1, 2), the chunk boundary neighbourhood (middle), and the
/// high-qubit pair-exchange path (n-2, n-1).
std::vector<int> targets_for(int n) { return {0, 1, 2, n / 2, n - 2, n - 1}; }

/// (control, target) pairs covering both orders of low/high masks.
std::vector<std::pair<int, int>> pairs_for(int n) {
  return {{0, 1},     {1, 0},     {0, n - 1},     {n - 1, 0},
          {n - 2, n - 1}, {n - 1, n - 2}, {1, n / 2}, {n / 2, n - 1}};
}

/// Runs `op` (which mutates a fresh copy of `ref` through some kernel
/// table) once against the serial table and once per thread count against
/// the parallel table; every parallel result must equal the serial bits.
template <typename Op>
void check_gate_bitwise(const std::vector<cplx>& ref, Op op) {
  ThreadCountGuard guard;
  std::vector<cplx> expected = ref;
  op(serial(), expected);
  for (const int t : kThreadCounts) {
    guard.set(t);
    std::vector<cplx> got = ref;
    op(par(), got);
    expect_amps_bitwise(expected, got);
  }
}

TEST(ParallelKernels, ApplySingleBitwiseAtEveryThreadCount) {
  Rng rng(301);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> ref = random_amps(n, rng);
    for (const int target : targets_for(n)) {
      const Mat2 m = random_unitary(rng);
      check_gate_bitwise(ref,
                         [&](const kernels::KernelTable& kt,
                             std::vector<cplx>& amps) {
                           kt.apply_single(amps.data(), dim, m, target);
                         });
    }
  }
}

TEST(ParallelKernels, ApplyControlledSingleBitwiseAtEveryThreadCount) {
  Rng rng(302);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> ref = random_amps(n, rng);
    for (const auto& [control, target] : pairs_for(n)) {
      const Mat2 m = random_unitary(rng);
      check_gate_bitwise(
          ref, [&](const kernels::KernelTable& kt, std::vector<cplx>& amps) {
            kt.apply_controlled_single(amps.data(), dim, m, control, target);
          });
    }
  }
}

TEST(ParallelKernels, CnotCzSwapBitwiseAtEveryThreadCount) {
  Rng rng(303);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> ref = random_amps(n, rng);
    for (const auto& [a, b] : pairs_for(n)) {
      check_gate_bitwise(ref,
                         [&](const kernels::KernelTable& kt,
                             std::vector<cplx>& amps) {
                           kt.apply_cnot(amps.data(), dim, a, b);
                         });
      check_gate_bitwise(ref,
                         [&](const kernels::KernelTable& kt,
                             std::vector<cplx>& amps) {
                           kt.apply_cz(amps.data(), dim, a, b);
                         });
      check_gate_bitwise(ref,
                         [&](const kernels::KernelTable& kt,
                             std::vector<cplx>& amps) {
                           kt.apply_swap(amps.data(), dim, a, b);
                         });
    }
  }
}

TEST(ParallelKernels, DiagonalTableBitwiseAtEveryThreadCount) {
  Rng rng(304);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> ref = random_amps(n, rng);
    kernels::DiagonalRun run;
    run.push_factor(0, cplx{1.0, 0.0}, cplx{0.2, 0.9});
    run.push_factor(n - 1, cplx{0.8, -0.1}, cplx{1.0, 0.0});
    run.push_pair(1, n - 2, cplx{0.5, 0.5}, cplx{-0.5, 0.5});
    std::vector<cplx> table;
    kernels::build_diagonal_table(run, n, table);
    check_gate_bitwise(
        ref, [&](const kernels::KernelTable& kt, std::vector<cplx>& amps) {
          kt.apply_diagonal_table(amps.data(), dim, table.data());
        });
  }
}

TEST(ParallelKernels, PairRunPrimitivesBitwiseAtEveryThreadCount) {
  Rng rng(305);
  const int n = 15;
  const std::size_t half = std::size_t{1} << (n - 1);
  const std::vector<cplx> ref = random_amps(n, rng);
  const Mat2 m = random_unitary(rng);
  check_gate_bitwise(ref, [&](const kernels::KernelTable& kt,
                              std::vector<cplx>& amps) {
    kt.apply_single_pairs(amps.data(), amps.data() + half, half, m);
  });
  check_gate_bitwise(ref, [&](const kernels::KernelTable& kt,
                              std::vector<cplx>& amps) {
    kt.swap_runs(amps.data(), amps.data() + half, half);
  });
  check_gate_bitwise(ref, [&](const kernels::KernelTable& kt,
                              std::vector<cplx>& amps) {
    kt.negate_run(amps.data(), amps.size());
  });
}

TEST(ParallelKernels, ProbabilitiesBitwiseAtEveryThreadCount) {
  ThreadCountGuard guard;
  Rng rng(306);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> amps = random_amps(n, rng);
    std::vector<double> expected(dim);
    serial().probabilities(amps.data(), dim, expected.data());
    for (const int t : kThreadCounts) {
      guard.set(t);
      std::vector<double> got(dim);
      par().probabilities(amps.data(), dim, got.data());
      EXPECT_EQ(
          std::memcmp(expected.data(), got.data(), dim * sizeof(double)), 0)
          << "n=" << n << " threads=" << t;
    }
  }
}

TEST(ParallelKernels, ReductionsNearSerialAndBitwiseAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(307);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> a = random_amps(n, rng);
    const std::vector<cplx> b = random_amps(n, rng);

    // One-thread parallel results are the fixed-order baseline.
    guard.set(1);
    const cplx inner1 = par().inner(a.data(), b.data(), dim);
    const double norm1 = par().norm_squared(a.data(), dim);
    std::vector<double> z1;
    for (const int q : targets_for(n)) {
      z1.push_back(par().expectation_z(a.data(), dim, q));
    }

    // Within tolerance of the serial single-chain reduction.
    EXPECT_NEAR(std::abs(inner1 - serial().inner(a.data(), b.data(), dim)),
                0.0, kTol);
    EXPECT_NEAR(norm1, serial().norm_squared(a.data(), dim), kTol);
    for (std::size_t i = 0; i < z1.size(); ++i) {
      const int q = targets_for(n)[i];
      EXPECT_NEAR(z1[i], serial().expectation_z(a.data(), dim, q), kTol);
    }

    // Bit-identical at every thread count (block-ordered accumulation).
    for (const int t : kThreadCounts) {
      guard.set(t);
      const cplx inner_t = par().inner(a.data(), b.data(), dim);
      EXPECT_EQ(std::memcmp(&inner1, &inner_t, sizeof(cplx)), 0)
          << "inner, n=" << n << " threads=" << t;
      const double norm_t = par().norm_squared(a.data(), dim);
      EXPECT_EQ(std::memcmp(&norm1, &norm_t, sizeof(double)), 0)
          << "norm, n=" << n << " threads=" << t;
      for (std::size_t i = 0; i < z1.size(); ++i) {
        const int q = targets_for(n)[i];
        const double z_t = par().expectation_z(a.data(), dim, q);
        EXPECT_EQ(std::memcmp(&z1[i], &z_t, sizeof(double)), 0)
            << "expectation_z q=" << q << ", n=" << n << " threads=" << t;
      }
    }
  }
}

TEST(ParallelKernels, CrossNearSerialAndBitwiseAcrossThreadCounts) {
  // Low qubits run the serial cross on whole chunks, high qubits the
  // chunked pair runs through cross_pairs; both combine partials in chunk
  // order.
  ThreadCountGuard guard;
  Rng rng(309);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> l = random_amps(n, rng);
    const std::vector<cplx> p = random_amps(n, rng);
    std::vector<std::pair<int, int>> cases;
    for (const int t : targets_for(n)) cases.emplace_back(-1, t);
    for (const auto& ct : pairs_for(n)) cases.push_back(ct);
    for (const auto& [control, target] : cases) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " control="
                                        << control << " target=" << target);
      guard.set(1);
      const Mat2 one = par().cross(l.data(), p.data(), dim, control, target);
      const Mat2 ref =
          serial().cross(l.data(), p.data(), dim, control, target);
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_NEAR(std::abs(one[k] - ref[k]), 0.0, kTol);
      }
      for (const int t : kThreadCounts) {
        guard.set(t);
        const Mat2 got =
            par().cross(l.data(), p.data(), dim, control, target);
        EXPECT_EQ(std::memcmp(one.data(), got.data(), sizeof(Mat2)), 0)
            << "threads=" << t;
      }
    }
    // The pair-run entry itself, over the two halves of the array.
    const std::size_t half = dim / 2;
    guard.set(1);
    const Mat2 one = par().cross_pairs(l.data(), l.data() + half, p.data(),
                                       p.data() + half, half);
    for (const int t : kThreadCounts) {
      guard.set(t);
      const Mat2 got = par().cross_pairs(l.data(), l.data() + half, p.data(),
                                         p.data() + half, half);
      EXPECT_EQ(std::memcmp(one.data(), got.data(), sizeof(Mat2)), 0)
          << "cross_pairs n=" << n << " threads=" << t;
    }
  }
}

TEST(ParallelKernels, DiagObservableLambdaBitwiseValueFixedOrder) {
  ThreadCountGuard guard;
  Rng rng(308);
  for (const int n : {14, 16}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> psi = random_amps(n, rng);
    std::vector<double> diag(dim);
    for (double& d : diag) d = rng.uniform(-2.0, 2.0);

    std::vector<cplx> lambda_serial(dim);
    const double value_serial = serial().apply_diag_observable(
        diag.data(), psi.data(), lambda_serial.data(), dim);

    guard.set(1);
    std::vector<cplx> lambda1(dim);
    const double value1 = par().apply_diag_observable(
        diag.data(), psi.data(), lambda1.data(), dim);
    // Lambda is elementwise: bit-identical to the serial table.
    expect_amps_bitwise(lambda_serial, lambda1);
    EXPECT_NEAR(value1, value_serial, kTol);

    for (const int t : kThreadCounts) {
      guard.set(t);
      std::vector<cplx> lambda_t(dim);
      const double value_t = par().apply_diag_observable(
          diag.data(), psi.data(), lambda_t.data(), dim);
      expect_amps_bitwise(lambda1, lambda_t);
      EXPECT_EQ(std::memcmp(&value1, &value_t, sizeof(double)), 0)
          << "n=" << n << " threads=" << t;
    }
  }
}

TEST(ParallelKernels, TableForRespectsThresholdAndNesting) {
  const std::size_t saved = kernels::parallel_threshold();
  kernels::set_parallel_threshold(std::size_t{1} << 10);
  const kernels::KernelTable* large =
      thread_budget::kOpenMP ? &kernels::parallel_table() : &kernels::active();
  EXPECT_EQ(&kernels::table_for(std::size_t{1} << 12), large);
  EXPECT_EQ(&kernels::table_for(std::size_t{1} << 8), &kernels::active());
  {
    // The table depends on the size only: a nested team member at budget 1
    // keeps the chunked table (and its reduction bits), run on one thread.
    const thread_budget::Scope member(1);
    EXPECT_EQ(&kernels::table_for(std::size_t{1} << 12), large);
  }
  kernels::set_parallel_threshold(saved);
}

}  // namespace
}  // namespace sqvae::qsim
