// Slow-labeled scaling coverage: the amplitude-parallel kernels at
// 17..18-qubit widths (beyond the tier-1 suite's 14..16) and a 20-qubit
// 5-layer strongly-entangling circuit end-to-end through the cache-blocked
// CircuitExecutor, with serial-vs-parallel bitwise identity at every
// tested thread count — the PR's acceptance workload.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/gates.h"
#include "qsim/kernels.h"

namespace sqvae::qsim {
namespace {

constexpr double kTol = 1e-12;

#ifdef _OPENMP
constexpr int kThreadCounts[] = {1, 2, 4};
#else
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

/// Restores the amplitude-parallel threshold on scope exit.
class ThresholdGuard {
 public:
  ThresholdGuard() : saved_(kernels::parallel_threshold()) {}
  ~ThresholdGuard() { kernels::set_parallel_threshold(saved_); }

 private:
  std::size_t saved_;
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

TEST(ScalingSlow, ParallelKernelsBitwiseAtSeventeenAndEighteenQubits) {
  ThreadCountGuard guard;
  Rng rng(601);
  const kernels::KernelTable& par = kernels::parallel_table();
  const kernels::KernelTable& serial = kernels::active();
  for (const int n : {17, 18}) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> ref = random_amps(n, rng);
    const Mat2 m = random_unitary(rng);

    // One exercise per gate class, targeting the top qubits so every call
    // takes the pair-exchange (run-splitting) path.
    const auto apply_all = [&](const kernels::KernelTable& kt,
                               std::vector<cplx>& amps) {
      kt.apply_single(amps.data(), dim, m, n - 1);
      kt.apply_single(amps.data(), dim, m, 0);
      kt.apply_controlled_single(amps.data(), dim, m, 0, n - 1);
      kt.apply_controlled_single(amps.data(), dim, m, n - 1, 1);
      kt.apply_cnot(amps.data(), dim, 1, n - 1);
      kt.apply_cz(amps.data(), dim, 0, n - 1);
      kt.apply_swap(amps.data(), dim, 0, n - 1);
    };

    std::vector<cplx> expected = ref;
    apply_all(serial, expected);
    for (const int t : kThreadCounts) {
      guard.set(t);
      std::vector<cplx> got = ref;
      apply_all(par, got);
      expect_amps_bitwise(expected, got);
    }

    // Reductions: fixed block-ordered accumulation is thread-invariant.
    guard.set(1);
    const double norm1 = par.norm_squared(ref.data(), dim);
    const double z1 = par.expectation_z(ref.data(), dim, n - 1);
    EXPECT_NEAR(norm1, serial.norm_squared(ref.data(), dim), kTol);
    EXPECT_NEAR(z1, serial.expectation_z(ref.data(), dim, n - 1), kTol);
    for (const int t : kThreadCounts) {
      guard.set(t);
      const double norm_t = par.norm_squared(ref.data(), dim);
      const double z_t = par.expectation_z(ref.data(), dim, n - 1);
      EXPECT_EQ(std::memcmp(&norm1, &norm_t, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&z1, &z_t, sizeof(double)), 0);
    }
  }
}

TEST(ScalingSlow, TwentyQubitFiveLayerCircuitEndToEnd) {
  // The acceptance workload: a 20-qubit, 5-layer strongly-entangling
  // circuit through the cache-blocked executor. Serial execution and
  // amplitude-parallel execution at every tested thread count must agree
  // bit for bit, and the result must be a normalised state.
  ThreadCountGuard tguard;
  ThresholdGuard guard;
  Rng rng(602);
  const int qubits = 20;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(5, slot);
  std::vector<double> params(static_cast<std::size_t>(c.num_param_slots()));
  for (double& v : params) {
    v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  }

  CircuitExecutor exec(c);
  ASSERT_TRUE(exec.blocked());  // default block_qubits = 15 < 20
  EXPECT_GT(exec.num_block_groups(), 0u);
  EXPECT_GT(exec.num_exchange_steps(), 0u);  // ring CNOTs cross the blocks

  kernels::set_parallel_threshold(SIZE_MAX);  // serial baseline
  const Statevector serial = exec.run_from_zero(params);
  EXPECT_NEAR(serial.norm_squared(), 1.0, 1e-9);

  kernels::set_parallel_threshold(1);  // amplitude-parallel
  for (const int t : kThreadCounts) {
    tguard.set(t);
    const Statevector par = exec.run_from_zero(params);
    ASSERT_EQ(par.dim(), serial.dim());
    EXPECT_EQ(std::memcmp(par.amplitudes().data(),
                          serial.amplitudes().data(),
                          serial.dim() * sizeof(cplx)),
              0)
        << "threads=" << t;
  }
}

TEST(ScalingSlow, BlockedExecutorMatchesUnblockedAtEighteenQubits) {
  // Cross-check the blocked schedule against the plain plan at a width
  // where blocking engages by default (18 > 15).
  Rng rng(603);
  const int qubits = 18;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(2, slot);
  std::vector<double> params(static_cast<std::size_t>(c.num_param_slots()));
  for (double& v : params) {
    v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  }

  ExecutorOptions unblocked;
  unblocked.block_qubits = 24;
  CircuitExecutor plain(c, unblocked);
  ASSERT_FALSE(plain.blocked());
  CircuitExecutor blocked(c);
  ASSERT_TRUE(blocked.blocked());

  const Statevector want = plain.run_from_zero(params);
  const Statevector got = blocked.run_from_zero(params);
  ASSERT_EQ(want.dim(), got.dim());
  for (std::size_t i = 0; i < want.dim(); ++i) {
    ASSERT_NEAR(std::abs(want[i] - got[i]), 0.0, kTol) << "amplitude " << i;
  }
}

}  // namespace
}  // namespace sqvae::qsim
