// Cache-blocked executor schedule: plan-shape invariants of the
// deterministic commute-and-group reordering, golden equivalence of blocked
// execution against the unblocked plan and the gate-by-gate interpreter,
// and bitwise serial-vs-amplitude-parallel identity (the reordered step
// sequence is part of the compiled plan, so threading never changes result
// bits).
//
// The block size floor is 8 (executor.cpp clamps block_qubits to [8, 24]),
// so these tests run 10..12-qubit circuits against block_qubits = 8 to get
// real multi-block sweeps while staying tier-1 fast.
#include "qsim/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "qsim/circuit.h"
#include "qsim/kernels.h"

namespace sqvae::qsim {
namespace {

constexpr double kTol = 1e-12;

std::vector<double> random_params(int count, Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(count));
  for (double& v : p) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  return p;
}

Statevector random_state(int num_qubits, Rng& rng) {
  std::vector<cplx> amps(std::size_t{1} << num_qubits);
  double norm_sq = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.normal(), rng.normal()};
    norm_sq += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (cplx& a : amps) a *= inv;
  return Statevector(std::move(amps));
}

/// Appends one random gate drawn from the full alphabet (same construction
/// as qsim_executor_test.cpp).
void push_random_gate(Circuit& c, int num_qubits, int& next_slot, Rng& rng) {
  const GateKind kinds[] = {
      GateKind::kRX, GateKind::kRY,  GateKind::kRZ,  GateKind::kH,
      GateKind::kX,  GateKind::kY,   GateKind::kZ,   GateKind::kS,
      GateKind::kT,  GateKind::kCNOT, GateKind::kCZ, GateKind::kCRX,
      GateKind::kCRY, GateKind::kCRZ, GateKind::kSWAP};
  const GateKind k = kinds[rng.uniform_index(std::size(kinds))];
  const int target = rng.uniform_int(0, num_qubits - 1);
  int other = rng.uniform_int(0, num_qubits - 2);
  if (other >= target) ++other;
  auto param = [&]() {
    if (rng.bernoulli(0.5)) return Param::slot(next_slot++);
    return Param::value(rng.uniform(-std::numbers::pi, std::numbers::pi));
  };
  switch (k) {
    case GateKind::kRX: c.rx(target, param()); break;
    case GateKind::kRY: c.ry(target, param()); break;
    case GateKind::kRZ: c.rz(target, param()); break;
    case GateKind::kH: c.h(target); break;
    case GateKind::kX: c.x(target); break;
    case GateKind::kY: c.y(target); break;
    case GateKind::kZ: c.z(target); break;
    case GateKind::kS: c.s(target); break;
    case GateKind::kT: c.t(target); break;
    case GateKind::kCNOT: c.cnot(other, target); break;
    case GateKind::kCZ: c.cz(other, target); break;
    case GateKind::kCRX: c.crx(other, target, param()); break;
    case GateKind::kCRY: c.cry(other, target, param()); break;
    case GateKind::kCRZ: c.crz(other, target, param()); break;
    case GateKind::kSWAP: c.swap(other, target); break;
  }
}

void expect_states_close(const Statevector& a, const Statevector& b,
                         double tol = kTol) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, tol) << "amplitude " << i;
  }
}

void expect_states_bitwise(const Statevector& a, const Statevector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                        a.dim() * sizeof(cplx)),
            0);
}

/// Restores the amplitude-parallel threshold on scope exit.
class ThresholdGuard {
 public:
  ThresholdGuard() : saved_(kernels::parallel_threshold()) {}
  ~ThresholdGuard() { kernels::set_parallel_threshold(saved_); }

 private:
  std::size_t saved_;
};

ExecutorOptions block8() {
  ExecutorOptions opts;
  opts.block_qubits = 8;
  return opts;
}

TEST(BlockedExecutor, EngagesOnlyAboveBlockSize) {
  Circuit small(8);
  small.angle_embedding(0);
  CircuitExecutor at_limit(small, block8());
  EXPECT_FALSE(at_limit.blocked());
  EXPECT_EQ(at_limit.num_block_groups(), 0u);
  EXPECT_EQ(at_limit.num_exchange_steps(), 0u);
  EXPECT_EQ(at_limit.block_qubits(), 8);

  Circuit big(10);
  big.angle_embedding(0);
  CircuitExecutor blocked(big, block8());
  EXPECT_TRUE(blocked.blocked());
  EXPECT_GT(blocked.num_block_groups(), 0u);
}

TEST(BlockedExecutor, OptionsClampToSupportedRange) {
  Circuit c(10);
  c.angle_embedding(0);
  ExecutorOptions low;
  low.block_qubits = 2;
  EXPECT_EQ(CircuitExecutor(c, low).block_qubits(), 8);
  ExecutorOptions high;
  high.block_qubits = 40;
  EXPECT_EQ(CircuitExecutor(c, high).block_qubits(), 24);
}

TEST(BlockedExecutor, EnvironmentBlockSizeReadsWholeIntegersOnly) {
  // SQVAE_BLOCK_QUBITS resolves when no option is given; text that is not
  // one non-negative integer keeps the default of 15 (strtol used to read
  // "32k" as 32 and "1e6" as 1), and whole integers still clamp.
  struct Row {
    const char* text;
    int expected;
  };
  const Row rows[] = {{"-1", 15}, {"32k", 15}, {"1e6", 15}, {"", 15},
                      {"65536", 24}, {"10", 10}, {"3", 8}};
  const char* outer = std::getenv("SQVAE_BLOCK_QUBITS");
  const bool was_set = outer != nullptr;
  const std::string saved = was_set ? outer : "";
  Circuit c(10);
  c.angle_embedding(0);
  for (const Row& row : rows) {
    ::setenv("SQVAE_BLOCK_QUBITS", row.text, 1);
    EXPECT_EQ(CircuitExecutor(c).block_qubits(), row.expected)
        << "SQVAE_BLOCK_QUBITS=" << row.text;
  }
  ::unsetenv("SQVAE_BLOCK_QUBITS");
  EXPECT_EQ(CircuitExecutor(c).block_qubits(), 15);
  if (was_set) ::setenv("SQVAE_BLOCK_QUBITS", saved.c_str(), 1);
}

TEST(BlockedExecutor, AllLocalCircuitCompilesToSingleGroupSweep) {
  // Every gate stays below block_qubits = 8, so the whole plan is one
  // block-local group and no exchange steps exist.
  Circuit c(10);
  int slot = 0;
  for (int q = 0; q < 8; ++q) c.ry(q, Param::slot(slot++));
  for (int q = 0; q + 1 < 8; ++q) c.cnot(q, q + 1);
  CircuitExecutor exec(c, block8());
  ASSERT_TRUE(exec.blocked());
  EXPECT_EQ(exec.num_block_groups(), 1u);
  EXPECT_EQ(exec.num_exchange_steps(), 0u);
}

TEST(BlockedExecutor, HighTargetStepsBecomeExchangeGroups) {
  // Low gates / one high gate / low gates: the trailing low gates touch the
  // same wires as the leading ones, so they cannot commute past the
  // blockers' barrier — plan shape is local / exchange / local.
  Circuit c(10);
  c.ry(0, Param::slot(0)).ry(1, Param::slot(1));
  c.cnot(0, 9);  // crosses the block boundary -> exchange step
  c.ry(0, Param::slot(2)).ry(1, Param::slot(3));
  CircuitExecutor exec(c, block8());
  ASSERT_TRUE(exec.blocked());
  EXPECT_EQ(exec.num_exchange_steps(), 1u);
  EXPECT_GE(exec.num_block_groups(), 3u);
}

TEST(BlockedExecutor, DiagonalHighStepsStayBlockLocal) {
  // CZ on a high qubit is diagonal: elementwise over the amplitudes, so the
  // blocked schedule keeps it inside a local group (each block reads its
  // slice of the phase table) — no exchange step.
  Circuit c(10);
  c.ry(0, Param::slot(0));
  c.cz(0, 9);
  c.rz(9, Param::slot(1));
  CircuitExecutor exec(c, block8());
  ASSERT_TRUE(exec.blocked());
  EXPECT_EQ(exec.num_exchange_steps(), 0u);
}

TEST(BlockedExecutor, MatchesUnblockedPlanOnRandomCircuits) {
  Rng rng(51);
  ExecutorOptions unblocked;
  unblocked.block_qubits = 24;  // never engages at 12 qubits
  for (int trial = 0; trial < 12; ++trial) {
    const int qubits = 12;
    Circuit c(qubits);
    int next_slot = 0;
    const int gates = rng.uniform_int(20, 80);
    for (int g = 0; g < gates; ++g) {
      push_random_gate(c, qubits, next_slot, rng);
    }
    const auto params = random_params(c.num_param_slots(), rng);
    const Statevector initial = random_state(qubits, rng);

    CircuitExecutor plain(c, unblocked);
    ASSERT_FALSE(plain.blocked());
    Statevector want = initial;
    plain.run(params, want);

    CircuitExecutor blocked(c, block8());
    ASSERT_TRUE(blocked.blocked());
    Statevector got = initial;
    blocked.run(params, got);

    expect_states_close(want, got);
  }
}

TEST(BlockedExecutor, MatchesInterpreterOnEntanglingLayers) {
  Rng rng(52);
  const int qubits = 11;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(3, slot);
  const auto params = random_params(c.num_param_slots(), rng);

  const Statevector naive = run_from_zero(c, params);
  CircuitExecutor exec(c, block8());
  ASSERT_TRUE(exec.blocked());
  expect_states_close(naive, exec.run_from_zero(params));
}

TEST(BlockedExecutor, SerialAndParallelExecutionAreBitIdentical) {
  // The blocked schedule is compiled state: serial and amplitude-parallel
  // execution walk the identical step sequence, and the parallel kernels
  // are bit-identical to their serial bodies, so the amplitudes must match
  // bit for bit at every thread count.
  ThresholdGuard guard;
  Rng rng(53);
  const int qubits = 12;
  Circuit c(qubits);
  int next_slot = 0;
  for (int g = 0; g < 60; ++g) {
    push_random_gate(c, qubits, next_slot, rng);
  }
  const auto params = random_params(c.num_param_slots(), rng);
  const Statevector initial = random_state(qubits, rng);
  CircuitExecutor exec(c, block8());
  ASSERT_TRUE(exec.blocked());

  kernels::set_parallel_threshold(SIZE_MAX);  // pin the serial path
  Statevector serial = initial;
  exec.run(params, serial);

  kernels::set_parallel_threshold(1);  // force amplitude-parallel
  for (const int t : {1, 2, 3, 4}) {
    const thread_budget::Scope budget(t);
    Statevector par = initial;
    exec.run(params, par);
    expect_states_bitwise(serial, par);
  }
}

TEST(BlockedExecutor, RunBatchAndAdjointMatchUnblockedPath) {
  Rng rng(54);
  const int qubits = 10;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(2, slot);

  const int batch = 4;
  std::vector<std::vector<double>> params_batch;
  std::vector<Statevector> blocked_states;
  std::vector<Statevector> plain_states;
  std::vector<std::vector<double>> diags;
  for (int i = 0; i < batch; ++i) {
    params_batch.push_back(random_params(c.num_param_slots(), rng));
    Statevector s = random_state(qubits, rng);
    blocked_states.push_back(s);
    plain_states.push_back(std::move(s));
    std::vector<double> d(std::size_t{1} << qubits);
    for (double& v : d) v = rng.uniform(-1.0, 1.0);
    diags.push_back(std::move(d));
  }

  ExecutorOptions unblocked;
  unblocked.block_qubits = 24;
  CircuitExecutor plain(c, unblocked);
  CircuitExecutor blocked(c, block8());
  ASSERT_TRUE(blocked.blocked());

  plain.run_batch(params_batch, plain_states);
  blocked.run_batch(params_batch, blocked_states);
  for (int i = 0; i < batch; ++i) {
    expect_states_close(plain_states[i], blocked_states[i]);
  }

  // Each side walks back from the final states its own forward produced.
  const auto want = plain.adjoint_batch(params_batch, plain_states, diags);
  const auto got = blocked.adjoint_batch(params_batch, blocked_states, diags);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(want[i].value, got[i].value, kTol);
    ASSERT_EQ(want[i].param_grads.size(), got[i].param_grads.size());
    for (std::size_t j = 0; j < want[i].param_grads.size(); ++j) {
      EXPECT_NEAR(want[i].param_grads[j], got[i].param_grads[j], kTol);
    }
  }
}

}  // namespace
}  // namespace sqvae::qsim
