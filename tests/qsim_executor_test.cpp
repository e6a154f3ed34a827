// Golden-value equivalence of the compiled CircuitExecutor against the
// gate-by-gate Statevector interpreter, plus fusion-plan structure checks.
// The executor's fused plan must be numerically indistinguishable (well
// below any training tolerance) from qsim::run on every circuit the gate
// alphabet can express, for any slot/constant parameter mix.
#include "qsim/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "qsim/circuit.h"
#include "qsim/embedding.h"
#include "qsim/observable.h"

namespace sqvae::qsim {
namespace {

constexpr double kTol = 1e-12;

std::vector<double> random_params(int count, Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(count));
  for (double& v : p) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  return p;
}

/// Random normalised state, exercising non-|0...0> initial conditions.
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

/// Appends one random gate drawn from the full alphabet. Parameterized
/// gates flip a coin between a fresh slot and an inline constant.
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

TEST(CircuitExecutor, MatchesInterpreterOnRandomizedCircuits) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const int qubits = rng.uniform_int(2, 6);
    const int gates = rng.uniform_int(1, 60);
    Circuit c(qubits);
    int next_slot = 0;
    for (int g = 0; g < gates; ++g) {
      push_random_gate(c, qubits, next_slot, rng);
    }
    const auto params = random_params(c.num_param_slots(), rng);

    Statevector initial = random_state(qubits, rng);
    Statevector naive = initial;
    run(c, params, naive);

    CircuitExecutor exec(c);
    Statevector fused = initial;
    exec.run(params, fused);

    expect_states_close(naive, fused);
  }
}

TEST(CircuitExecutor, MatchesInterpreterOnEntanglingLayerCircuit) {
  Rng rng(42);
  for (const int qubits : {1, 2, 4, 7}) {
    Circuit c(qubits);
    int slot = c.angle_embedding(0);
    c.strongly_entangling_layers(3, slot);
    const auto params = random_params(c.num_param_slots(), rng);

    Statevector naive = run_from_zero(c, params);
    CircuitExecutor exec(c);
    expect_states_close(naive, exec.run_from_zero(params));
  }
}

TEST(CircuitExecutor, FusesSameTargetRunsIntoOneStep) {
  // RY·RZ·RY·RZ on one qubit collapses to a single plan step.
  Circuit c(2);
  c.rz(0, Param::slot(0))
      .ry(0, Param::slot(1))
      .rz(0, Param::value(0.3))
      .ry(0, Param::value(-0.7));
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_circuit_ops(), 4u);
  EXPECT_EQ(exec.num_plan_ops(), 1u);

  Rng rng(7);
  const auto params = random_params(c.num_param_slots(), rng);
  expect_states_close(run_from_zero(c, params), exec.run_from_zero(params));
}

TEST(CircuitExecutor, FusesAcrossInterleavedTargets) {
  // Gates alternate between qubits; commuting single-qubit gates must still
  // merge into one fused step per wire.
  Circuit c(2);
  c.ry(0, Param::slot(0))
      .ry(1, Param::slot(1))
      .rz(0, Param::slot(2))
      .rz(1, Param::slot(3))
      .h(0)
      .h(1);
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_circuit_ops(), 6u);
  EXPECT_EQ(exec.num_plan_ops(), 2u);

  Rng rng(8);
  const auto params = random_params(c.num_param_slots(), rng);
  expect_states_close(run_from_zero(c, params), exec.run_from_zero(params));
}

TEST(CircuitExecutor, TwoQubitGateCutsFusionOnItsWiresOnly) {
  // CNOT(0,1) must flush pending runs on qubits 0 and 1 but not on qubit 2.
  Circuit c(3);
  c.ry(0, Param::slot(0))
      .ry(2, Param::slot(1))
      .cnot(0, 1)
      .rz(0, Param::slot(2))
      .rz(2, Param::slot(3));
  CircuitExecutor exec(c);
  // Plan: fused RY(q0); CNOT; fused RZ(q0); fused RY·RZ(q2) -> 4 steps.
  EXPECT_EQ(exec.num_plan_ops(), 4u);

  Rng rng(9);
  const auto params = random_params(c.num_param_slots(), rng);
  expect_states_close(run_from_zero(c, params), exec.run_from_zero(params));
}

TEST(CircuitExecutor, EntanglingLayerPlanIsCompact) {
  // One strongly entangling layer after angle embedding: per qubit the
  // embedding RY and the Rot's RZ·RY·RZ fuse into one step, plus the ring
  // of n CNOTs -> 2n plan steps for 5n circuit ops (n >= 2).
  const int qubits = 5;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(1, slot);
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_circuit_ops(), static_cast<std::size_t>(5 * qubits));
  EXPECT_EQ(exec.num_plan_ops(), static_cast<std::size_t>(2 * qubits));
}

TEST(CircuitExecutor, RunBatchMatchesPerSampleRuns) {
  Rng rng(43);
  const int qubits = 4;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(2, slot);
  CircuitExecutor exec(c);

  const std::size_t batch = 9;
  std::vector<std::vector<double>> params(batch);
  std::vector<Statevector> states;
  states.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    params[i] = random_params(c.num_param_slots(), rng);
    states.emplace_back(qubits);
  }
  exec.run_batch(params, states);

  for (std::size_t i = 0; i < batch; ++i) {
    expect_states_close(run_from_zero(c, params[i]), states[i]);
  }
}

/// A random adjoint workload for `c`: per-sample slot values, initial
/// states and cotangent-weighted <Z> diagonals.
struct AdjointCase {
  /// The final states adjoint_batch starts from: run_batch over copies of
  /// the initial states.
  std::vector<Statevector> finals(const CircuitExecutor& exec) const {
    std::vector<Statevector> states = initials;
    exec.run_batch(params, states);
    return states;
  }

  std::vector<std::vector<double>> params;
  std::vector<Statevector> initials;
  std::vector<std::vector<double>> diags;

  AdjointCase(const Circuit& c, std::size_t batch, Rng& rng) {
    const int qubits = c.num_qubits();
    for (std::size_t i = 0; i < batch; ++i) {
      params.push_back(random_params(c.num_param_slots(), rng));
      std::vector<double> cot(static_cast<std::size_t>(qubits));
      for (double& v : cot) v = rng.uniform(-1, 1);
      diags.push_back(weighted_z_diagonal(qubits, cot));
      initials.push_back(random_state(qubits, rng));
    }
  }
};

/// run_batch then adjoint_batch (fused forward, plan reverse walk) against
/// the interpreter's per-gate adjoint_gradient: the value within kTol,
/// every slot gradient and the initial-state cotangent within 1e-10.
void expect_adjoint_matches_oracle(const Circuit& c,
                                   const ExecutorOptions& options,
                                   std::size_t batch, Rng& rng) {
  const CircuitExecutor exec(c, options);
  const AdjointCase w(c, batch, rng);
  const auto batched = exec.adjoint_batch(w.params, w.finals(exec), w.diags);
  ASSERT_EQ(batched.size(), batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const AdjointResult ref =
        adjoint_gradient(c, w.params[i], w.initials[i], w.diags[i]);
    EXPECT_NEAR(batched[i].value, ref.value, kTol);
    ASSERT_EQ(batched[i].param_grads.size(), ref.param_grads.size());
    for (std::size_t s = 0; s < ref.param_grads.size(); ++s) {
      EXPECT_NEAR(batched[i].param_grads[s], ref.param_grads[s], 1e-10)
          << "slot " << s;
    }
    ASSERT_EQ(batched[i].initial_lambda.size(), ref.initial_lambda.size());
    for (std::size_t j = 0; j < ref.initial_lambda.size(); ++j) {
      EXPECT_NEAR(std::abs(batched[i].initial_lambda[j] -
                           ref.initial_lambda[j]),
                  0.0, 1e-10)
          << "amplitude " << j;
    }
  }
}

TEST(CircuitExecutor, AdjointBatchMatchesAdjointGradient) {
  Rng rng(44);
  for (int trial = 0; trial < 30; ++trial) {
    const int qubits = rng.uniform_int(2, 6);
    Circuit c(qubits);
    int next_slot = 0;
    const int gates = rng.uniform_int(1, 60);
    for (int g = 0; g < gates; ++g) push_random_gate(c, qubits, next_slot, rng);
    expect_adjoint_matches_oracle(c, {}, 3, rng);
  }
}

TEST(CircuitExecutor, AdjointSharedSlotInsideOneFusedRun) {
  // Slot 0 drives three factors of one fused step and slot 1 two more;
  // their gradients accumulate within the step's single reduction.
  Circuit c(3);
  c.rz(1, Param::slot(0))
      .ry(1, Param::slot(0))
      .rx(1, Param::slot(1))
      .rz(1, Param::slot(0))
      .ry(1, Param::slot(1))
      .cnot(1, 2)
      .ry(0, Param::slot(0))
      .cnot(0, 1);
  const CircuitExecutor exec(c);
  // Fused qubit-1 run; CNOT; RY(q0); CNOT.
  EXPECT_EQ(exec.num_plan_ops(), 4u);
  Rng rng(45);
  expect_adjoint_matches_oracle(c, {}, 4, rng);
}

TEST(CircuitExecutor, AdjointSharedSlotAcrossDiagonalRun) {
  // One diagonal run holds RZ factors on three wires, two CRZ pairs and a
  // CZ; slot 0 appears on two wires and in a CRZ, slot 1 twice on one
  // wire (two components, split by the CZ). The CNOTs flush the H layer
  // so the RZs open the run instead of fusing behind an H.
  Circuit c(3);
  c.h(0).h(1).h(2).cnot(0, 1).cnot(1, 2);
  c.rz(0, Param::slot(0))
      .rz(1, Param::slot(0))
      .rz(2, Param::slot(1))
      .s(2)
      .cz(1, 2)
      .rz(2, Param::slot(1))
      .crz(0, 2, Param::slot(0))
      .crz(2, 1, Param::slot(2))
      .t(0);
  c.rx(0, Param::slot(3)).ry(1, Param::slot(3)).rx(2, Param::slot(2));
  const CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_diag_steps(), 1u);
  // H x3, CNOT x2, the diagonal run, then the fused T·RX, RY and RX steps.
  EXPECT_EQ(exec.num_plan_ops(), 9u);
  Rng rng(46);
  expect_adjoint_matches_oracle(c, {}, 4, rng);
}

TEST(CircuitExecutor, AdjointConstantFactorsBetweenSlotFactors) {
  // Constant gates (H, S, T, X, a constant-angle rotation) sit between
  // slot factors of one fused step: the derivative of each slot factor
  // must see the constant factors before it.
  Circuit c(2);
  c.rz(0, Param::slot(0))
      .h(0)
      .ry(0, Param::value(0.37))
      .rx(0, Param::slot(1))
      .s(0)
      .t(0)
      .rz(0, Param::slot(2))
      .x(0)
      .ry(0, Param::slot(0))
      .cnot(0, 1)
      .ry(1, Param::slot(1))
      .h(1)
      .rz(1, Param::value(-1.1))
      .rx(1, Param::slot(3));
  const CircuitExecutor exec(c);
  // Fused qubit-0 run; CNOT; fused qubit-1 run.
  EXPECT_EQ(exec.num_plan_ops(), 3u);
  Rng rng(47);
  expect_adjoint_matches_oracle(c, {}, 4, rng);
}

TEST(CircuitExecutor, AdjointControlledRotationSteps) {
  // CRX/CRY/CRZ at every (control, target) placement of a 4-qubit
  // register: control and target on qubit 0, on adjacent and on distant
  // qubits, in both orders (every stride class of the cross reduction).
  // Slot and constant angles, with non-diagonal layers between them so
  // CRZ also appears outside diagonal runs.
  Circuit c(4);
  int slot = 0;
  for (int q = 0; q < 4; ++q) c.ry(q, Param::slot(slot++));
  for (int ctrl = 0; ctrl < 4; ++ctrl) {
    for (int tgt = 0; tgt < 4; ++tgt) {
      if (ctrl == tgt) continue;
      c.crx(ctrl, tgt, Param::slot(slot++));
      c.cry(tgt, ctrl, Param::slot(slot++));
      c.crz(ctrl, tgt, Param::slot(slot++));
      c.rx(tgt, Param::slot(slot++));
      c.crz(tgt, ctrl, Param::value(0.8));
      c.h(ctrl);
    }
  }
  Rng rng(48);
  expect_adjoint_matches_oracle(c, {}, 3, rng);
}

TEST(CircuitExecutor, AdjointBlockedCircuitsMatchOracle) {
  // 10-12 qubits against 2^8-amplitude blocks: the forward pass runs the
  // blocked (reordered) schedule, the reverse walk the plan.
  ExecutorOptions options;
  options.block_qubits = 8;
  Rng rng(49);
  for (const int qubits : {10, 11, 12}) {
    Circuit c(qubits);
    int next_slot = c.angle_embedding(0);
    c.strongly_entangling_layers(1, next_slot);
    next_slot = c.num_param_slots();
    for (int g = 0; g < 40; ++g) push_random_gate(c, qubits, next_slot, rng);
    ASSERT_TRUE(CircuitExecutor(c, options).blocked());
    expect_adjoint_matches_oracle(c, options, 2, rng);
  }
}

TEST(CircuitExecutor, AdjointBatchBitIdenticalAtBudgetsOneAndFour) {
  // 2^15 amplitudes reach the amplitude-parallel table (and its chunked
  // cross reduction, high-qubit pair runs included): results must not
  // move by a bit between budgets, and must still match the oracle.
  const int qubits = 15;
  Circuit c(qubits);
  int slot = c.angle_embedding(0);
  slot = c.strongly_entangling_layers(1, slot);
  c.crx(0, 14, Param::slot(slot))
      .cry(14, 1, Param::slot(slot + 1))
      .crz(13, 12, Param::slot(slot + 2))
      .rz(14, Param::slot(slot + 3))
      .cz(13, 14)
      .rz(13, Param::slot(slot + 4))
      .ry(14, Param::slot(slot + 5));
  Rng rng(50);
  const std::size_t batch = 2;
  const AdjointCase w(c, batch, rng);
  const CircuitExecutor exec(c);
  std::vector<AdjointResult> one;
  {
    const thread_budget::Scope budget(1);
    one = exec.adjoint_batch(w.params, w.finals(exec), w.diags);
  }
  std::vector<AdjointResult> four;
  {
    const thread_budget::Scope budget(4);
    four = exec.adjoint_batch(w.params, w.finals(exec), w.diags);
  }
  for (std::size_t i = 0; i < batch; ++i) {
    EXPECT_EQ(std::memcmp(&one[i].value, &four[i].value, sizeof(double)), 0);
    ASSERT_EQ(one[i].param_grads.size(), four[i].param_grads.size());
    EXPECT_EQ(std::memcmp(one[i].param_grads.data(),
                          four[i].param_grads.data(),
                          one[i].param_grads.size() * sizeof(double)),
              0);
    ASSERT_EQ(one[i].initial_lambda.size(), std::size_t{1} << qubits);
    EXPECT_EQ(std::memcmp(one[i].initial_lambda.data(),
                          four[i].initial_lambda.data(),
                          one[i].initial_lambda.size() * sizeof(cplx)),
              0);

    const AdjointResult ref =
        adjoint_gradient(c, w.params[i], w.initials[i], w.diags[i]);
    for (std::size_t s = 0; s < ref.param_grads.size(); ++s) {
      EXPECT_NEAR(one[i].param_grads[s], ref.param_grads[s], 1e-10)
          << "slot " << s;
    }
  }
}

TEST(CircuitExecutor, CoalescesAdjacentDiagonalStepsIntoOneRun) {
  // RZ on every wire + CZ ring + CRZ are all diagonal: however the fusion
  // pass interleaves the flushed per-wire RZ steps with the CZs, the whole
  // prefix must collapse into ONE kDiagonal plan step; the trailing RY
  // layer (non-diagonal) stays separate.
  const int qubits = 4;
  Circuit c(qubits);
  for (int q = 0; q < qubits; ++q) c.rz(q, Param::slot(q));
  for (int q = 0; q < qubits; ++q) c.cz(q, (q + 1) % qubits);
  c.crz(0, 2, Param::slot(qubits));
  for (int q = 0; q < qubits; ++q) c.ry(q, Param::slot(qubits + 1 + q));
  CircuitExecutor exec(c);

  EXPECT_EQ(exec.num_diag_steps(), 1u);
  // Plan: one diagonal run + one fused RY per wire.
  EXPECT_EQ(exec.num_plan_ops(), static_cast<std::size_t>(1 + qubits));

  Rng rng(51);
  const auto params = random_params(c.num_param_slots(), rng);
  Statevector initial = random_state(qubits, rng);
  Statevector naive = initial;
  run(c, params, naive);
  Statevector fused = initial;
  exec.run(params, fused);
  expect_states_close(naive, fused);
}

TEST(CircuitExecutor, ConstantDiagonalRunPrebindsItsTable) {
  // A fully-constant diagonal run (S, T, Z, constant RZ/CRZ, CZ) binds
  // nothing per sample and must still match the interpreter.
  Circuit c(3);
  c.s(0).t(1).z(2).rz(0, Param::value(0.4));
  c.cz(0, 1);
  c.crz(1, 2, Param::value(-0.9));
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_param_slots(), 0);
  EXPECT_EQ(exec.num_diag_steps(), 1u);
  EXPECT_EQ(exec.num_plan_ops(), 1u);
  expect_states_close(run_from_zero(c, {}), exec.run_from_zero({}));
}

TEST(CircuitExecutor, LoneDiagonalStepIsNotCoalesced) {
  // A single diagonal step between non-diagonal neighbours keeps its
  // specialised kernel — a phase-table pass would only add overhead.
  Circuit c(2);
  c.ry(0, Param::slot(0)).cz(0, 1).ry(1, Param::slot(1));
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_diag_steps(), 0u);
  EXPECT_EQ(exec.num_plan_ops(), 3u);
}

TEST(CircuitExecutor, DiagonalRunRebindsPerSample) {
  // Slot-dependent diagonal runs must track their parameters across
  // repeated run() calls and inside run_batch().
  const int qubits = 3;
  Circuit c(qubits);
  for (int q = 0; q < qubits; ++q) c.rz(q, Param::slot(q));
  c.cz(0, 1).cz(1, 2);
  c.h(0);  // stop the run so the plan is diag + H
  CircuitExecutor exec(c);
  ASSERT_EQ(exec.num_diag_steps(), 1u);

  Rng rng(52);
  const std::size_t batch = 6;
  std::vector<std::vector<double>> params(batch);
  std::vector<Statevector> states;
  states.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    params[i] = random_params(c.num_param_slots(), rng);
    states.push_back(random_state(qubits, rng));
  }
  std::vector<Statevector> batched = states;
  exec.run_batch(params, batched);
  for (std::size_t i = 0; i < batch; ++i) {
    Statevector naive = states[i];
    run(c, params[i], naive);
    expect_states_close(naive, batched[i]);
  }
}

TEST(CircuitExecutor, ConstantOnlyCircuitPrebindsEveryStep) {
  // A circuit with no slots re-binds nothing per sample; results must still
  // match the interpreter exactly.
  Circuit c(3);
  c.h(0).t(1).s(2).cnot(0, 1).x(2).cz(1, 2).rx(0, Param::value(0.25));
  CircuitExecutor exec(c);
  EXPECT_EQ(exec.num_param_slots(), 0);
  expect_states_close(run_from_zero(c, {}), exec.run_from_zero({}));
}

}  // namespace
}  // namespace sqvae::qsim
