// Simulator micro-benchmarks (google-benchmark) and the gradient-method
// ablation behind training with the adjoint method: adjoint
// differentiation vs parameter shift vs finite differences, gate-kernel
// throughput vs qubit count, and the patched-vs-holistic circuit cost that
// motivates the scalable architecture.
//
// In addition to the google-benchmark registrations, the binary always runs
// a CircuitExecutor A/B comparison — batched gate-fused execution vs the
// naive per-sample interpreter loop on the models' embedding+entangling
// circuit — and writes it as JSON (default BENCH_qsim_micro.json, override
// with --json=PATH; see the BENCH_*.json convention in README.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "common/number_text.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_budget.h"
#include "qsim/adjoint.h"
#include "qsim/backend.h"
#include "qsim/circuit.h"
#include "qsim/density_matrix.h"
#include "qsim/embedding.h"
#include "qsim/executor.h"
#include "qsim/kernels.h"
#include "qsim/observable.h"
#include "qsim/paramshift.h"

namespace {

using namespace sqvae;
using namespace sqvae::qsim;

std::vector<double> random_params(int count, Rng& rng) {
  std::vector<double> p(static_cast<std::size_t>(count));
  for (double& v : p) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  return p;
}

void BM_GateKernelSingleQubit(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  Statevector sv(qubits);
  const Mat2 ry = gate_matrix(GateKind::kRY, 0.3);
  for (auto _ : state) {
    sv.apply_single(ry, 0);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(BM_GateKernelSingleQubit)->DenseRange(4, 12, 2);

void BM_GateKernelCnot(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  Statevector sv(qubits);
  for (auto _ : state) {
    sv.apply_cnot(0, qubits - 1);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sv.dim()));
}
BENCHMARK(BM_GateKernelCnot)->DenseRange(4, 12, 2);

void BM_CircuitForward(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int layers = static_cast<int>(state.range(1));
  Rng rng(1);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  for (auto _ : state) {
    Statevector sv = run_from_zero(c, params);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_CircuitForward)
    ->Args({6, 3})
    ->Args({7, 5})
    ->Args({9, 5})
    ->Args({10, 3});

// --- Gradient-method ablation: same circuit, three engines. -------------
void BM_GradientAdjoint(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int layers = static_cast<int>(state.range(1));
  Rng rng(2);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  const auto diag = weighted_z_diagonal(
      qubits, std::vector<double>(static_cast<std::size_t>(qubits), 1.0));
  const Statevector initial(qubits);
  for (auto _ : state) {
    auto result = adjoint_gradient(c, params, initial, diag);
    benchmark::DoNotOptimize(result.param_grads.data());
  }
  state.counters["params"] = static_cast<double>(params.size());
}
BENCHMARK(BM_GradientAdjoint)->Args({6, 3})->Args({7, 5})->Args({9, 5});

void BM_GradientParameterShift(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int layers = static_cast<int>(state.range(1));
  Rng rng(2);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  const auto diag = weighted_z_diagonal(
      qubits, std::vector<double>(static_cast<std::size_t>(qubits), 1.0));
  const Statevector initial(qubits);
  for (auto _ : state) {
    auto grads = parameter_shift_gradient(c, params, initial, diag);
    benchmark::DoNotOptimize(grads.data());
  }
  state.counters["params"] = static_cast<double>(params.size());
}
BENCHMARK(BM_GradientParameterShift)->Args({6, 3})->Args({7, 5});

void BM_GradientFiniteDifference(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int layers = static_cast<int>(state.range(1));
  Rng rng(2);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  const auto diag = weighted_z_diagonal(
      qubits, std::vector<double>(static_cast<std::size_t>(qubits), 1.0));
  const Statevector initial(qubits);
  for (auto _ : state) {
    auto grads = finite_difference_gradient(c, params, initial, diag);
    benchmark::DoNotOptimize(grads.data());
  }
}
BENCHMARK(BM_GradientFiniteDifference)->Args({6, 3});

// --- Patched vs holistic: total forward cost of embedding 1024 features.
// One 10-qubit circuit (holistic) vs p circuits of log2(1024/p) qubits.
void BM_PatchedForward1024(benchmark::State& state) {
  const int patches = static_cast<int>(state.range(0));
  const int qubits = [&] {
    int q = 0;
    while ((1024 / patches) > (1 << q)) ++q;
    return q;
  }();
  Rng rng(3);
  Circuit c(qubits);
  c.strongly_entangling_layers(5, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  std::vector<double> features(static_cast<std::size_t>(1024 / patches));
  for (double& f : features) f = rng.uniform(0, 5);
  for (auto _ : state) {
    for (int p = 0; p < patches; ++p) {
      Statevector sv = amplitude_embedding(features, qubits);
      run(c, params, sv);
      auto out = expectations_z(sv);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.counters["qubits_per_patch"] = qubits;
  state.counters["lsd"] = patches * qubits;
}
BENCHMARK(BM_PatchedForward1024)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// --- CircuitExecutor: batched gate-fused execution vs naive loop. -------

/// The models' hot-path circuit: RY angle embedding + L strongly
/// entangling layers, embedding slots varying per sample, weights shared.
struct BatchWorkload {
  Circuit circuit;
  std::vector<std::vector<double>> slots;  // one full slot vector per sample

  BatchWorkload(int qubits, int layers, int batch, Rng& rng)
      : circuit(qubits) {
    const int first_weight = circuit.angle_embedding(0);
    circuit.strongly_entangling_layers(layers, first_weight);
    const auto weights =
        random_params(circuit.num_param_slots() - first_weight, rng);
    slots.reserve(static_cast<std::size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      std::vector<double> s = random_params(first_weight, rng);
      s.insert(s.end(), weights.begin(), weights.end());
      slots.push_back(std::move(s));
    }
  }
};

void BM_BatchNaiveLoop(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  Rng rng(5);
  BatchWorkload w(qubits, 5, batch, rng);
  for (auto _ : state) {
    for (const auto& slots : w.slots) {
      Statevector sv = run_from_zero(w.circuit, slots);
      benchmark::DoNotOptimize(sv.amplitudes().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchNaiveLoop)->Args({8, 64})->Args({10, 64});

void BM_BatchExecutorFused(benchmark::State& state) {
  const int qubits = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  Rng rng(5);
  BatchWorkload w(qubits, 5, batch, rng);
  const CircuitExecutor exec(w.circuit);
  for (auto _ : state) {
    std::vector<Statevector> states(static_cast<std::size_t>(batch),
                                    Statevector(qubits));
    exec.run_batch(w.slots, states);
    benchmark::DoNotOptimize(states.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchExecutorFused)->Args({8, 64})->Args({10, 64});

// --- Always-on A/B report written as BENCH_qsim_micro.json. -------------

struct AbRow {
  int qubits;
  int layers;
  int batch;
  std::size_t circuit_ops;
  std::size_t plan_ops;
  double naive_ms;
  double fused_ms;
  double speedup;
};

double median_ms(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

AbRow run_ab(int qubits, int layers, int batch, int reps) {
  Rng rng(11);
  BatchWorkload w(qubits, layers, batch, rng);
  const CircuitExecutor exec(w.circuit);

  AbRow row{};
  row.qubits = qubits;
  row.layers = layers;
  row.batch = batch;
  row.circuit_ops = exec.num_circuit_ops();
  row.plan_ops = exec.num_plan_ops();

  // Warm-up plus correctness guard: both paths must agree.
  {
    std::vector<Statevector> states(static_cast<std::size_t>(batch),
                                    Statevector(qubits));
    exec.run_batch(w.slots, states);
    const Statevector ref = run_from_zero(w.circuit, w.slots[0]);
    double max_err = 0.0;
    for (std::size_t i = 0; i < ref.dim(); ++i) {
      max_err = std::max(max_err, std::abs(ref[i] - states[0][i]));
    }
    if (max_err > 1e-9) {
      std::fprintf(stderr, "executor/naive mismatch: %g\n", max_err);
      std::exit(1);
    }
  }

  std::vector<double> naive_samples, fused_samples;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    for (const auto& slots : w.slots) {
      Statevector sv = run_from_zero(w.circuit, slots);
      benchmark::DoNotOptimize(sv.amplitudes().data());
    }
    naive_samples.push_back(watch.millis());

    // Statevector construction is timed on both sides: the naive loop pays
    // it inside run_from_zero, the fused path pays it here.
    watch.reset();
    std::vector<Statevector> states(static_cast<std::size_t>(batch),
                                    Statevector(qubits));
    exec.run_batch(w.slots, states);
    benchmark::DoNotOptimize(states.data());
    fused_samples.push_back(watch.millis());
  }
  row.naive_ms = median_ms(naive_samples);
  row.fused_ms = median_ms(fused_samples);
  row.speedup = row.naive_ms / row.fused_ms;
  return row;
}

// --- Adjoint A/B: interpreter oracle vs the executor's plan walk. --------
//
// The training backward pass of every QuantumLayer: the gradient of a
// cotangent-weighted <Z> readout of an amplitude-embedded state through
// `layers` entangling layers. One side loops qsim::adjoint_gradient (the
// per-gate interpreter sweep, the correctness oracle); the other runs
// CircuitExecutor::run_batch then adjoint_batch (fused forward, then the
// per-plan-step reverse walk from its final states, with one cross-matrix
// reduction per parameterized step), so both sides time forward plus
// reverse. Both run
// at a thread budget of 1, so the times compare the algorithms, not the
// batch loop's threads. max_grad_diff is the largest absolute difference
// over all slot gradients and initial-state cotangents of the batch; the
// CI gate requires it <= 1e-10 on any hardware.

struct AdjointAbRow {
  int qubits;
  int layers;
  int batch;
  int params;
  std::size_t circuit_ops;
  std::size_t plan_ops;
  double oracle_ms;
  double plan_ms;
  double speedup;
  double max_grad_diff;
};

AdjointAbRow run_adjoint_ab(int qubits, int layers, int batch, int reps) {
  Rng rng(29);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const CircuitExecutor exec(c);
  const std::vector<double> weights = random_params(c.num_param_slots(), rng);
  const std::size_t n = static_cast<std::size_t>(batch);
  const std::vector<std::vector<double>> params(n, weights);
  std::vector<Statevector> initials;
  std::vector<std::vector<double>> diags;
  initials.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(std::size_t{1} << qubits);
    for (double& v : x) v = rng.uniform(0.0, 1.0);
    initials.push_back(amplitude_embedding(x, qubits));
    std::vector<double> cot(static_cast<std::size_t>(qubits));
    for (double& v : cot) v = rng.uniform(-1.0, 1.0);
    diags.push_back(weighted_z_diagonal(qubits, cot));
  }

  const thread_budget::Scope serial(1);
  AdjointAbRow row{};
  row.qubits = qubits;
  row.layers = layers;
  row.batch = batch;
  row.params = c.num_param_slots();
  row.circuit_ops = exec.num_circuit_ops();
  row.plan_ops = exec.num_plan_ops();

  // The training path: the forward's final states, then the reverse walk.
  const auto forward_and_reverse = [&] {
    std::vector<Statevector> finals = initials;
    exec.run_batch(params, finals);
    return exec.adjoint_batch(params, finals, diags);
  };

  // Warm-up plus the recorded agreement check.
  const std::vector<AdjointResult> plan = forward_and_reverse();
  for (std::size_t i = 0; i < n; ++i) {
    const AdjointResult ref =
        adjoint_gradient(c, params[i], initials[i], diags[i]);
    for (std::size_t k = 0; k < ref.param_grads.size(); ++k) {
      row.max_grad_diff =
          std::max(row.max_grad_diff,
                   std::abs(ref.param_grads[k] - plan[i].param_grads[k]));
    }
    for (std::size_t j = 0; j < ref.initial_lambda.size(); ++j) {
      row.max_grad_diff =
          std::max(row.max_grad_diff,
                   std::abs(ref.initial_lambda[j] - plan[i].initial_lambda[j]));
    }
  }

  std::vector<double> oracle_samples, plan_samples;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    for (std::size_t i = 0; i < n; ++i) {
      const AdjointResult res =
          adjoint_gradient(c, params[i], initials[i], diags[i]);
      benchmark::DoNotOptimize(res.param_grads.data());
    }
    oracle_samples.push_back(watch.millis());

    watch.reset();
    const std::vector<AdjointResult> res = forward_and_reverse();
    benchmark::DoNotOptimize(res.data());
    plan_samples.push_back(watch.millis());
  }
  row.oracle_ms = median_ms(oracle_samples);
  row.plan_ms = median_ms(plan_samples);
  row.speedup = row.oracle_ms / row.plan_ms;
  return row;
}

// --- Trajectory regime vs exact density matrix: the noisy-regime A/B. ---
//
// Same estimate both ways — per-qubit <Z> of a noisy entangling circuit —
// once as a trajectory Monte-Carlo run through qsim::measure_from_zero
// (O(trajectories * 2^n)) and
// once through the exact density-matrix channel (O(4^n) per gate). The
// trajectory side is the production path for noisy training; the density
// matrix is the correctness oracle it must outrun.

struct TrajAbRow {
  int qubits;
  int layers;
  double gate_error;
  int trajectories;
  double trajectory_ms;
  double density_ms;
  double speedup;
  double max_abs_diff;  // trajectory mean vs exact, all qubits
};

TrajAbRow run_trajectory_ab(int qubits, int layers, double gate_error,
                            int trajectories, int reps) {
  Rng rng(13);
  Circuit c(qubits);
  c.strongly_entangling_layers(layers, 0);
  const auto params = random_params(c.num_param_slots(), rng);
  const CircuitExecutor exec(c);
  const NoiseModel noise{gate_error};

  SimulationOptions options;
  options.backend = BackendKind::kTrajectory;
  options.shots = static_cast<std::size_t>(trajectories);
  options.noise = noise;
  options.seed = 17;

  TrajAbRow row{};
  row.qubits = qubits;
  row.layers = layers;
  row.gate_error = gate_error;
  row.trajectories = trajectories;

  std::vector<double> traj_ms, density_ms;
  std::vector<double> traj_z;
  std::vector<double> exact_z(static_cast<std::size_t>(qubits));
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    // Every rep times the identical seeded run.
    traj_z = measure_from_zero(options, exec, params, Readout::kExpectationZ);
    traj_ms.push_back(watch.millis());

    watch.reset();
    const DensityMatrix rho = run_density(c, params, noise);
    for (int q = 0; q < qubits; ++q) {
      exact_z[static_cast<std::size_t>(q)] = rho.expectation_z(q);
    }
    density_ms.push_back(watch.millis());
  }
  row.trajectory_ms = median_ms(traj_ms);
  row.density_ms = median_ms(density_ms);
  row.speedup = row.density_ms / row.trajectory_ms;
  for (int q = 0; q < qubits; ++q) {
    row.max_abs_diff =
        std::max(row.max_abs_diff,
                 std::abs(traj_z[static_cast<std::size_t>(q)] -
                          exact_z[static_cast<std::size_t>(q)]));
  }
  // Monte-Carlo sanity: the mean must sit within ~5 standard errors
  // (stderr <= 1/sqrt(M)) of the exact channel result.
  if (row.max_abs_diff >
      5.0 / std::sqrt(static_cast<double>(trajectories))) {
    std::fprintf(stderr, "trajectory/density mismatch: %g\n",
                 row.max_abs_diff);
    std::exit(1);
  }
  return row;
}

// --- Kernel A/B: scalar table vs the runtime-dispatched table. -----------
//
// Times each kernel class in isolation on a normalised random state:
// repeated application of a unitary (or phase table), so the state stays
// well-conditioned however many iterations run. On hosts where dispatch
// resolves to scalar (no AVX2, SQVAE_FORCE_SCALAR, or -DSQVAE_SIMD=OFF)
// both columns time the same code and the speedup sits at ~1.0x; the CI
// gate keys off the recorded "isa" field and only enforces the SIMD bar
// when the dispatcher actually picked avx2.

struct KernelAbRow {
  std::string gate;
  int qubits;
  double scalar_ms;
  double dispatched_ms;
  double speedup;
};

Mat2 bench_unitary(Rng& rng) {
  const Mat2 a = gate_matrix(GateKind::kRZ, rng.uniform(-3.0, 3.0));
  const Mat2 b = gate_matrix(GateKind::kRY, rng.uniform(-3.0, 3.0));
  return matmul2(a, b);
}

std::vector<cplx> random_normalized(int qubits, Rng& rng) {
  std::vector<cplx> amps(std::size_t{1} << qubits);
  double norm_sq = 0.0;
  for (cplx& a : amps) {
    a = cplx{rng.normal(), rng.normal()};
    norm_sq += std::norm(a);
  }
  const double inv = 1.0 / std::sqrt(norm_sq);
  for (cplx& a : amps) a *= inv;
  return amps;
}

KernelAbRow run_kernel_ab(const std::string& gate, int qubits, int reps) {
  Rng rng(19);
  const std::size_t dim = std::size_t{1} << qubits;
  const Mat2 m = bench_unitary(rng);
  const int mid = qubits / 2;

  kernels::DiagonalRun diag_run;
  std::vector<cplx> diag_table;
  if (gate == "diag") {
    for (int q = 0; q < qubits; ++q) {
      const Mat2 rz = gate_matrix(GateKind::kRZ, rng.uniform(-3.0, 3.0));
      diag_run.push_factor(q, rz[0], rz[3]);
    }
    diag_run.push_pair(0, qubits - 1, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
    diag_run.push_pair(mid, mid + 1, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
    kernels::build_diagonal_table(diag_run, qubits, diag_table);
  }

  auto apply = [&](const kernels::KernelTable& kt, cplx* amps) {
    if (gate == "single") {
      kt.apply_single(amps, dim, m, mid);
    } else if (gate == "single_t0") {
      kt.apply_single(amps, dim, m, 0);
    } else if (gate == "controlled") {
      kt.apply_controlled_single(amps, dim, m, qubits - 1, mid);
    } else if (gate == "cnot") {
      kt.apply_cnot(amps, dim, 0, qubits - 1);
    } else if (gate == "cz") {
      kt.apply_cz(amps, dim, 0, qubits - 1);
    } else if (gate == "swap") {
      kt.apply_swap(amps, dim, 0, qubits - 1);
    } else {
      kt.apply_diagonal_table(amps, dim, diag_table.data());
    }
  };

  // Enough applications per sample that the stopwatch resolution is noise.
  const int iters = static_cast<int>(
      std::max<std::size_t>(1, (std::size_t{1} << 21) / dim));
  std::vector<cplx> state = random_normalized(qubits, rng);

  // Correctness guard: one application through each table must agree.
  {
    std::vector<cplx> a = state;
    std::vector<cplx> b = state;
    apply(kernels::scalar_table(), a.data());
    apply(kernels::active(), b.data());
    double max_err = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      max_err = std::max(max_err, std::abs(a[i] - b[i]));
    }
    if (max_err > 1e-9) {
      std::fprintf(stderr, "kernel scalar/dispatched mismatch (%s): %g\n",
                   gate.c_str(), max_err);
      std::exit(1);
    }
  }

  std::vector<double> scalar_samples, dispatched_samples;
  for (int r = 0; r < reps; ++r) {
    std::vector<cplx> a = state;
    Stopwatch watch;
    for (int it = 0; it < iters; ++it) {
      apply(kernels::scalar_table(), a.data());
    }
    benchmark::DoNotOptimize(a.data());
    scalar_samples.push_back(watch.millis());

    std::vector<cplx> b = state;
    watch.reset();
    for (int it = 0; it < iters; ++it) {
      apply(kernels::active(), b.data());
    }
    benchmark::DoNotOptimize(b.data());
    dispatched_samples.push_back(watch.millis());
  }

  KernelAbRow row;
  row.gate = gate;
  row.qubits = qubits;
  row.scalar_ms = median_ms(scalar_samples);
  row.dispatched_ms = median_ms(dispatched_samples);
  row.speedup = row.scalar_ms / row.dispatched_ms;
  return row;
}

// --- Scaling: amplitude-parallel vs serial on one large state. -----------
//
// The 20+ qubit regime the cache-blocked executor targets: a single
// 5-layer strongly-entangling circuit on one statevector, run once with
// the serial kernel tables (threshold pinned to SIZE_MAX) and once with
// the amplitude-parallel table forced on (threshold 1). Both sides run the
// identical compiled plan — including the blocked schedule's reordering —
// so the amplitudes must agree bit for bit; `bit_identical` records that
// check and the CI gate enforces it unconditionally. The speedup column is
// only meaningful on multi-core hosts; the gate tiers off
// hardware_threads and records-without-enforcing on small runners.

struct ScalingRow {
  int qubits;
  int layers;
  bool blocked;
  std::size_t block_groups;
  std::size_t exchange_steps;
  double serial_ms;
  double parallel_ms;
  double speedup;
  bool bit_identical;
};

ScalingRow run_scaling(int qubits, int layers, int reps) {
  Rng rng(23);
  Circuit c(qubits);
  const int slot = c.angle_embedding(0);
  c.strongly_entangling_layers(layers, slot);
  const auto params = random_params(c.num_param_slots(), rng);
  const CircuitExecutor exec(c);

  ScalingRow row{};
  row.qubits = qubits;
  row.layers = layers;
  row.blocked = exec.blocked();
  row.block_groups = exec.num_block_groups();
  row.exchange_steps = exec.num_exchange_steps();

  const std::size_t saved = kernels::parallel_threshold();
  Statevector state(qubits);

  // Warm-up plus the bit-identity check: one run down each path.
  kernels::set_parallel_threshold(SIZE_MAX);
  state.reset();
  exec.run(params, state);
  const std::vector<cplx> serial_amps = state.amplitudes();
  kernels::set_parallel_threshold(1);
  state.reset();
  exec.run(params, state);
  row.bit_identical =
      std::memcmp(serial_amps.data(), state.amplitudes().data(),
                  serial_amps.size() * sizeof(cplx)) == 0;

  // Large states are expensive on one core: shrink the repetition count as
  // the state grows so the sweep stays bounded.
  const int row_reps =
      std::max(1, reps / (1 << std::max(0, qubits - 14)));
  std::vector<double> serial_samples, parallel_samples;
  for (int r = 0; r < row_reps; ++r) {
    kernels::set_parallel_threshold(SIZE_MAX);
    state.reset();
    Stopwatch watch;
    exec.run(params, state);
    benchmark::DoNotOptimize(state.amplitudes().data());
    serial_samples.push_back(watch.millis());

    kernels::set_parallel_threshold(1);
    state.reset();
    watch.reset();
    exec.run(params, state);
    benchmark::DoNotOptimize(state.amplitudes().data());
    parallel_samples.push_back(watch.millis());
  }
  kernels::set_parallel_threshold(saved);

  row.serial_ms = median_ms(serial_samples);
  row.parallel_ms = median_ms(parallel_samples);
  row.speedup = row.serial_ms / row.parallel_ms;
  return row;
}

void write_ab_json(const std::string& path, const std::vector<AbRow>& rows,
                   const std::vector<AdjointAbRow>& adjoint_rows,
                   const std::vector<TrajAbRow>& traj_rows,
                   const std::vector<KernelAbRow>& kernel_rows,
                   const std::vector<ScalingRow>& scaling_rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // hardware_threads drives the CI gate's core-count tiering: the naive
  // baseline shares the dispatched SIMD kernels, so on a single core the
  // remaining fusion-only win is ~1.5-2x, while with >= 4 cores the
  // OpenMP batch path pushes it well past 2x.
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"qsim_micro/executor_batch_ab\",\n"
               "  \"unit\": \"ms\",\n"
               "  \"description\": \"CircuitExecutor::run_batch (gate-fused)"
               " vs naive per-sample qsim::run loop\",\n"
               "  \"hardware_threads\": %d,\n"
               "  \"rows\": [\n",
               thread_budget::process_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AbRow& r = rows[i];
    std::fprintf(f,
                 "    {\"qubits\": %d, \"layers\": %d, \"batch\": %d, "
                 "\"circuit_ops\": %zu, \"plan_ops\": %zu, "
                 "\"naive_ms\": %.4f, \"fused_ms\": %.4f, "
                 "\"speedup\": %.3f}%s\n",
                 r.qubits, r.layers, r.batch, r.circuit_ops, r.plan_ops,
                 r.naive_ms, r.fused_ms, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"adjoint_ab\": {\n"
               "    \"description\": \"qsim::adjoint_gradient (per-gate "
               "interpreter sweep) vs CircuitExecutor::run_batch + "
               "adjoint_batch (fused forward, per-plan-step reverse walk), "
               "amplitude-embedded input, "
               "weighted <Z> readout, thread budget 1\",\n"
               "    \"rows\": [\n");
  for (std::size_t i = 0; i < adjoint_rows.size(); ++i) {
    const AdjointAbRow& r = adjoint_rows[i];
    std::fprintf(f,
                 "      {\"qubits\": %d, \"layers\": %d, \"batch\": %d, "
                 "\"params\": %d, \"circuit_ops\": %zu, \"plan_ops\": %zu, "
                 "\"oracle_ms\": %.4f, \"plan_ms\": %.4f, "
                 "\"speedup\": %.3f, \"max_grad_diff\": %.3e}%s\n",
                 r.qubits, r.layers, r.batch, r.params, r.circuit_ops,
                 r.plan_ops, r.oracle_ms, r.plan_ms, r.speedup,
                 r.max_grad_diff, i + 1 < adjoint_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ]\n"
               "  },\n"
               "  \"trajectory_ab\": {\n"
               "    \"description\": \"Trajectory-regime Monte-Carlo noisy"
               " <Z> estimate vs exact DensityMatrix channel\",\n"
               "    \"rows\": [\n");
  for (std::size_t i = 0; i < traj_rows.size(); ++i) {
    const TrajAbRow& r = traj_rows[i];
    std::fprintf(f,
                 "      {\"qubits\": %d, \"layers\": %d, "
                 "\"gate_error\": %.4f, \"trajectories\": %d, "
                 "\"trajectory_ms\": %.4f, \"density_ms\": %.4f, "
                 "\"speedup\": %.3f, \"max_abs_diff\": %.5f}%s\n",
                 r.qubits, r.layers, r.gate_error, r.trajectories,
                 r.trajectory_ms, r.density_ms, r.speedup, r.max_abs_diff,
                 i + 1 < traj_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ]\n"
               "  },\n"
               "  \"kernel_ab\": {\n"
               "    \"description\": \"dispatched statevector kernels vs "
               "the portable scalar table, per gate class\",\n"
               "    \"isa\": \"%s\",\n"
               "    \"simd_compiled\": %s,\n"
               "    \"rows\": [\n",
               kernels::isa_name(kernels::active_isa()),
               kernels::compiled_with_simd() ? "true" : "false");
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelAbRow& r = kernel_rows[i];
    std::fprintf(f,
                 "      {\"gate\": \"%s\", \"qubits\": %d, "
                 "\"scalar_ms\": %.4f, \"dispatched_ms\": %.4f, "
                 "\"speedup\": %.3f}%s\n",
                 r.gate.c_str(), r.qubits, r.scalar_ms, r.dispatched_ms,
                 r.speedup, i + 1 < kernel_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ]\n"
               "  },\n"
               "  \"scaling\": {\n"
               "    \"description\": \"amplitude-parallel vs serial "
               "execution of one 5-layer entangling circuit on a single "
               "large statevector (cache-blocked executor)\",\n"
               "    \"openmp\": %s,\n"
               "    \"rows\": [\n",
#ifdef _OPENMP
               "true"
#else
               "false"
#endif
  );
  for (std::size_t i = 0; i < scaling_rows.size(); ++i) {
    const ScalingRow& r = scaling_rows[i];
    std::fprintf(f,
                 "      {\"qubits\": %d, \"layers\": %d, "
                 "\"blocked\": %s, \"block_groups\": %zu, "
                 "\"exchange_steps\": %zu, \"serial_ms\": %.4f, "
                 "\"parallel_ms\": %.4f, \"speedup\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 r.qubits, r.layers, r.blocked ? "true" : "false",
                 r.block_groups, r.exchange_steps, r.serial_ms,
                 r.parallel_ms, r.speedup,
                 r.bit_identical ? "true" : "false",
                 i + 1 < scaling_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "    ]\n"
               "  }\n"
               "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees the arguments.
  std::string json_path = "BENCH_qsim_micro.json";
  bool skip_gbench = false;
  int reps = 15;  // --reps=N scales every A/B's repetition count (the CI
                  // PR lane uses a reduced value to stay fast)
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      if (number_text::parse(argv[i] + 7, &reps) != number_text::Error::kNone) {
        std::fprintf(stderr, "--reps wants an integer, got '%s'\n",
                     argv[i] + 7);
        return 2;
      }
      reps = std::max(1, reps);
    } else if (std::strcmp(argv[i], "--ab_only") == 0) {
      skip_gbench = true;  // fast path for CI and the checked-in report
    } else {
      args.push_back(argv[i]);
    }
  }
  int gargc = static_cast<int>(args.size());
  benchmark::Initialize(&gargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, args.data())) return 1;
  if (!skip_gbench) benchmark::RunSpecifiedBenchmarks();

  std::vector<AbRow> rows;
  for (const int qubits : {8, 9, 10}) {
    rows.push_back(run_ab(qubits, /*layers=*/5, /*batch=*/64, reps));
  }
  // The ligand patch circuit (7 qubits, 5 layers) and a 10-qubit one.
  std::vector<AdjointAbRow> adjoint_rows;
  for (const int qubits : {7, 10}) {
    adjoint_rows.push_back(
        run_adjoint_ab(qubits, /*layers=*/5, /*batch=*/32, reps));
  }
  std::vector<TrajAbRow> traj_rows;
  for (const int qubits : {6, 8}) {
    traj_rows.push_back(run_trajectory_ab(qubits, /*layers=*/5,
                                          /*gate_error=*/0.002,
                                          /*trajectories=*/1000,
                                          std::max(3, reps / 2)));
  }
  std::vector<KernelAbRow> kernel_rows;
  for (const int qubits : {6, 8, 10, 12}) {
    for (const char* gate : {"single", "single_t0", "controlled", "cnot",
                             "cz", "swap", "diag"}) {
      kernel_rows.push_back(
          run_kernel_ab(gate, qubits, std::max(3, reps / 2)));
    }
  }
  std::vector<ScalingRow> scaling_rows;
  for (const int qubits : {12, 14, 16, 18, 20, 22}) {
    scaling_rows.push_back(run_scaling(qubits, /*layers=*/5, reps));
  }
  write_ab_json(json_path, rows, adjoint_rows, traj_rows, kernel_rows,
                scaling_rows);
  std::printf("== executor batch A/B (batch=64, 5 layers) ==\n");
  for (const AbRow& r : rows) {
    std::printf(
        "qubits=%2d  ops %zu -> %zu fused  naive %8.3f ms  fused %8.3f ms  "
        "speedup %.2fx\n",
        r.qubits, r.circuit_ops, r.plan_ops, r.naive_ms, r.fused_ms,
        r.speedup);
  }
  std::printf(
      "== adjoint A/B: interpreter oracle vs plan walk (batch=32, 5 layers, "
      "1 thread) ==\n");
  for (const AdjointAbRow& r : adjoint_rows) {
    std::printf(
        "qubits=%2d  params %d  oracle %8.3f ms  plan %8.3f ms  speedup "
        "%.2fx  max |dgrad| %.2e\n",
        r.qubits, r.params, r.oracle_ms, r.plan_ms, r.speedup,
        r.max_grad_diff);
  }
  std::printf(
      "== trajectory backend vs density matrix (p=0.002, 1000 "
      "trajectories) ==\n");
  for (const TrajAbRow& r : traj_rows) {
    std::printf(
        "qubits=%2d  trajectory %8.3f ms  density %8.3f ms  speedup %.2fx  "
        "max |dZ| %.4f\n",
        r.qubits, r.trajectory_ms, r.density_ms, r.speedup, r.max_abs_diff);
  }
  std::printf("== kernel A/B (dispatched isa: %s) ==\n",
              kernels::isa_name(kernels::active_isa()));
  for (const KernelAbRow& r : kernel_rows) {
    std::printf(
        "%-10s qubits=%2d  scalar %8.3f ms  dispatched %8.3f ms  "
        "speedup %.2fx\n",
        r.gate.c_str(), r.qubits, r.scalar_ms, r.dispatched_ms, r.speedup);
  }
  std::printf("== scaling: amplitude-parallel vs serial (5 layers) ==\n");
  for (const ScalingRow& r : scaling_rows) {
    std::printf(
        "qubits=%2d  %s groups=%zu exch=%zu  serial %9.3f ms  parallel "
        "%9.3f ms  speedup %.2fx  bits %s\n",
        r.qubits, r.blocked ? "blocked " : "plain   ", r.block_groups,
        r.exchange_steps, r.serial_ms, r.parallel_ms, r.speedup,
        r.bit_identical ? "identical" : "DIFFER");
  }
  std::printf("(json written to %s)\n", json_path.c_str());
  benchmark::Shutdown();
  return 0;
}
