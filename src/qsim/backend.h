// Unified simulation-backend layer: one API for every execution regime.
//
// The paper's experiments run hybrid quantum layers under three regimes —
// ideal statevector simulation, gate-noise simulation, and finite-shot
// measurement — and each regime has exactly one implementation here. A
// SimulationBackend turns the regime into *data*: every backend consumes
// the same compiled `CircuitExecutor` plan and produces the same batched
// measurement estimates, so models, the trainer, and the benches switch
// regimes by changing one `SimulationOptions` value.
//
// Backends:
//   * kStatevector — exact expectations/probabilities from the gate-fused
//     plan; identical results (and cost) to the PR-1 executor hot path.
//   * kTrajectory — quantum-trajectory Monte Carlo of the stochastic Pauli
//     channel (NoiseModel): the depolarizing channel is unravelled into
//     pure-state trajectories, so a noisy estimate costs O(shots * 2^n)
//     instead of the density matrix's O(4^n) per gate. Three structural
//     optimisations keep it far ahead of the density-matrix reference even
//     single-threaded (see BENCH_qsim_micro.json, "trajectory_ab"):
//       1. per-op gate matrices are bound once per parameter set through the
//          executor and shared by all trajectories;
//       2. a noiseless pass caches a bounded set of intermediate states
//          (at most 64 snapshots, so memory stays O(2^n) with a fixed
//          constant), letting a trajectory whose first sampled error sits
//          at gate i replay only the gates from the nearest snapshot at or
//          before i — and the (common, for realistic error rates)
//          all-clear trajectory reuses the cached noiseless measurement;
//       3. error patterns are drawn by geometric gap-sampling (O(#errors)
//          RNG draws, not O(#locations)), and suffix gates are re-fused
//          on the fly around the sampled Pauli insertions.
//   * kShotSampling — runs the fused plan exactly, then estimates the
//     measurement from `shots` basis-state samples drawn by binary search
//     on a per-sample cumulative distribution (the hardware-realism
//     regime: sampling noise ~ sqrt((1 - <Z>^2) / shots)).
//
// Determinism: every stochastic estimate is a pure function of its inputs.
// Sample s of a batch draws from private Rng streams seeded by mixing
// (options.seed, content key, draw index), where the content key is a
// SplitMix avalanche over the bit patterns of params_batch[s] and the
// amplitudes of initials[s] — what that sample's circuit sees. The
// backends therefore keep no state: a row computed inside a batch is
// bit-identical to the same row computed alone, repeats replay, and any
// number of threads may run through one backend. Monte-Carlo means are
// reduced in fixed trajectory order from bounded per-trajectory chunk
// buffers, so results are also bit-identical across OpenMP thread counts:
// threads never share a stream, and no floating-point reduction happens in
// thread order. (If a future backend ever accumulates inside the parallel
// region instead, exact bitwise equality across thread counts is lost to
// reduction-order round-off — keep the buffer-then-serial-sum shape.)
//
// Identical circuit inputs under identical options share one noise draw
// (common random numbers); each estimate stays unbiased with the same
// variance. Independent repeats of one input need distinct seeds. The
// exact backend computes no key.
//
// Gradients are *not* routed through the stochastic backends: QuantumLayer
// always differentiates the exact statevector path (adjoint sweeps through
// the fused plan). Training under noise/shots therefore pairs stochastic
// forward estimates with exact-path gradients — the standard simulator
// simplification; unbiased stochastic gradient estimators (parameter shift
// on shot estimates) are available by composing this API, see
// bench_gradient_variance.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qsim/executor.h"
#include "qsim/noise.h"
#include "qsim/statevector.h"

namespace sqvae::qsim {

enum class BackendKind {
  kStatevector,   // exact, deterministic
  kTrajectory,    // Monte-Carlo Kraus unravelling of NoiseModel
  kShotSampling,  // exact state, finite measurement shots
};

/// One knob for every simulation regime. Threaded through QuantumLayer,
/// the baseline/scalable models, and the Trainer.
struct SimulationOptions {
  BackendKind backend = BackendKind::kStatevector;
  /// kShotSampling: measurement shots per estimate. kTrajectory: number of
  /// Monte-Carlo trajectories per estimate. Ignored by kStatevector.
  std::size_t shots = 1024;
  /// Per-gate Pauli error rate; used by kTrajectory only.
  NoiseModel noise{};
  /// Base seed of the backend's private random streams.
  std::uint64_t seed = 0x5eedbacc0ffee123ull;
};

/// Same options with a seed derived from (options.seed, layer_index).
/// Models with several quantum layers give each layer the options returned
/// here so one model-level SimulationOptions drives them all without every
/// layer replaying an identical noise stream.
SimulationOptions derive_layer_options(const SimulationOptions& options,
                                       std::uint64_t layer_index);

class SimulationBackend {
 public:
  virtual ~SimulationBackend() = default;

  virtual BackendKind kind() const = 0;
  /// Short human-readable name ("statevector", "trajectory", "shots").
  virtual const char* name() const = 0;

  /// Per-sample per-qubit <Z> estimates. params_batch[i] runs from
  /// initials[i] (pass |0...0> states for circuits without embedding).
  /// Batched and OpenMP-parallel like CircuitExecutor::run_batch. Const and
  /// stateless, so any number of threads may execute through one shared
  /// backend concurrently (the trainer's sample team does).
  virtual std::vector<std::vector<double>> expectations_z_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const = 0;

  /// Per-sample basis-state probability estimates (length 2^n each), like
  /// expectations_z_batch.
  virtual std::vector<std::vector<double>> probabilities_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const = 0;

  // ---- single-sample conveniences (forward to the batch calls) ----------
  std::vector<double> expectations_z(const CircuitExecutor& exec,
                                     const std::vector<double>& params) const;
  std::vector<double> probabilities(const CircuitExecutor& exec,
                                    const std::vector<double>& params) const;

  /// Builds the backend selected by `options`.
  static std::unique_ptr<SimulationBackend> create(
      const SimulationOptions& options);
};

/// Monte-Carlo estimate with its standard error, for consumers that need
/// error bars (the 3-sigma equivalence tests, bench reports).
struct TrajectoryEstimate {
  std::vector<double> mean;       // per-qubit <Z> trajectory mean
  std::vector<double> std_error;  // sqrt(sample variance / trajectories)
};

class TrajectoryBackend final : public SimulationBackend {
 public:
  explicit TrajectoryBackend(const SimulationOptions& options);

  BackendKind kind() const override { return BackendKind::kTrajectory; }
  const char* name() const override { return "trajectory"; }

  std::vector<std::vector<double>> expectations_z_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;
  std::vector<std::vector<double>> probabilities_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;

  /// Like expectations_z for one sample, but also returns per-qubit
  /// standard errors computed from the per-trajectory spread.
  TrajectoryEstimate expectations_z_with_stats(
      const CircuitExecutor& exec, const std::vector<double>& params,
      const Statevector* initial = nullptr) const;

 private:
  SimulationOptions options_;
};

class ShotSamplingBackend final : public SimulationBackend {
 public:
  explicit ShotSamplingBackend(const SimulationOptions& options);

  BackendKind kind() const override { return BackendKind::kShotSampling; }
  const char* name() const override { return "shots"; }

  std::vector<std::vector<double>> expectations_z_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;
  std::vector<std::vector<double>> probabilities_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;

 private:
  SimulationOptions options_;
};

class StatevectorBackend final : public SimulationBackend {
 public:
  StatevectorBackend() = default;

  BackendKind kind() const override { return BackendKind::kStatevector; }
  const char* name() const override { return "statevector"; }

  std::vector<std::vector<double>> expectations_z_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;
  std::vector<std::vector<double>> probabilities_batch(
      const CircuitExecutor& exec,
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& initials) const override;
};

namespace backend_detail {
/// Seed derivation shared by the stochastic backends, the per-layer
/// options and the serving layer's request streams: a SplitMix64-style
/// avalanche over (seed, key, index, draw).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key,
                          std::uint64_t index, std::uint64_t draw);
}  // namespace backend_detail

}  // namespace sqvae::qsim
