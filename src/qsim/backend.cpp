#include "qsim/backend.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "common/thread_budget.h"
#include "qsim/kernels.h"

namespace sqvae::qsim {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

namespace backend_detail {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t key,
                          std::uint64_t index, std::uint64_t draw) {
  // Chained avalanches: each input fully diffuses before the next folds in,
  // so (seed, key, index, draw) tuples map to well-separated streams.
  std::uint64_t s = splitmix64(seed);
  s = splitmix64(s ^ key);
  s = splitmix64(s ^ index);
  return splitmix64(s ^ draw);
}

}  // namespace backend_detail

SimulationOptions derive_layer_options(const SimulationOptions& options,
                                       std::uint64_t layer_index) {
  SimulationOptions out = options;
  out.seed = backend_detail::derive_seed(options.seed, 0, layer_index, 0);
  return out;
}

namespace {

using backend_detail::derive_seed;

/// Content key of one sample: a SplitMix avalanche over the bit patterns of
/// its slot values and initial amplitudes — everything its circuit sees.
/// Draw `draw` of the sample seeds its Rng with
/// derive_seed(options.seed, key, 0, draw), so equal inputs replay equal
/// noise wherever and however often they run.
std::uint64_t content_key(const std::vector<double>& params,
                          const Statevector& initial) {
  std::uint64_t key = splitmix64(params.size());
  for (const double v : params) {
    key = splitmix64(key ^ std::bit_cast<std::uint64_t>(v));
  }
  for (const cplx& a : initial.amplitudes()) {
    key = splitmix64(key ^ std::bit_cast<std::uint64_t>(a.real()));
    key = splitmix64(key ^ std::bit_cast<std::uint64_t>(a.imag()));
  }
  return key;
}

/// Writes the measurement (per-qubit <Z> or basis probabilities) into a
/// caller-owned row — the hot-loop variant, so per-trajectory measurements
/// never allocate. Runs through the size-aware kernel layer, like the
/// trajectory replay itself (every apply_* above goes through
/// Statevector and therefore kernels::table_for(): serial inside the
/// batch-parallel loops, amplitude-parallel for large single states).
void measure_into(const Statevector& state, bool probabilities, double* row) {
  const std::size_t dim = state.dim();
  const cplx* amps = state.amplitudes().data();
  if (probabilities) {
    kernels::table_for(dim).probabilities(amps, dim, row);
    return;
  }
  const int n = state.num_qubits();
  for (int q = 0; q < n; ++q) {
    row[q] = kernels::table_for(dim).expectation_z(amps, dim, q);
  }
}

std::vector<double> measure_row(const Statevector& state, bool probabilities) {
  std::vector<double> row(probabilities
                              ? state.dim()
                              : static_cast<std::size_t>(state.num_qubits()));
  measure_into(state, probabilities, row.data());
  return row;
}

// ---- trajectory machinery -------------------------------------------------

/// Flat list of noise-insertion points: after op i, first its target, then
/// (for two-qubit gates) its control — the same order as run_density().
struct NoiseLocations {
  std::vector<int> op_index;
  std::vector<int> qubit;

  explicit NoiseLocations(const std::vector<GateOp>& ops) {
    op_index.reserve(2 * ops.size());
    qubit.reserve(2 * ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      op_index.push_back(static_cast<int>(i));
      qubit.push_back(ops[i].target);
      if (ops[i].control >= 0) {
        op_index.push_back(static_cast<int>(i));
        qubit.push_back(ops[i].control);
      }
    }
  }

  std::size_t size() const { return op_index.size(); }
};

/// First location index >= `start` where an error fires, or `count` when the
/// rest of the circuit stays clean. Geometric gap-sampling: one uniform draw
/// per error event instead of one Bernoulli per location, identical in
/// distribution to independent Bernoulli(p) at every location.
std::size_t next_error_location(sqvae::Rng& rng, double p, std::size_t start,
                                std::size_t count) {
  if (p <= 0.0 || start >= count) return count;
  if (p >= 1.0) return start;
  const double u = rng.uniform();  // [0, 1)
  // P(skip = k) = (1-p)^k p  <=>  skip = floor(log(1-u) / log(1-p)).
  const double skip = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(skip < static_cast<double>(count - start))) return count;
  return start + static_cast<std::size_t>(skip);
}

/// Applies one op with its pre-bound matrix (no fusion).
void apply_bound_op(Statevector& state, const GateOp& op, const Mat2& m) {
  switch (op.kind) {
    case GateKind::kCNOT:
      state.apply_cnot(op.control, op.target);
      break;
    case GateKind::kCZ:
      state.apply_cz(op.control, op.target);
      break;
    case GateKind::kSWAP:
      state.apply_swap(op.control, op.target);
      break;
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      state.apply_controlled_single(m, op.control, op.target);
      break;
    default:
      state.apply_single(m, op.target);
      break;
  }
}

/// Run-time re-fusion of single-qubit gates around sampled error
/// insertions: single-qubit matrices accumulate per wire and are applied in
/// one kernel call when a two-qubit gate — or a Pauli error — touches the
/// wire. This recovers the executor's compile-time fusion win on the
/// stochastic path, where fusion boundaries differ per trajectory.
class LazyFuser {
 public:
  explicit LazyFuser(int num_qubits)
      : pending_(static_cast<std::size_t>(num_qubits)),
        has_(static_cast<std::size_t>(num_qubits), 0) {}

  void reset() { std::fill(has_.begin(), has_.end(), 0); }

  void push(int wire, const Mat2& m) {
    const std::size_t w = static_cast<std::size_t>(wire);
    pending_[w] = has_[w] ? matmul2(m, pending_[w]) : m;
    has_[w] = 1;
  }

  void flush(Statevector& state, int wire) {
    const std::size_t w = static_cast<std::size_t>(wire);
    if (!has_[w]) return;
    state.apply_single(pending_[w], wire);
    has_[w] = 0;
  }

  void flush_all(Statevector& state) {
    for (std::size_t w = 0; w < has_.size(); ++w) {
      flush(state, static_cast<int>(w));
    }
  }

 private:
  std::vector<Mat2> pending_;
  std::vector<char> has_;
};

void fused_apply(Statevector& state, LazyFuser& fuser, const GateOp& op,
                 const Mat2& m) {
  switch (op.kind) {
    case GateKind::kCNOT:
    case GateKind::kCZ:
    case GateKind::kSWAP:
    case GateKind::kCRX:
    case GateKind::kCRY:
    case GateKind::kCRZ:
      fuser.flush(state, op.control);
      fuser.flush(state, op.target);
      apply_bound_op(state, op, m);
      break;
    default:
      fuser.push(op.target, m);
      break;
  }
}

/// Per-sample trajectory engine. A noiseless pass caches a *bounded* set of
/// intermediate states (at most kMaxSnapshots, one every `stride` gates) so
/// a trajectory whose first sampled error follows gate i replays only the
/// gates from the nearest snapshot at or before i — the bound keeps total
/// memory O(2^n) with a fixed constant instead of O(gates * 2^n), at the
/// cost of re-applying at most stride-1 gates per error trajectory.
class TrajectorySample {
 public:
  /// Snapshot-count cap: 64 statevectors is ~4 MB at 12 qubits, and with
  /// realistic circuit depths the replay overhead stays under a couple of
  /// gates per trajectory.
  static constexpr std::size_t kMaxSnapshots = 64;

  TrajectorySample(const CircuitExecutor& exec,
                   const std::vector<double>& params,
                   const Statevector& initial)
      : ops_(exec.ops()),
        locations_(ops_),
        initial_(initial),
        stride_((ops_.size() + kMaxSnapshots - 1) / kMaxSnapshots),
        noiseless_final_(initial) {
    exec.bind_ops(params, op_matrices_);
    if (stride_ == 0) stride_ = 1;
    snapshots_.reserve(ops_.size() / stride_ + 1);
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      apply_bound_op(noiseless_final_, ops_[i], op_matrices_[i]);
      if ((i + 1) % stride_ == 0) snapshots_.push_back(noiseless_final_);
    }
  }

  const Statevector& noiseless_final() const { return noiseless_final_; }

  /// One trajectory's final pure state. `fuser` and `scratch` are reusable
  /// per-thread buffers. Returns nullptr when no error fired (caller should
  /// use the cached noiseless measurement).
  const Statevector* run(double gate_error, sqvae::Rng& rng, LazyFuser& fuser,
                         Statevector& scratch) const {
    const std::size_t count = locations_.size();
    std::size_t loc = next_error_location(rng, gate_error, 0, count);
    if (loc >= count) return nullptr;

    // All locations before `loc` stayed clean, so resume from the nearest
    // noiseless snapshot at or before the first error's gate: snapshot j
    // (if any) holds the state after op (j+1)*stride - 1.
    const std::size_t first_op =
        static_cast<std::size_t>(locations_.op_index[loc]);
    const std::size_t strides_done = (first_op + 1) / stride_;
    scratch = strides_done == 0 ? initial_ : snapshots_[strides_done - 1];
    std::size_t next_op = strides_done * stride_;

    fuser.reset();
    while (loc < count) {
      const std::size_t error_op =
          static_cast<std::size_t>(locations_.op_index[loc]);
      for (std::size_t i = next_op; i <= error_op; ++i) {
        fused_apply(scratch, fuser, ops_[i], op_matrices_[i]);
      }
      next_op = error_op + 1;
      fuser.flush(scratch, locations_.qubit[loc]);
      scratch.apply_single(random_pauli(rng), locations_.qubit[loc]);
      loc = next_error_location(rng, gate_error, loc + 1, count);
    }
    for (std::size_t i = next_op; i < ops_.size(); ++i) {
      fused_apply(scratch, fuser, ops_[i], op_matrices_[i]);
    }
    fuser.flush_all(scratch);
    return &scratch;
  }

 private:
  const std::vector<GateOp>& ops_;
  NoiseLocations locations_;
  Statevector initial_;
  std::size_t stride_;
  std::vector<Mat2> op_matrices_;
  std::vector<Statevector> snapshots_;
  Statevector noiseless_final_;
};

/// Trajectories per reduction chunk: the per-trajectory row buffer is
/// bounded at kChunk * 2^n doubles (1 MB at 9 qubits in probabilities
/// mode), keeping backend memory O(2^n) with a fixed constant while the
/// chunk is still wide enough to feed every OpenMP thread.
constexpr std::size_t kTrajectoryChunk = 256;

/// Runs trajectories [first, first + count) for one sample and fills
/// `rows` (count x row_size). OpenMP-parallel over the chunk; deterministic
/// across thread counts because every trajectory owns a derived RNG stream
/// (keyed by the sample's content key and the trajectory's global index)
/// and its own output row.
void run_trajectory_chunk(const TrajectorySample& sample,
                          const SimulationOptions& options, std::uint64_t key,
                          bool probabilities,
                          const std::vector<double>& noiseless,
                          std::size_t first, std::size_t count,
                          std::vector<double>& rows, std::size_t row_size) {
  rows.resize(count * row_size);
  const std::int64_t n = static_cast<std::int64_t>(count);
  // Large statevectors hand the budget to the amplitude-parallel kernels
  // instead of the per-trajectory loop (as CircuitExecutor::run_batch).
  const int qubits = sample.noiseless_final().num_qubits();
  thread_budget::parallel_for(
      kernels::loop_split(sample.noiseless_final().dim()), n, [&] {
        return [&, fuser = LazyFuser(qubits),
                scratch = Statevector(qubits)](std::int64_t t) mutable {
          sqvae::Rng rng(derive_seed(options.seed, key, 0,
                                     static_cast<std::uint64_t>(first) +
                                         static_cast<std::uint64_t>(t)));
          const Statevector* final_state =
              sample.run(options.noise.gate_error, rng, fuser, scratch);
          double* row = rows.data() + static_cast<std::size_t>(t) * row_size;
          if (final_state == nullptr) {
            for (std::size_t i = 0; i < row_size; ++i) row[i] = noiseless[i];
          } else {
            measure_into(*final_state, probabilities, row);
          }
        };
      });
}

/// Mean (and optionally sum of squares, for standard errors) over all
/// trajectories of one sample, accumulated chunk by chunk in fixed
/// trajectory order — bit-identical to a full-buffer serial reduction, at
/// bounded memory.
std::vector<double> trajectory_mean(const TrajectorySample& sample,
                                    const SimulationOptions& options,
                                    std::uint64_t key, bool probabilities,
                                    std::size_t row_size,
                                    std::vector<double>& chunk_rows,
                                    std::vector<double>* sum_squares) {
  const std::vector<double> noiseless =
      measure_row(sample.noiseless_final(), probabilities);
  assert(noiseless.size() == row_size);
  std::vector<double> mean(row_size, 0.0);
  if (sum_squares != nullptr) sum_squares->assign(row_size, 0.0);
  for (std::size_t first = 0; first < options.shots;
       first += kTrajectoryChunk) {
    const std::size_t count =
        std::min(kTrajectoryChunk, options.shots - first);
    run_trajectory_chunk(sample, options, key, probabilities, noiseless, first,
                         count, chunk_rows, row_size);
    for (std::size_t t = 0; t < count; ++t) {
      const double* row = chunk_rows.data() + t * row_size;
      for (std::size_t i = 0; i < row_size; ++i) {
        mean[i] += row[i];
        if (sum_squares != nullptr) (*sum_squares)[i] += row[i] * row[i];
      }
    }
  }
  for (double& v : mean) v /= static_cast<double>(options.shots);
  return mean;
}

// ---- shot sampling --------------------------------------------------------

/// Inclusive prefix sums of the basis-state probabilities; sampling then
/// costs O(log dim) per shot instead of the O(dim) inverse-CDF walk.
std::vector<double> cumulative_distribution(const Statevector& state) {
  std::vector<double> cdf(state.dim());
  double total = 0.0;
  for (std::size_t i = 0; i < state.dim(); ++i) {
    total += std::norm(state[i]);
    cdf[i] = total;
  }
  return cdf;
}

std::size_t sample_from_cdf(const std::vector<double>& cdf, sqvae::Rng& rng) {
  // Scale by the total mass so float round-off in the prefix sums cannot
  // push a draw past the final bucket.
  const double r = rng.uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

// ---- the regimes ----------------------------------------------------------

std::vector<std::vector<double>> trajectory_measurements(
    const CircuitExecutor& exec,
    const std::vector<std::vector<double>>& params_batch,
    const std::vector<Statevector>& initials, const SimulationOptions& options,
    bool probabilities, std::vector<Statevector>* finals) {
  // The noiseless pass below applies unfused ops, whose state differs from
  // the plan's in the last bits: final states come from the plan itself.
  if (finals != nullptr) {
    *finals = initials;
    exec.run_batch(params_batch, *finals);
  }
  const std::size_t row_size =
      probabilities ? (std::size_t{1} << exec.num_qubits())
                    : static_cast<std::size_t>(exec.num_qubits());
  std::vector<std::vector<double>> out(params_batch.size());
  std::vector<double> chunk_rows;  // trajectory buffer, reused throughout
  for (std::size_t s = 0; s < params_batch.size(); ++s) {
    const TrajectorySample sample(exec, params_batch[s], initials[s]);
    out[s] = trajectory_mean(sample, options,
                             content_key(params_batch[s], initials[s]),
                             probabilities, row_size, chunk_rows, nullptr);
  }
  return out;
}

/// Finite sampling on top of the batch's exact final `states`.
std::vector<std::vector<double>> shot_measurements(
    const CircuitExecutor& exec,
    const std::vector<std::vector<double>>& params_batch,
    const std::vector<Statevector>& initials, const SimulationOptions& options,
    bool probabilities, const std::vector<Statevector>& states) {
  const std::size_t n = static_cast<std::size_t>(exec.num_qubits());
  const std::size_t dim = std::size_t{1} << exec.num_qubits();
  std::vector<std::vector<double>> out(states.size());
  const std::int64_t batch = static_cast<std::int64_t>(states.size());
  // Per-sample parallelism for small states; large states run the sample
  // loop on one thread so the O(dim) CDF build inside gets the budget.
  thread_budget::parallel_for(kernels::loop_split(dim), batch, [&] {
    return [&](std::int64_t i) {
      const std::size_t s = static_cast<std::size_t>(i);
      // One private stream per sample: shots are drawn serially within the
      // sample, so results do not depend on how samples map to threads.
      sqvae::Rng rng(derive_seed(
          options.seed, content_key(params_batch[s], initials[s]), 0, 0));
      const std::vector<double> cdf = cumulative_distribution(states[s]);
      std::vector<double>& row = out[s];
      row.assign(probabilities ? dim : n, 0.0);
      for (std::size_t shot = 0; shot < options.shots; ++shot) {
        const std::size_t outcome = sample_from_cdf(cdf, rng);
        if (probabilities) {
          row[outcome] += 1.0;
        } else {
          for (std::size_t q = 0; q < n; ++q) {
            row[q] += (outcome & (std::size_t{1} << q)) ? -1.0 : 1.0;
          }
        }
      }
      for (double& v : row) v /= static_cast<double>(options.shots);
    };
  });
  return out;
}

}  // namespace

std::vector<std::vector<double>> measure_batch(
    const SimulationOptions& options, const CircuitExecutor& exec,
    const std::vector<std::vector<double>>& params_batch,
    const std::vector<Statevector>& initials, Readout readout,
    std::vector<Statevector>* finals) {
  assert(params_batch.size() == initials.size());
  assert((options.backend == BackendKind::kStatevector || options.shots > 0) &&
         "stochastic regimes need >= 1 shot or trajectory");
  const bool probabilities = readout == Readout::kProbabilities;
  if (options.backend == BackendKind::kTrajectory) {
    return trajectory_measurements(exec, params_batch, initials, options,
                                   probabilities, finals);
  }
  std::vector<Statevector> local;
  std::vector<Statevector>& states = finals != nullptr ? *finals : local;
  states = initials;
  exec.run_batch(params_batch, states);
  if (options.backend == BackendKind::kShotSampling) {
    return shot_measurements(exec, params_batch, initials, options,
                             probabilities, states);
  }
  std::vector<std::vector<double>> out(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    out[i] = measure_row(states[i], probabilities);
  }
  return out;
}

std::vector<double> measure_from_zero(const SimulationOptions& options,
                                      const CircuitExecutor& exec,
                                      const std::vector<double>& params,
                                      Readout readout) {
  const std::vector<Statevector> initials(1, Statevector(exec.num_qubits()));
  return measure_batch(options, exec, {params}, initials, readout)[0];
}

TrajectoryEstimate trajectory_estimate(const SimulationOptions& options,
                                       const CircuitExecutor& exec,
                                       const std::vector<double>& params,
                                       const Statevector& initial) {
  assert(options.shots > 0 && "trajectory estimates need >= 1 trajectory");
  const std::size_t n = static_cast<std::size_t>(exec.num_qubits());
  const double m = static_cast<double>(options.shots);
  const TrajectorySample sample(exec, params, initial);
  std::vector<double> chunk_rows;
  std::vector<double> sum_squares;

  TrajectoryEstimate estimate;
  estimate.mean = trajectory_mean(sample, options, content_key(params, initial),
                                  false, n, chunk_rows, &sum_squares);
  estimate.std_error.assign(n, 0.0);
  if (options.shots > 1) {
    for (std::size_t q = 0; q < n; ++q) {
      // Sample variance from the accumulated first two moments; values
      // live in [-1, 1], so the cancellation error is ~ m * 1e-16 —
      // negligible against any variance the 3-sigma tests can resolve.
      const double var = std::max(
          0.0, (sum_squares[q] - m * estimate.mean[q] * estimate.mean[q]) /
                   (m - 1.0));
      estimate.std_error[q] = std::sqrt(var / m);
    }
  }
  return estimate;
}

}  // namespace sqvae::qsim
