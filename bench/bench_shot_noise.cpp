// Hardware-realism ablation (extension beyond the paper's noiseless
// simulation): how finite measurement shots and gate-level Pauli noise
// would distort the quantities the SQ-VAE trains on. Every estimate is one
// qsim::measure_from_zero call under a SimulationOptions value
// (qsim/backend.h):
//
//  (1) shot scaling: RMS error of the shot-estimated per-qubit <Z> vector
//      of one encoder patch circuit vs number of shots (expected 1/sqrt(N)),
//      under BackendKind::kShotSampling;
//  (2) noise damping: averaged <Z> magnitude vs per-gate Pauli error rate
//      and circuit depth — quantifying how many entangling layers a given
//      error rate can support before the latent signal depolarizes, under
//      BackendKind::kTrajectory;
//  (3) trajectory-vs-density cross-check: the Monte-Carlo estimate against
//      the exact channel, with wall-clock times — the memory/accuracy
//      trade-off the trajectory regime exists to navigate.
#include <cmath>

#include "bench_common.h"
#include "qsim/backend.h"
#include "qsim/density_matrix.h"
#include "qsim/embedding.h"
#include "qsim/executor.h"

using namespace sqvae;
using namespace sqvae::qsim;

namespace {

SimulationOptions make_options(BackendKind kind, std::size_t shots,
                               double gate_error, std::uint64_t seed) {
  SimulationOptions o;
  o.backend = kind;
  o.shots = shots;
  o.noise.gate_error = gate_error;
  o.seed = seed;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  bench::add_common_flags(flags);
  flags.add_int("qubits", 7, "encoder patch width (paper: 7 for 8 patches)");
  if (!bench::parse_or_die(flags, argc, argv)) return 0;
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed"));
  const int qubits = static_cast<int>(flags.get_int("qubits"));

  // A representative trained-scale patch circuit with random weights.
  Circuit circuit(qubits);
  circuit.strongly_entangling_layers(5, 0);
  std::vector<double> params(
      static_cast<std::size_t>(circuit.num_param_slots()));
  for (double& p : params) p = rng.uniform(-3.14, 3.14);
  const CircuitExecutor exec(circuit);
  const std::vector<double> exact =
      expectations_z(exec.run_from_zero(params));

  Table shots_table({"shots", "RMS error of <Z> vector", "1/sqrt(shots)"});
  for (std::size_t shots : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    // Average RMS over repetitions to reduce the estimate's own noise. The
    // noise of an estimate is keyed by its circuit inputs, so independent
    // repetitions of one circuit take distinct seeds.
    double rms_sum = 0.0;
    const int reps = 10;
    for (int r = 0; r < reps; ++r) {
      const auto est = measure_from_zero(
          make_options(BackendKind::kShotSampling, shots, 0.0,
                       seed + static_cast<std::uint64_t>(r)),
          exec, params, Readout::kExpectationZ);
      double se = 0.0;
      for (std::size_t q = 0; q < est.size(); ++q) {
        const double d = est[q] - exact[q];
        se += d * d;
      }
      rms_sum += std::sqrt(se / static_cast<double>(est.size()));
    }
    shots_table.add_row({std::to_string(shots),
                         Table::fmt(rms_sum / reps, 5),
                         Table::fmt(1.0 / std::sqrt(static_cast<double>(shots)),
                                    5)});
  }
  bench::emit("Shot scaling: <Z> estimation error vs measurement shots",
              shots_table, flags);

  Table noise_table({"layers", "p=0", "p=0.001", "p=0.005", "p=0.02"});
  for (int layers : {1, 3, 5, 7, 9}) {
    Circuit c(qubits);
    c.strongly_entangling_layers(layers, 0);
    const CircuitExecutor layer_exec(c);
    std::vector<double> w(static_cast<std::size_t>(c.num_param_slots()));
    for (double& v : w) v = rng.uniform(-3.14, 3.14);

    std::vector<std::string> row = {std::to_string(layers)};
    for (double p : {0.0, 0.001, 0.005, 0.02}) {
      const std::size_t trajectories = p == 0.0 ? 1 : 400;
      const auto e = measure_from_zero(
          make_options(BackendKind::kTrajectory, trajectories, p, seed),
          layer_exec, w, Readout::kExpectationZ);
      double mag = 0.0;
      for (double v : e) mag += std::abs(v);
      row.push_back(Table::fmt(mag / static_cast<double>(e.size()), 4));
    }
    noise_table.add_row(row);
  }
  bench::emit(
      "Noise damping: mean |<Z>| per qubit vs depth and per-gate error rate",
      noise_table, flags);

  // Trajectory regime vs the exact density-matrix channel: agreement and
  // wall-clock. The density matrix costs O(4^n) per gate and is capped at
  // 12 qubits; trajectories cost O(shots * 2^n) and keep scaling.
  Table xcheck_table({"gate error", "max |traj - exact|", "3/sqrt(M) bound",
                      "trajectory ms", "density ms", "speedup"});
  const std::size_t m = 1000;
  for (double p : {0.001, 0.005, 0.02}) {
    const SimulationOptions options =
        make_options(BackendKind::kTrajectory, m, p, seed);
    Stopwatch watch;
    const auto traj =
        measure_from_zero(options, exec, params, Readout::kExpectationZ);
    const double traj_ms = watch.millis();

    watch.reset();
    const DensityMatrix rho = run_density(circuit, params, NoiseModel{p});
    const double density_ms = watch.millis();

    double max_diff = 0.0;
    for (int q = 0; q < qubits; ++q) {
      max_diff = std::max(
          max_diff, std::abs(traj[static_cast<std::size_t>(q)] -
                             rho.expectation_z(q)));
    }
    xcheck_table.add_row(
        {Table::fmt(p, 3), Table::fmt(max_diff, 4),
         Table::fmt(3.0 / std::sqrt(static_cast<double>(m)), 4),
         Table::fmt(traj_ms, 2), Table::fmt(density_ms, 2),
         Table::fmt(density_ms / traj_ms, 1) + "x"});
  }
  bench::emit(
      "Trajectory backend vs exact density matrix (1000 trajectories)",
      xcheck_table, flags);
  return 0;
}
