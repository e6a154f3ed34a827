#include "models/model_spec.h"

#include <utility>

#include "models/baseline_quantum.h"
#include "models/classical.h"
#include "models/scalable_quantum.h"

namespace sqvae::models {

namespace {

bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::unique_ptr<Autoencoder> fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return nullptr;
}

}  // namespace

std::unique_ptr<Autoencoder> build_model(const ModelSpec& spec,
                                         sqvae::Rng& rng, std::string* error) {
  const std::string& kind = spec.kind;
  if (kind == "classical-ae" || kind == "classical-vae") {
    if (spec.latent < 1) {
      return fail(error, "classical models need a latent dimension >= 1");
    }
    ClassicalConfig c = spec.input_dim >= 1024
                            ? classical_config_1024(spec.latent)
                            : classical_config_64(spec.latent);
    c.input_dim = spec.input_dim;
    if (kind == "classical-ae") return std::make_unique<ClassicalAe>(c, rng);
    return std::make_unique<ClassicalVae>(c, rng);
  }
  const bool quantum = kind == "fbq-ae" || kind == "fbq-vae" ||
                       kind == "hbq-ae" || kind == "hbq-vae" ||
                       kind == "sq-ae" || kind == "sq-vae";
  if (quantum && spec.entangling_layers < 1) {
    return fail(error, "quantum models need at least 1 entangling layer");
  }
  if (kind == "fbq-ae" || kind == "fbq-vae" || kind == "hbq-ae" ||
      kind == "hbq-vae") {
    if (!is_power_of_two(spec.input_dim)) {
      return fail(error,
                  "baseline quantum models need a power-of-two input_dim");
    }
    BaselineQuantumConfig c;
    c.input_dim = spec.input_dim;
    c.entangling_layers = spec.entangling_layers;
    c.hybrid = kind[0] == 'h';
    c.generative = kind.ends_with("vae");
    c.sim = spec.sim;
    return std::make_unique<BaselineQuantumAutoencoder>(c, rng);
  }
  if (kind == "sq-ae" || kind == "sq-vae") {
    if (spec.patches <= 0 ||
        spec.input_dim % static_cast<std::size_t>(spec.patches) != 0) {
      return fail(error, "sq-* models need input_dim divisible by patches");
    }
    if (spec.input_dim / static_cast<std::size_t>(spec.patches) < 2) {
      return fail(error,
                  "sq-* models need input_dim / patches >= 2 (one qubit per "
                  "patch)");
    }
    if (!is_power_of_two(spec.input_dim /
                         static_cast<std::size_t>(spec.patches))) {
      return fail(error, "sq-* models need a power-of-two input_dim / patches");
    }
    ScalableQuantumConfig c;
    c.input_dim = spec.input_dim;
    c.patches = spec.patches;
    c.entangling_layers = spec.entangling_layers;
    c.sim = spec.sim;
    if (kind == "sq-ae") return make_sq_ae(c, rng);
    return make_sq_vae(c, rng);
  }
  return fail(error, "unknown model kind: " + kind +
                         " (classical-ae, classical-vae, fbq-ae, fbq-vae, "
                         "hbq-ae, hbq-vae, sq-ae, sq-vae)");
}

void add_model_flags(Flags& flags) {
  flags.add_string("model", "sq-ae",
                   "classical-ae, classical-vae, fbq-ae, fbq-vae, hbq-ae, "
                   "hbq-vae, sq-ae, sq-vae");
  flags.add_int("layers", 3, "entangling layers per circuit", 1);
  flags.add_int("patches", 2, "patch count (sq-ae / sq-vae)", 1);
  flags.add_int("latent", 6, "latent dimension (classical models)", 1);
  flags.add_string("backend", "statevector",
                   "measurement regime: statevector, trajectory, shots");
  flags.add_int("shots", 1024, "shots / trajectories per estimate");
  flags.add_double("gate_error", 0.0,
                   "per-gate Pauli error rate (trajectory backend)");
  flags.add_int("sim_seed", 0x5eed, "backend stream base seed");
}

bool spec_from_flags(const Flags& flags, ModelSpec* spec, std::string* error) {
  spec->kind = flags.get_string("model");
  spec->entangling_layers = static_cast<int>(flags.get_int("layers"));
  spec->patches = static_cast<int>(flags.get_int("patches"));
  spec->latent = static_cast<std::size_t>(flags.get_int("latent"));
  const std::string backend = flags.get_string("backend");
  if (backend == "statevector") {
    spec->sim.backend = qsim::BackendKind::kStatevector;
  } else if (backend == "trajectory") {
    spec->sim.backend = qsim::BackendKind::kTrajectory;
  } else if (backend == "shots") {
    spec->sim.backend = qsim::BackendKind::kShotSampling;
  } else {
    *error = "unknown --backend=" + backend +
             " (statevector, trajectory, shots)";
    return false;
  }
  if (spec->sim.backend != qsim::BackendKind::kStatevector &&
      flags.get_int("shots") < 1) {
    *error = "--shots must be >= 1 under --backend=" + backend;
    return false;
  }
  const double gate_error = flags.get_double("gate_error");
  if (!(gate_error >= 0.0 && gate_error <= 1.0)) {
    *error = "--gate_error must lie in [0, 1]";
    return false;
  }
  spec->sim.shots = static_cast<std::size_t>(flags.get_int("shots"));
  spec->sim.noise.gate_error = gate_error;
  spec->sim.seed = static_cast<std::uint64_t>(flags.get_int("sim_seed"));
  return true;
}

}  // namespace sqvae::models
