// Table I: trainable-parameter comparison between the classical VAE(AE) and
// the baseline quantum autoencoders F-BQ-VAE(AE) and H-BQ-VAE(AE) on the
// 64-dimensional (8x8) datasets.
//
// Paper values: quantum 0/108/108; classical 5694(5610)/84(0)/4386(4202)
// [sic: 4286/4202]; this bench prints the counts measured from the actual
// modules so any residual architecture ambiguity in the paper is visible
// rather than hidden.
#include "bench_common.h"
#include "common/rng.h"
#include "models/baseline_quantum.h"
#include "models/classical.h"

using namespace sqvae;
using namespace sqvae::models;

int main(int argc, char** argv) {
  Flags flags;
  bench::add_common_flags(flags);
  if (!bench::parse_or_die(flags, argc, argv)) return 0;
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  ClassicalVae vae(classical_config_64(6), rng);
  ClassicalAe ae(classical_config_64(6), rng);
  auto fbq_vae = make_fbq_vae(64, 3, rng);
  auto fbq_ae = make_fbq_ae(64, 3, rng);
  auto hbq_vae = make_hbq_vae(64, 3, rng);
  auto hbq_ae = make_hbq_ae(64, 3, rng);

  auto fmt_pair = [](std::size_t v, std::size_t a) {
    return std::to_string(v) + " (" + std::to_string(a) + ")";
  };

  Table table({"Parameter Type", "VAE(AE)", "F-BQ-VAE(AE)", "H-BQ-VAE(AE)"});
  table.add_row({"Quantum", fmt_pair(vae.num_quantum_parameters(),
                                     ae.num_quantum_parameters()),
                 fmt_pair(fbq_vae->num_quantum_parameters(),
                          fbq_ae->num_quantum_parameters()),
                 fmt_pair(hbq_vae->num_quantum_parameters(),
                          hbq_ae->num_quantum_parameters())});
  table.add_row({"Classical", fmt_pair(vae.num_classical_parameters(),
                                       ae.num_classical_parameters()),
                 fmt_pair(fbq_vae->num_classical_parameters(),
                          fbq_ae->num_classical_parameters()),
                 fmt_pair(hbq_vae->num_classical_parameters(),
                          hbq_ae->num_classical_parameters())});
  auto total = [](Autoencoder& m) {
    return m.num_quantum_parameters() + m.num_classical_parameters();
  };
  table.add_row({"Total", fmt_pair(total(vae), total(ae)),
                 fmt_pair(total(*fbq_vae), total(*fbq_ae)),
                 fmt_pair(total(*hbq_vae), total(*hbq_ae))});

  bench::emit("Table I: trainable parameter counts (measured)", table, flags);
  std::printf(
      "paper reference:\n"
      "  Quantum    0 (0)        108 (108)   108 (108)\n"
      "  Classical  5694 (5610)  84 (0)      4286 (4202)\n"
      "  Total      5694 (5610)  192 (108)   4394 (4310)\n");
  return 0;
}
