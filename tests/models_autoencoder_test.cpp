#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "models/baseline_quantum.h"
#include "models/checkpoint.h"
#include "models/classical.h"
#include "models/model_spec.h"
#include "models/scalable_quantum.h"

namespace sqvae::models {
namespace {

Matrix random_batch(std::size_t rows, std::size_t cols, Rng& rng, double lo,
                    double hi) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.uniform(lo, hi);
  return m;
}

/// Standard normals in row-major order, the order the Rng entry points
/// (build_loss, reconstruct, sample) draw noise rows in.
Matrix normals(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.normal();
  return m;
}

TEST(ClassicalModels, AeShapesAndParamSplit) {
  Rng rng(1);
  ClassicalAe ae(classical_config_64(6), rng);
  EXPECT_EQ(ae.input_dim(), 64u);
  EXPECT_EQ(ae.latent_dim(), 6u);
  EXPECT_FALSE(ae.is_generative());
  EXPECT_EQ(ae.num_quantum_parameters(), 0u);
  // Encoder 64-32-16-6 + decoder 6-16-32-64.
  const std::size_t encoder = (64 * 32 + 32) + (32 * 16 + 16) + (16 * 6 + 6);
  const std::size_t decoder = (6 * 16 + 16) + (16 * 32 + 32) + (32 * 64 + 64);
  EXPECT_EQ(ae.num_classical_parameters(), encoder + decoder);

  const Matrix batch = random_batch(4, 64, rng, 0, 1);
  const Matrix recon = ae.reconstruct(batch, rng);
  EXPECT_EQ(recon.rows(), 4u);
  EXPECT_EQ(recon.cols(), 64u);
}

TEST(ClassicalModels, VaeEmitsLatentStatsAndSamples) {
  Rng rng(2);
  ClassicalVae vae(classical_config_64(6), rng);
  EXPECT_TRUE(vae.is_generative());

  ad::Tape tape;
  const Matrix batch = random_batch(3, 64, rng, 0, 1);
  const Matrix noise = normals(3, vae.latent_dim(), rng);
  ForwardResult fwd = vae.forward(tape, tape.constant(batch), noise);
  ASSERT_TRUE(fwd.mu.has_value());
  ASSERT_TRUE(fwd.logvar.has_value());
  EXPECT_EQ(tape.value(*fwd.mu).cols(), 6u);

  const Matrix samples = vae.sample(7, rng);
  EXPECT_EQ(samples.rows(), 7u);
  EXPECT_EQ(samples.cols(), 64u);
}

TEST(ClassicalModels, VaeHasMorePametersThanAe) {
  Rng rng(3);
  ClassicalAe ae(classical_config_64(6), rng);
  ClassicalVae vae(classical_config_64(6), rng);
  // The VAE replaces one 16->6 head with two: +102 parameters.
  EXPECT_EQ(vae.num_classical_parameters(),
            ae.num_classical_parameters() + (16 * 6 + 6));
}

TEST(BaselineQuantum, TableOneParameterCounts) {
  // Table I: quantum parameter count 108 for all baseline quantum models
  // (two 6-qubit circuits with 3 entangling layers: 2 * 54).
  Rng rng(4);
  auto fbq_ae = make_fbq_ae(64, 3, rng);
  EXPECT_EQ(fbq_ae->num_quantum_parameters(), 108u);
  EXPECT_EQ(fbq_ae->num_classical_parameters(), 0u);  // fully quantum

  auto fbq_vae = make_fbq_vae(64, 3, rng);
  EXPECT_EQ(fbq_vae->num_quantum_parameters(), 108u);
  // mu/logvar heads: 2 * (6*6 + 6) = 84 (Table I classical count).
  EXPECT_EQ(fbq_vae->num_classical_parameters(), 84u);

  auto hbq_ae = make_hbq_ae(64, 3, rng);
  // latent FC 6->6 (42) + output FC 64->64 (4160) = 4202.
  EXPECT_EQ(hbq_ae->num_classical_parameters(), 4202u);

  auto hbq_vae = make_hbq_vae(64, 3, rng);
  // 4202 + 84 = 4286.
  EXPECT_EQ(hbq_vae->num_classical_parameters(), 4286u);
}

TEST(BaselineQuantum, LatentDimIsLogOfInput) {
  Rng rng(5);
  auto m64 = make_fbq_ae(64, 3, rng);
  EXPECT_EQ(m64->latent_dim(), 6u);
  auto m1024 = make_fbq_ae(1024, 3, rng);
  EXPECT_EQ(m1024->latent_dim(), 10u);
}

TEST(BaselineQuantum, FullyQuantumReconstructionIsProbabilityVector) {
  Rng rng(6);
  auto model = make_fbq_ae(16, 2, rng);
  const Matrix batch = random_batch(3, 16, rng, 0, 1);
  const Matrix recon = model->reconstruct(batch, rng);
  EXPECT_EQ(recon.cols(), 16u);
  for (std::size_t r = 0; r < recon.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < recon.cols(); ++c) {
      EXPECT_GE(recon(r, c), 0.0);
      sum += recon(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(BaselineQuantum, HybridReconstructionEscapesSimplex) {
  // The output FC can produce values outside [0,1] — the point of H-BQ.
  Rng rng(7);
  auto model = make_hbq_ae(16, 2, rng);
  const Matrix batch = random_batch(2, 16, rng, 0, 5);
  const Matrix recon = model->reconstruct(batch, rng);
  EXPECT_EQ(recon.cols(), 16u);
}

TEST(BaselineQuantum, VaeSamplesHaveInputShape) {
  Rng rng(8);
  auto model = make_fbq_vae(16, 2, rng);
  const Matrix samples = model->sample(5, rng);
  EXPECT_EQ(samples.rows(), 5u);
  EXPECT_EQ(samples.cols(), 16u);
}

TEST(ScalableQuantum, LsdMatchesPaperTable) {
  // p patches on 1024 features: LSD = p * log2(1024/p).
  EXPECT_EQ(patches_for_lsd_1024(18), 2);
  EXPECT_EQ(patches_for_lsd_1024(32), 4);
  EXPECT_EQ(patches_for_lsd_1024(56), 8);
  EXPECT_EQ(patches_for_lsd_1024(96), 16);

  for (const auto& [patches, lsd] :
       std::vector<std::pair<int, std::size_t>>{
           {2, 18}, {4, 32}, {8, 56}, {16, 96}}) {
    ScalableQuantumConfig c;
    c.input_dim = 1024;
    c.patches = patches;
    EXPECT_EQ(c.latent_dim(), lsd) << patches;
  }
}

TEST(ScalableQuantum, QuantumParameterCount) {
  // p encoder + p decoder circuits, each 3*q*L parameters.
  Rng rng(9);
  ScalableQuantumConfig c;
  c.input_dim = 256;
  c.patches = 4;  // q = log2(64) = 6
  c.entangling_layers = 5;
  auto model = make_sq_ae(c, rng);
  EXPECT_EQ(model->num_quantum_parameters(), 2u * 4u * (3u * 6u * 5u));
  EXPECT_EQ(model->latent_dim(), 24u);
}

TEST(ScalableQuantum, ForwardAndDecodeShapes) {
  Rng rng(10);
  ScalableQuantumConfig c;
  c.input_dim = 64;
  c.patches = 2;  // q = 5, LSD = 10
  c.entangling_layers = 2;
  auto model = make_sq_ae(c, rng);
  EXPECT_EQ(model->latent_dim(), 10u);

  const Matrix batch = random_batch(3, 64, rng, 0, 4);
  const Matrix recon = model->reconstruct(batch, rng);
  EXPECT_EQ(recon.rows(), 3u);
  EXPECT_EQ(recon.cols(), 64u);
}

TEST(ScalableQuantum, VaeSamplesAndKl) {
  Rng rng(11);
  ScalableQuantumConfig c;
  c.input_dim = 64;
  c.patches = 2;
  c.entangling_layers = 1;
  auto model = make_sq_vae(c, rng);
  EXPECT_TRUE(model->is_generative());
  const Matrix samples = model->sample(4, rng);
  EXPECT_EQ(samples.rows(), 4u);
  EXPECT_EQ(samples.cols(), 64u);

  ad::Tape tape;
  LossStats stats;
  const Matrix batch = random_batch(2, 64, rng, 0, 4);
  model->build_loss(tape, batch, rng, &stats);
  EXPECT_GT(stats.total, 0.0);
  EXPECT_GE(stats.kl, 0.0);
  EXPECT_NEAR(stats.total, stats.reconstruction_mse + 0.01 * stats.kl, 1e-9);
}

TEST(Autoencoder, ParamGroupsSplitQuantumAndClassical) {
  Rng rng(12);
  ScalableQuantumConfig c;
  c.input_dim = 64;
  c.patches = 2;
  c.entangling_layers = 1;
  auto model = make_sq_ae(c, rng);
  const auto groups = model->param_groups(0.03, 0.01);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].lr, 0.03);  // quantum first
  EXPECT_EQ(groups[1].lr, 0.01);

  ClassicalAe cae(classical_config_64(6), rng);
  const auto cgroups = cae.param_groups(0.03, 0.01);
  ASSERT_EQ(cgroups.size(), 1u);  // no quantum group
  EXPECT_EQ(cgroups[0].lr, 0.01);
}

TEST(Autoencoder, ExplicitNoiseMatchesRngPathBitwise) {
  // forward() takes the reparameterisation noise as data. Drawing the same
  // rows x latent_dim normals up front must give every generative class
  // the bits of the Rng entry points, which draw them internally, and
  // leave the Rng in the same state.
  Rng init(13);
  ScalableQuantumConfig sq;
  sq.input_dim = 16;
  sq.patches = 2;
  sq.entangling_layers = 1;
  std::vector<std::unique_ptr<Autoencoder>> zoo;
  zoo.push_back(std::make_unique<ClassicalVae>(
      ClassicalConfig{16, {8, 4}, 3}, init));
  zoo.push_back(make_fbq_vae(16, 1, init));
  zoo.push_back(make_hbq_vae(16, 1, init));
  zoo.push_back(make_sq_vae(sq, init));
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    Autoencoder& model = *zoo[m];
    ASSERT_TRUE(model.is_generative());
    const Matrix batch = random_batch(3, 16, init, 0, 1);

    Rng explicit_rng(99);
    const Matrix noise = normals(3, model.latent_dim(), explicit_rng);
    ad::Tape tape;
    const ForwardResult fwd =
        model.forward(tape, tape.constant(batch), noise);
    Rng rng(99);
    EXPECT_EQ(model.reconstruct(batch, rng), tape.value(fwd.reconstruction))
        << "model " << m;
    EXPECT_EQ(model.reconstruct(batch, noise), tape.value(fwd.reconstruction))
        << "model " << m;
    EXPECT_EQ(rng.normal(), explicit_rng.normal()) << "model " << m;

    // build_loss draws the same rows: its MSE is the explicit forward's.
    Rng loss_rng(99);
    ad::Tape loss_tape;
    LossStats stats;
    model.build_loss(loss_tape, batch, loss_rng, &stats);
    EXPECT_EQ(stats.reconstruction_mse,
              tape.value(tape.mse_loss(fwd.reconstruction, batch))(0, 0))
        << "model " << m;
  }

  // A plain AE takes no noise and draws none.
  ClassicalAe ae(ClassicalConfig{16, {8, 4}, 3}, init);
  const Matrix batch = random_batch(2, 16, init, 0, 1);
  ad::Tape tape;
  const ForwardResult fwd = ae.forward(tape, tape.constant(batch), Matrix());
  EXPECT_FALSE(fwd.mu.has_value());
  Rng rng(5);
  Rng untouched(5);
  EXPECT_EQ(ae.reconstruct(batch, rng), tape.value(fwd.reconstruction));
  EXPECT_EQ(rng.normal(), untouched.normal());
}

TEST(Autoencoder, ValuesOnlyInferenceMatchesDifferentiableTapeBitwise) {
  // reconstruct, encode_values and decode_values run on values-only tapes,
  // which keep no backward state (a QuantumLayer holds no final states).
  // Every class must answer with the bits of a differentiable tape.
  Rng init(17);
  ScalableQuantumConfig sq;
  sq.input_dim = 16;
  sq.patches = 2;
  sq.entangling_layers = 1;
  std::vector<std::unique_ptr<Autoencoder>> zoo;
  zoo.push_back(
      std::make_unique<ClassicalAe>(ClassicalConfig{16, {8, 4}, 3}, init));
  zoo.push_back(
      std::make_unique<ClassicalVae>(ClassicalConfig{16, {8, 4}, 3}, init));
  zoo.push_back(make_fbq_ae(16, 1, init));
  zoo.push_back(make_fbq_vae(16, 1, init));
  zoo.push_back(make_hbq_ae(16, 1, init));
  zoo.push_back(make_hbq_vae(16, 1, init));
  zoo.push_back(make_sq_ae(sq, init));
  zoo.push_back(make_sq_vae(sq, init));
  auto same_bits = [](const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    Autoencoder& model = *zoo[m];
    const Matrix batch = random_batch(3, 16, init, 0, 1);
    const Matrix noise = model.is_generative()
                             ? normals(3, model.latent_dim(), init)
                             : Matrix();
    ad::Tape tape;
    const ForwardResult fwd =
        model.forward(tape, tape.constant(batch), noise);
    EXPECT_TRUE(same_bits(model.reconstruct(batch, noise),
                          tape.value(fwd.reconstruction)))
        << "model " << m;

    ad::Tape encode_tape;
    const Var z = model.encode_mean(encode_tape, encode_tape.constant(batch));
    EXPECT_TRUE(same_bits(model.encode_values(batch), encode_tape.value(z)))
        << "model " << m;

    const Matrix latent = random_batch(3, model.latent_dim(), init, -1, 1);
    ad::Tape decode_tape;
    const Var out = model.decode(decode_tape, decode_tape.constant(latent));
    EXPECT_TRUE(same_bits(model.decode_values(latent), decode_tape.value(out)))
        << "model " << m;
  }
}

TEST(ModelSpec, FactoryRejectsShapesItsKindCannotTake) {
  struct Case {
    const char* kind;
    std::size_t input_dim;
    int patches;
    int layers;
    std::size_t latent;
    const char* error;
  };
  const Case cases[] = {
      {"nope", 64, 2, 3, 6,
       "unknown model kind: nope (classical-ae, classical-vae, fbq-ae, "
       "fbq-vae, hbq-ae, hbq-vae, sq-ae, sq-vae)"},
      {"fbq-ae", 48, 2, 3, 6,
       "baseline quantum models need a power-of-two input_dim"},
      {"hbq-vae", 0, 2, 3, 6,
       "baseline quantum models need a power-of-two input_dim"},
      {"sq-ae", 64, 3, 3, 6, "sq-* models need input_dim divisible by patches"},
      {"sq-vae", 64, 0, 3, 6,
       "sq-* models need input_dim divisible by patches"},
      {"sq-ae", 64, -2, 3, 6,
       "sq-* models need input_dim divisible by patches"},
      {"sq-vae", 96, 2, 3, 6,
       "sq-* models need a power-of-two input_dim / patches"},
      {"sq-ae", 64, 64, 3, 6,
       "sq-* models need input_dim / patches >= 2 (one qubit per patch)"},
      {"sq-vae", 0, 2, 3, 6,
       "sq-* models need input_dim / patches >= 2 (one qubit per patch)"},
      {"hbq-vae", 64, 2, -1, 6,
       "quantum models need at least 1 entangling layer"},
      {"fbq-ae", 64, 2, 0, 6,
       "quantum models need at least 1 entangling layer"},
      {"sq-vae", 64, 2, 0, 6,
       "quantum models need at least 1 entangling layer"},
      {"classical-ae", 64, 2, 3, 0,
       "classical models need a latent dimension >= 1"},
      {"classical-vae", 1024, 2, 3, 0,
       "classical models need a latent dimension >= 1"},
  };
  for (const Case& c : cases) {
    ModelSpec spec;
    spec.kind = c.kind;
    spec.input_dim = c.input_dim;
    spec.patches = c.patches;
    spec.entangling_layers = c.layers;
    spec.latent = c.latent;
    Rng rng(1);
    std::string error;
    EXPECT_EQ(build_model(spec, rng, &error), nullptr) << c.kind;
    EXPECT_EQ(error, c.error) << c.kind << " " << c.input_dim;
  }
}

TEST(ModelSpec, FlagsRejectValuesThatCannotBuildOrTrain) {
  struct Case {
    std::vector<std::string> args;
    const char* error;
  };
  const Case cases[] = {
      {{"--layers=-1"}, "--layers must be >= 1"},
      {{"--patches=0"}, "--patches must be >= 1"},
      {{"--latent=-3"}, "--latent must be >= 1"},
      {{"--backend=shots", "--shots=0"},
       "--shots must be >= 1 under --backend=shots"},
      {{"--backend=trajectory", "--shots=-1"},
       "--shots must be >= 1 under --backend=trajectory"},
      {{"--gate_error=1.5"}, "--gate_error must lie in [0, 1]"},
      {{"--gate_error=-0.01"}, "--gate_error must lie in [0, 1]"},
      {{"--backend=exact"},
       "unknown --backend=exact (statevector, trajectory, shots)"},
  };
  // The CLIs' path: Flags::parse enforces each flag's registered minimum
  // (--layers, --patches, --latent), then spec_from_flags the rest.
  auto parse = [](const std::vector<std::string>& args, ModelSpec* spec,
                  std::string* error) {
    Flags flags;
    add_model_flags(flags);
    std::vector<const char*> argv = {"prog"};
    for (const std::string& a : args) argv.push_back(a.c_str());
    try {
      EXPECT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
    } catch (const std::invalid_argument& e) {
      *error = e.what();
      return false;
    }
    return spec_from_flags(flags, spec, error);
  };
  for (const Case& c : cases) {
    ModelSpec spec;
    std::string error;
    EXPECT_FALSE(parse(c.args, &spec, &error)) << c.error;
    EXPECT_EQ(error, c.error);
  }
  // The statevector backend ignores --shots, so any value passes.
  ModelSpec spec;
  std::string error;
  EXPECT_TRUE(parse({"--shots=0"}, &spec, &error)) << error;
}

TEST(ModelSpec, FactoryDrawsTheWeightsOfTheDirectConstructors) {
  // sqvae_train builds through the factory with its master Rng, so the
  // factory must draw exactly the weights the per-class constructors draw.
  auto weights = [](Autoencoder& model) {
    std::vector<Matrix> out;
    for (const ad::Parameter* p : checkpoint_parameters(model)) {
      out.push_back(p->value);
    }
    return out;
  };
  ModelSpec spec;
  spec.input_dim = 64;
  spec.entangling_layers = 2;
  ScalableQuantumConfig sq;
  sq.input_dim = 64;
  sq.patches = 2;
  sq.entangling_layers = 2;
  ClassicalConfig classical = classical_config_64(spec.latent);
  std::string error;
  for (const char* kind : {"sq-vae", "hbq-vae", "classical-vae"}) {
    spec.kind = kind;
    Rng a(21), b(21);
    auto built = build_model(spec, a, &error);
    ASSERT_NE(built, nullptr) << error;
    std::unique_ptr<Autoencoder> direct;
    if (spec.kind == "sq-vae") direct = make_sq_vae(sq, b);
    if (spec.kind == "hbq-vae") direct = make_hbq_vae(64, 2, b);
    if (spec.kind == "classical-vae") {
      direct = std::make_unique<ClassicalVae>(classical, b);
    }
    EXPECT_EQ(weights(*built), weights(*direct)) << kind;
  }
}

}  // namespace
}  // namespace sqvae::models
