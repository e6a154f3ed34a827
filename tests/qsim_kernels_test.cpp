// Golden equivalence of the dispatched kernel table against the scalar
// reference table, for every gate class, every register width 1..10, and
// every target/control qubit position.
//
// Where the vectorised kernels perform only moves and sign flips
// (CNOT/CZ/SWAP) the comparison is bitwise; where they reassociate
// arithmetic (FMA in the 2x2 and diagonal kernels, vector-lane reduction
// order in the inner products) the comparison uses a 1e-12 absolute
// tolerance — orders of magnitude below anything training can resolve.
//
// On machines without AVX2 (or with -DSQVAE_SIMD=OFF) the dispatched table
// IS the scalar table and every comparison is trivially exact; the suite
// still runs so the scalar kernels stay continuously exercised, and CI
// additionally re-runs everything with SQVAE_FORCE_SCALAR=1.
#include "qsim/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "qsim/gates.h"
#include "qsim/statevector.h"

namespace sqvae::qsim {
namespace {

constexpr double kTol = 1e-12;

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
  // Product of three random rotations spans enough of U(2) to catch any
  // lane mix-up; unitarity keeps repeated application well-conditioned.
  const Mat2 a = gate_matrix(GateKind::kRZ, rng.uniform(-3.0, 3.0));
  const Mat2 b = gate_matrix(GateKind::kRY, rng.uniform(-3.0, 3.0));
  const Mat2 c = gate_matrix(GateKind::kRX, rng.uniform(-3.0, 3.0));
  return matmul2(a, matmul2(b, c));
}

void expect_amps_near(const std::vector<cplx>& a, const std::vector<cplx>& b,
                      double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, tol) << "amplitude " << i;
  }
}

void expect_amps_bitwise(const std::vector<cplx>& a,
                         const std::vector<cplx>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)), 0);
}

/// The table under test: dispatched (AVX2 on capable hosts) vs scalar.
const kernels::KernelTable& dispatched() { return kernels::active(); }
const kernels::KernelTable& scalar() { return kernels::scalar_table(); }

TEST(Kernels, DispatchReportsAConsistentIsa) {
  const kernels::Isa isa = kernels::active_isa();
  if (isa == kernels::Isa::kAvx2) {
    // avx2 can only be picked when the TU is compiled in and supported.
    EXPECT_TRUE(kernels::compiled_with_simd());
    EXPECT_NE(kernels::avx2_table_if_supported(), nullptr);
    EXPECT_EQ(&kernels::active(), kernels::avx2_table_if_supported());
  } else {
    EXPECT_EQ(&kernels::active(), &kernels::scalar_table());
  }
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kScalar), "scalar");
  EXPECT_STREQ(kernels::isa_name(kernels::Isa::kAvx2), "avx2");
}

TEST(Kernels, ApplySingleMatchesScalarAtEveryTarget) {
  Rng rng(101);
  for (int n = 1; n <= 10; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int target = 0; target < n; ++target) {
      const Mat2 m = random_unitary(rng);
      std::vector<cplx> a = random_amps(n, rng);
      std::vector<cplx> b = a;
      scalar().apply_single(a.data(), dim, m, target);
      dispatched().apply_single(b.data(), dim, m, target);
      expect_amps_near(a, b, kTol);
    }
  }
}

TEST(Kernels, ApplyControlledSingleMatchesScalarAtEveryPosition) {
  Rng rng(102);
  for (int n = 2; n <= 10; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int control = 0; control < n; ++control) {
      for (int target = 0; target < n; ++target) {
        if (control == target) continue;
        const Mat2 m = random_unitary(rng);
        std::vector<cplx> a = random_amps(n, rng);
        std::vector<cplx> b = a;
        scalar().apply_controlled_single(a.data(), dim, m, control, target);
        dispatched().apply_controlled_single(b.data(), dim, m, control,
                                             target);
        expect_amps_near(a, b, kTol);
      }
    }
  }
}

TEST(Kernels, CnotCzSwapAreBitwiseIdenticalAtEveryPosition) {
  Rng rng(103);
  for (int n = 2; n <= 10; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int q0 = 0; q0 < n; ++q0) {
      for (int q1 = 0; q1 < n; ++q1) {
        if (q0 == q1) continue;
        // Pure amplitude moves / sign flips: the vector path must agree
        // with the scalar path to the last bit.
        {
          std::vector<cplx> a = random_amps(n, rng);
          std::vector<cplx> b = a;
          scalar().apply_cnot(a.data(), dim, q0, q1);
          dispatched().apply_cnot(b.data(), dim, q0, q1);
          expect_amps_bitwise(a, b);
        }
        {
          std::vector<cplx> a = random_amps(n, rng);
          std::vector<cplx> b = a;
          scalar().apply_cz(a.data(), dim, q0, q1);
          dispatched().apply_cz(b.data(), dim, q0, q1);
          expect_amps_bitwise(a, b);
        }
        {
          std::vector<cplx> a = random_amps(n, rng);
          std::vector<cplx> b = a;
          scalar().apply_swap(a.data(), dim, q0, q1);
          dispatched().apply_swap(b.data(), dim, q0, q1);
          expect_amps_bitwise(a, b);
        }
      }
    }
  }
}

TEST(Kernels, TwoQubitKernelsMatchTheSeedSemantics) {
  // The new bit-enumeration loops must reproduce the textbook definitions:
  // CNOT permutes |c=1,t> -> |c=1,1-t>, CZ flips the |11> phase, SWAP
  // exchanges the qubits' roles in the basis index.
  Rng rng(104);
  const int n = 5;
  const std::size_t dim = std::size_t{1} << n;
  for (int control = 0; control < n; ++control) {
    for (int target = 0; target < n; ++target) {
      if (control == target) continue;
      const std::size_t cbit = std::size_t{1} << control;
      const std::size_t tbit = std::size_t{1} << target;
      const std::vector<cplx> in = random_amps(n, rng);

      std::vector<cplx> out = in;
      scalar().apply_cnot(out.data(), dim, control, target);
      for (std::size_t i = 0; i < dim; ++i) {
        const std::size_t src = (i & cbit) ? (i ^ tbit) : i;
        EXPECT_EQ(out[i], in[src]) << "cnot index " << i;
      }

      out = in;
      scalar().apply_cz(out.data(), dim, control, target);
      for (std::size_t i = 0; i < dim; ++i) {
        const cplx want = ((i & cbit) && (i & tbit)) ? -in[i] : in[i];
        EXPECT_EQ(out[i], want) << "cz index " << i;
      }

      out = in;
      scalar().apply_swap(out.data(), dim, control, target);
      for (std::size_t i = 0; i < dim; ++i) {
        std::size_t src = i & ~(cbit | tbit);
        if (i & cbit) src |= tbit;
        if (i & tbit) src |= cbit;
        EXPECT_EQ(out[i], in[src]) << "swap index " << i;
      }
    }
  }
}

kernels::DiagonalRun random_diagonal_run(int num_qubits, Rng& rng) {
  kernels::DiagonalRun run;
  for (int q = 0; q < num_qubits; ++q) {
    if (rng.bernoulli(0.7)) {
      const Mat2 m = gate_matrix(GateKind::kRZ, rng.uniform(-3.0, 3.0));
      run.push_factor(q, m[0], m[3]);
    }
  }
  const int pairs = num_qubits >= 2 ? rng.uniform_int(0, 3) : 0;
  for (int p = 0; p < pairs; ++p) {
    const int c = rng.uniform_int(0, num_qubits - 1);
    int t = rng.uniform_int(0, num_qubits - 2);
    if (t >= c) ++t;
    if (rng.bernoulli(0.5)) {
      run.push_pair(c, t, cplx{1.0, 0.0}, cplx{-1.0, 0.0});  // CZ
    } else {
      const Mat2 m = gate_matrix(GateKind::kCRZ, rng.uniform(-3.0, 3.0));
      run.push_pair(c, t, m[0], m[3]);
    }
  }
  return run;
}

/// Direct per-index evaluation of the run's phase — the semantic oracle
/// for build_diagonal_table().
cplx reference_phase(const kernels::DiagonalRun& run, std::size_t i) {
  cplx phase{1.0, 0.0};
  for (const auto& f : run.factors) {
    phase *= (i >> f.qubit) & 1 ? f.d1 : f.d0;
  }
  for (const auto& p : run.pairs) {
    if ((i >> p.control) & 1) phase *= (i >> p.target) & 1 ? p.p11 : p.p10;
  }
  return phase;
}

TEST(Kernels, DiagonalTableMatchesPerIndexPhases) {
  Rng rng(105);
  for (int n = 1; n <= 10; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      const kernels::DiagonalRun run = random_diagonal_run(n, rng);
      std::vector<cplx> table;
      kernels::build_diagonal_table(run, n, table);
      ASSERT_EQ(table.size(), std::size_t{1} << n);
      for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_NEAR(std::abs(table[i] - reference_phase(run, i)), 0.0, kTol)
            << "n=" << n << " index " << i;
      }
    }
  }
}

TEST(Kernels, ApplyDiagonalTableMatchesScalar) {
  Rng rng(106);
  for (int n = 1; n <= 10; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const kernels::DiagonalRun run = random_diagonal_run(n, rng);
    std::vector<cplx> table;
    kernels::build_diagonal_table(run, n, table);
    std::vector<cplx> a = random_amps(n, rng);
    std::vector<cplx> b = a;
    scalar().apply_diagonal_table(a.data(), dim, table.data());
    dispatched().apply_diagonal_table(b.data(), dim, table.data());
    expect_amps_near(a, b, kTol);
  }
}

TEST(Kernels, DiagonalRunEqualsGateByGateApplication) {
  // Applying the run in one fused pass must equal applying each factor and
  // pair as individual gates through the (dispatched) gate kernels.
  Rng rng(107);
  for (int n = 2; n <= 8; ++n) {
    const kernels::DiagonalRun run = random_diagonal_run(n, rng);
    Statevector fused(random_amps(n, rng));
    Statevector stepwise = fused;

    fused.apply_diagonal_run(run);
    for (const auto& f : run.factors) {
      const Mat2 m{f.d0, cplx{0.0, 0.0}, cplx{0.0, 0.0}, f.d1};
      stepwise.apply_single(m, f.qubit);
    }
    for (const auto& p : run.pairs) {
      const Mat2 m{p.p10, cplx{0.0, 0.0}, cplx{0.0, 0.0}, p.p11};
      stepwise.apply_controlled_single(m, p.control, p.target);
    }
    for (std::size_t i = 0; i < fused.dim(); ++i) {
      EXPECT_NEAR(std::abs(fused[i] - stepwise[i]), 0.0, kTol);
    }
  }
}

TEST(Kernels, PushFactorAndPushPairMergeDuplicates) {
  kernels::DiagonalRun run;
  run.push_factor(2, cplx{0.0, 1.0}, cplx{1.0, 0.0});
  run.push_factor(2, cplx{0.0, -1.0}, cplx{-1.0, 0.0});
  ASSERT_EQ(run.factors.size(), 1u);
  EXPECT_NEAR(std::abs(run.factors[0].d0 - cplx{1.0, 0.0}), 0.0, kTol);
  EXPECT_NEAR(std::abs(run.factors[0].d1 - cplx{-1.0, 0.0}), 0.0, kTol);

  run.push_pair(0, 1, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
  run.push_pair(0, 1, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
  ASSERT_EQ(run.pairs.size(), 1u);
  EXPECT_NEAR(std::abs(run.pairs[0].p11 - cplx{1.0, 0.0}), 0.0, kTol);
}

TEST(Kernels, ReductionsMatchScalar) {
  Rng rng(108);
  for (int n = 1; n <= 10; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> a = random_amps(n, rng);
    const std::vector<cplx> b = random_amps(n, rng);

    const cplx inner_s = scalar().inner(a.data(), b.data(), dim);
    const cplx inner_d = dispatched().inner(a.data(), b.data(), dim);
    EXPECT_NEAR(std::abs(inner_s - inner_d), 0.0, kTol);

    EXPECT_NEAR(scalar().norm_squared(a.data(), dim),
                dispatched().norm_squared(a.data(), dim), kTol);

    for (int q = 0; q < n; ++q) {
      EXPECT_NEAR(scalar().expectation_z(a.data(), dim, q),
                  dispatched().expectation_z(a.data(), dim, q), kTol)
          << "qubit " << q;
    }

    std::vector<double> probs_s(dim);
    std::vector<double> probs_d(dim);
    scalar().probabilities(a.data(), dim, probs_s.data());
    dispatched().probabilities(a.data(), dim, probs_d.data());
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(probs_s[i], probs_d[i], kTol);
    }

    std::vector<double> diag(dim);
    for (double& d : diag) d = rng.uniform(-2.0, 2.0);
    std::vector<cplx> lambda_s(dim);
    std::vector<cplx> lambda_d(dim);
    const double v_s = scalar().apply_diag_observable(diag.data(), a.data(),
                                                      lambda_s.data(), dim);
    const double v_d = dispatched().apply_diag_observable(
        diag.data(), a.data(), lambda_d.data(), dim);
    EXPECT_NEAR(v_s, v_d, kTol);
    expect_amps_near(lambda_s, lambda_d, kTol);
  }
}

/// cross() by its definition: a full-index scan over the pairs of
/// `target` (those with the control bit set when control >= 0).
Mat2 cross_by_definition(const std::vector<cplx>& l,
                         const std::vector<cplx>& p, int control,
                         int target) {
  const std::size_t tbit = std::size_t{1} << target;
  Mat2 m{};
  for (std::size_t i = 0; i < l.size(); ++i) {
    if ((i & tbit) != 0) continue;
    if (control >= 0 && (i & (std::size_t{1} << control)) == 0) continue;
    m[0] += std::conj(l[i]) * p[i];
    m[1] += std::conj(l[i]) * p[i | tbit];
    m[2] += std::conj(l[i | tbit]) * p[i];
    m[3] += std::conj(l[i | tbit]) * p[i | tbit];
  }
  return m;
}

void expect_mat_near(const Mat2& a, const Mat2& b, double tol) {
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(std::abs(a[k] - b[k]), 0.0, tol) << "entry " << k;
  }
}

TEST(Kernels, CrossMatchesDefinitionAtEveryPosition) {
  Rng rng(110);
  for (int n = 1; n <= 8; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const std::vector<cplx> l = random_amps(n, rng);
    const std::vector<cplx> p = random_amps(n, rng);
    for (int target = 0; target < n; ++target) {
      for (int control = -1; control < n; ++control) {
        if (control == target) continue;
        const Mat2 want = cross_by_definition(l, p, control, target);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " control="
                                          << control << " target=" << target);
        expect_mat_near(
            scalar().cross(l.data(), p.data(), dim, control, target), want,
            kTol);
        expect_mat_near(
            dispatched().cross(l.data(), p.data(), dim, control, target),
            want, kTol);
      }
    }
  }
}

TEST(Kernels, CrossPairsMatchesCrossOnTheTopQubit) {
  // The pairs of the top qubit are the two halves of the array, so the
  // pair-run body over them is the whole-array reduction; odd counts hit
  // the AVX2 single-pair tail.
  Rng rng(111);
  for (int n = 1; n <= 7; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    const std::size_t half = dim / 2;
    const std::vector<cplx> l = random_amps(n, rng);
    const std::vector<cplx> p = random_amps(n, rng);
    const Mat2 want = cross_by_definition(l, p, -1, n - 1);
    for (const kernels::KernelTable* kt : {&scalar(), &dispatched()}) {
      expect_mat_near(kt->cross_pairs(l.data(), l.data() + half, p.data(),
                                      p.data() + half, half),
                      want, kTol);
    }
    for (std::size_t count = 1; count <= half; count += 2) {
      expect_mat_near(
          dispatched().cross_pairs(l.data(), l.data() + half, p.data(),
                                   p.data() + half, count),
          scalar().cross_pairs(l.data(), l.data() + half, p.data(),
                               p.data() + half, count),
          kTol);
    }
  }
}

TEST(Kernels, AvxTableAgreesWithScalarWhenPresent) {
  // Direct A/B of the two concrete tables (independent of what dispatch
  // picked — this also covers hosts where SQVAE_FORCE_SCALAR pinned the
  // scalar path but AVX2 is available).
  const kernels::KernelTable* avx2 = kernels::avx2_table_if_supported();
  if (avx2 == nullptr) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or not supported";
  }
  Rng rng(109);
  const int n = 9;
  const std::size_t dim = std::size_t{1} << n;
  const Mat2 m = random_unitary(rng);
  for (int target = 0; target < n; ++target) {
    std::vector<cplx> a = random_amps(n, rng);
    std::vector<cplx> b = a;
    scalar().apply_single(a.data(), dim, m, target);
    avx2->apply_single(b.data(), dim, m, target);
    expect_amps_near(a, b, kTol);
  }
}

}  // namespace
}  // namespace sqvae::qsim
