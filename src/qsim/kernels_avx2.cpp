// AVX2+FMA kernel table. This is the only translation unit compiled with
// -mavx2 -mfma (see CMakeLists.txt, SQVAE_SIMD): the binary as a whole
// keeps the baseline ISA and only jumps in here after kernels.cpp has
// verified the CPU reports both features, so shipping one executable to
// mixed fleets stays safe.
//
// Layout notes. std::complex<double> is two adjacent doubles (re, im), so
// one __m256d holds two packed amplitudes. Complex products use the
// fmaddsub idiom: for a = (ar, ai, ...) and a broadcast coefficient
// c = cr + i*ci,
//
//   a * c = fmaddsub(a, [cr cr ..], (swap_re_im(a)) * [ci ci ..])
//         = (ar*cr - ai*ci, ai*cr + ar*ci, ...)
//
// Stride awareness: for target qubit >= 1 the (i, i + stride) amplitude
// pairs form contiguous runs of >= 2 complex values and use straight
// two-pair vectors; target 0 interleaves the pair inside a single vector,
// where a gather-based formulation loses, so it gets an in-register
// shuffle variant (permute2f128 to splat each half, then one fused
// multiply per matrix column). The two-qubit kernels enumerate affected
// indices with the same three-level bit loops as the scalar table
// (kernels.cpp) and pick per-case inner bodies: 256-bit runs when the
// smaller qubit mask is >= 2, the shuffle variant when the target is
// qubit 0, and 128-bit pair ops for the remaining scattered-single cases.
#ifdef SQVAE_SIMD_AVX2

#include <immintrin.h>

#include <cstddef>

#include "qsim/kernels.h"

namespace sqvae::qsim::kernels {
namespace {

inline double* dp(cplx* p) { return reinterpret_cast<double*>(p); }
inline const double* dp(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}

/// (a0*b0, a1*b1) for packed complex vectors a, b.
inline __m256d cmul(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_unpacklo_pd(b, b);
  const __m256d b_im = _mm256_unpackhi_pd(b, b);
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);
  return _mm256_fmaddsub_pd(a, b_re, _mm256_mul_pd(a_sw, b_im));
}

/// Packed complex times a broadcast coefficient split into re/im vectors.
inline __m256d cmul_bc(__m256d a, __m256d cr, __m256d ci) {
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);
  return _mm256_fmaddsub_pd(a, cr, _mm256_mul_pd(a_sw, ci));
}

/// 2x2 matrix broadcast for the two-pairs-per-vector path.
struct Mat2Bc {
  __m256d m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i;
  explicit Mat2Bc(const Mat2& m)
      : m00r(_mm256_set1_pd(m[0].real())),
        m00i(_mm256_set1_pd(m[0].imag())),
        m01r(_mm256_set1_pd(m[1].real())),
        m01i(_mm256_set1_pd(m[1].imag())),
        m10r(_mm256_set1_pd(m[2].real())),
        m10i(_mm256_set1_pd(m[2].imag())),
        m11r(_mm256_set1_pd(m[3].real())),
        m11i(_mm256_set1_pd(m[3].imag())) {}
};

/// Applies the 2x2 gate to two (a0, a1) amplitude pairs: p0/p1 each point
/// at two contiguous complex values.
inline void transform_pairs2(cplx* p0, cplx* p1, const Mat2Bc& c) {
  const __m256d a0 = _mm256_loadu_pd(dp(p0));
  const __m256d a1 = _mm256_loadu_pd(dp(p1));
  const __m256d r0 = _mm256_add_pd(cmul_bc(a0, c.m00r, c.m00i),
                                   cmul_bc(a1, c.m01r, c.m01i));
  const __m256d r1 = _mm256_add_pd(cmul_bc(a0, c.m10r, c.m10i),
                                   cmul_bc(a1, c.m11r, c.m11i));
  _mm256_storeu_pd(dp(p0), r0);
  _mm256_storeu_pd(dp(p1), r1);
}

/// Shuffle variant for adjacent pairs (target qubit 0): one vector holds
/// (a0, a1); lanes 0-1 become m00*a0 + m01*a1, lanes 2-3 m10*a0 + m11*a1.
struct AdjCoef {
  __m256d c0r, c0i, c1r, c1i;
  explicit AdjCoef(const Mat2& m)
      : c0r(_mm256_setr_pd(m[0].real(), m[0].real(), m[2].real(),
                           m[2].real())),
        c0i(_mm256_setr_pd(m[0].imag(), m[0].imag(), m[2].imag(),
                           m[2].imag())),
        c1r(_mm256_setr_pd(m[1].real(), m[1].real(), m[3].real(),
                           m[3].real())),
        c1i(_mm256_setr_pd(m[1].imag(), m[1].imag(), m[3].imag(),
                           m[3].imag())) {}
};

inline void transform_adjacent(cplx* p, const AdjCoef& c) {
  const __m256d v = _mm256_loadu_pd(dp(p));
  const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
  const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
  const __m256d r =
      _mm256_add_pd(cmul_bc(a0, c.c0r, c.c0i), cmul_bc(a1, c.c1r, c.c1i));
  _mm256_storeu_pd(dp(p), r);
}

/// 128-bit single-pair transform for scattered pairs (control on qubit 0).
struct Mat2Bc128 {
  __m128d m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i;
  explicit Mat2Bc128(const Mat2& m)
      : m00r(_mm_set1_pd(m[0].real())),
        m00i(_mm_set1_pd(m[0].imag())),
        m01r(_mm_set1_pd(m[1].real())),
        m01i(_mm_set1_pd(m[1].imag())),
        m10r(_mm_set1_pd(m[2].real())),
        m10i(_mm_set1_pd(m[2].imag())),
        m11r(_mm_set1_pd(m[3].real())),
        m11i(_mm_set1_pd(m[3].imag())) {}
};

inline __m128d cmul_bc128(__m128d a, __m128d cr, __m128d ci) {
  const __m128d a_sw = _mm_permute_pd(a, 0x1);
  return _mm_fmaddsub_pd(a, cr, _mm_mul_pd(a_sw, ci));
}

inline void transform_pair128(cplx* p0, cplx* p1, const Mat2Bc128& c) {
  const __m128d a0 = _mm_loadu_pd(dp(p0));
  const __m128d a1 = _mm_loadu_pd(dp(p1));
  const __m128d r0 = _mm_add_pd(cmul_bc128(a0, c.m00r, c.m00i),
                                cmul_bc128(a1, c.m01r, c.m01i));
  const __m128d r1 = _mm_add_pd(cmul_bc128(a0, c.m10r, c.m10i),
                                cmul_bc128(a1, c.m11r, c.m11i));
  _mm_storeu_pd(dp(p0), r0);
  _mm_storeu_pd(dp(p1), r1);
}

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

// ---- gate kernels ---------------------------------------------------------

void avx2_apply_single(cplx* amps, std::size_t n, const Mat2& m, int target) {
  if (target == 0) {
    const AdjCoef c(m);
    for (std::size_t i = 0; i < n; i += 2) transform_adjacent(amps + i, c);
    return;
  }
  const Mat2Bc c(m);
  const std::size_t stride = std::size_t{1} << target;  // >= 2
  for (std::size_t base = 0; base < n; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; i += 2) {
      transform_pairs2(amps + i, amps + i + stride, c);
    }
  }
}

void avx2_apply_controlled_single(cplx* amps, std::size_t n, const Mat2& m,
                                  int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  if (b1 >= 2) {
    const Mat2Bc c(m);
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
        const std::size_t base = i1 | cbit;
        for (std::size_t i = base; i < base + b1; i += 2) {
          transform_pairs2(amps + i, amps + i + tbit, c);
        }
      }
    }
  } else if (target == 0) {
    // Pairs are adjacent (i, i+1) wherever the control bit is set.
    const AdjCoef c(m);
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * cbit) {
      for (std::size_t i1 = i0; i1 < i0 + cbit; i1 += 2) {
        transform_adjacent(amps + (i1 | cbit), c);
      }
    }
  } else {
    // Control on qubit 0: scattered single pairs (i, i + tbit), i odd.
    const Mat2Bc128 c(m);
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * tbit) {
      for (std::size_t i1 = i0; i1 < i0 + tbit; i1 += 2) {
        const std::size_t i = i1 | 1;
        transform_pair128(amps + i, amps + i + tbit, c);
      }
    }
  }
}

void avx2_apply_cnot(cplx* amps, std::size_t n, int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  if (b1 >= 2) {
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
        const std::size_t base = i1 | cbit;
        for (std::size_t i = base; i < base + b1; i += 2) {
          const __m256d va = _mm256_loadu_pd(dp(amps + i));
          const __m256d vb = _mm256_loadu_pd(dp(amps + i + tbit));
          _mm256_storeu_pd(dp(amps + i), vb);
          _mm256_storeu_pd(dp(amps + i + tbit), va);
        }
      }
    }
  } else if (target == 0) {
    // Swap the two adjacent complex values inside one vector.
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * cbit) {
      for (std::size_t i1 = i0; i1 < i0 + cbit; i1 += 2) {
        cplx* p = amps + (i1 | cbit);
        const __m256d v = _mm256_loadu_pd(dp(p));
        _mm256_storeu_pd(dp(p), _mm256_permute2f128_pd(v, v, 0x01));
      }
    }
  } else {
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * tbit) {
      for (std::size_t i1 = i0; i1 < i0 + tbit; i1 += 2) {
        const std::size_t i = i1 | 1;
        const __m128d va = _mm_loadu_pd(dp(amps + i));
        const __m128d vb = _mm_loadu_pd(dp(amps + i + tbit));
        _mm_storeu_pd(dp(amps + i), vb);
        _mm_storeu_pd(dp(amps + i + tbit), va);
      }
    }
  }
}

void avx2_apply_cz(cplx* amps, std::size_t n, int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  if (b1 >= 2) {
    const __m256d neg = _mm256_set1_pd(-0.0);
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
        const std::size_t base = i1 | cbit | tbit;
        for (std::size_t i = base; i < base + b1; i += 2) {
          _mm256_storeu_pd(
              dp(amps + i),
              _mm256_xor_pd(_mm256_loadu_pd(dp(amps + i)), neg));
        }
      }
    }
  } else {
    const __m128d neg = _mm_set1_pd(-0.0);
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2) {
        const std::size_t i = i1 | cbit | tbit;
        _mm_storeu_pd(dp(amps + i),
                      _mm_xor_pd(_mm_loadu_pd(dp(amps + i)), neg));
      }
    }
  }
}

void avx2_apply_swap(cplx* amps, std::size_t n, int a, int b) {
  const std::size_t abit = std::size_t{1} << a;
  const std::size_t bbit = std::size_t{1} << b;
  const std::size_t b1 = abit < bbit ? abit : bbit;
  const std::size_t b2 = abit < bbit ? bbit : abit;
  const std::size_t flip = abit | bbit;
  if (b1 >= 2) {
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
        const std::size_t base = i1 | abit;
        for (std::size_t i = base; i < base + b1; i += 2) {
          const std::size_t j = i ^ flip;
          const __m256d va = _mm256_loadu_pd(dp(amps + i));
          const __m256d vb = _mm256_loadu_pd(dp(amps + j));
          _mm256_storeu_pd(dp(amps + i), vb);
          _mm256_storeu_pd(dp(amps + j), va);
        }
      }
    }
  } else {
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
      for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2) {
        const std::size_t i = i1 | abit;
        const std::size_t j = i ^ flip;
        const __m128d va = _mm_loadu_pd(dp(amps + i));
        const __m128d vb = _mm_loadu_pd(dp(amps + j));
        _mm_storeu_pd(dp(amps + i), vb);
        _mm_storeu_pd(dp(amps + j), va);
      }
    }
  }
}

void avx2_apply_diagonal_table(cplx* amps, std::size_t n, const cplx* table) {
  for (std::size_t i = 0; i < n; i += 2) {
    _mm256_storeu_pd(dp(amps + i), cmul(_mm256_loadu_pd(dp(amps + i)),
                                        _mm256_loadu_pd(dp(table + i))));
  }
}

// ---- pair-run primitives --------------------------------------------------
//
// Contiguous (lo, hi) runs for the high-target pair-exchange path. The
// 256-bit body is the same fmaddsub arithmetic as transform_pairs2, and the
// odd-length tail drops to the 128-bit body, which performs identical
// per-lane operations — so run splitting at any boundary is bit-neutral.

void avx2_apply_single_pairs(cplx* lo, cplx* hi, std::size_t count,
                             const Mat2& m) {
  const Mat2Bc c(m);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) transform_pairs2(lo + i, hi + i, c);
  if (i < count) {
    const Mat2Bc128 c128(m);
    transform_pair128(lo + i, hi + i, c128);
  }
}

void avx2_swap_runs(cplx* lo, cplx* hi, std::size_t count) {
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const __m256d va = _mm256_loadu_pd(dp(lo + i));
    const __m256d vb = _mm256_loadu_pd(dp(hi + i));
    _mm256_storeu_pd(dp(lo + i), vb);
    _mm256_storeu_pd(dp(hi + i), va);
  }
  if (i < count) {
    const __m128d va = _mm_loadu_pd(dp(lo + i));
    const __m128d vb = _mm_loadu_pd(dp(hi + i));
    _mm_storeu_pd(dp(lo + i), vb);
    _mm_storeu_pd(dp(hi + i), va);
  }
}

void avx2_negate_run(cplx* amps, std::size_t count) {
  const __m256d neg = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    _mm256_storeu_pd(dp(amps + i),
                     _mm256_xor_pd(_mm256_loadu_pd(dp(amps + i)), neg));
  }
  if (i < count) {
    const __m128d neg128 = _mm_set1_pd(-0.0);
    _mm_storeu_pd(dp(amps + i),
                  _mm_xor_pd(_mm_loadu_pd(dp(amps + i)), neg128));
  }
}

// ---- reductions -----------------------------------------------------------

cplx avx2_inner(const cplx* a, const cplx* b, std::size_t n) {
  // conj(a)*b: re = ar*br + ai*bi, im = ar*bi - ai*br. acc_p accumulates
  // the products lane-wise (re parts from every lane), acc_x the swapped
  // products (im = odd lane - even lane per complex).
  __m256d acc_p = _mm256_setzero_pd();
  __m256d acc_x = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; i += 2) {
    const __m256d va = _mm256_loadu_pd(dp(a + i));
    const __m256d vb = _mm256_loadu_pd(dp(b + i));
    acc_p = _mm256_fmadd_pd(va, vb, acc_p);
    acc_x = _mm256_fmadd_pd(_mm256_permute_pd(va, 0x5), vb, acc_x);
  }
  double p[4];
  double x[4];
  _mm256_storeu_pd(p, acc_p);
  _mm256_storeu_pd(x, acc_x);
  return cplx{p[0] + p[1] + p[2] + p[3], (x[1] - x[0]) + (x[3] - x[2])};
}

double avx2_norm_squared(const cplx* amps, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; i += 2) {
    const __m256d v = _mm256_loadu_pd(dp(amps + i));
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  return hsum(acc);
}

double avx2_expectation_z(const cplx* amps, std::size_t n, int qubit) {
  if (qubit == 0) {
    // Lanes 0-1 carry an even basis state (+), lanes 2-3 an odd one (-).
    const __m256d signs = _mm256_setr_pd(0.0, 0.0, -0.0, -0.0);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < n; i += 2) {
      const __m256d v = _mm256_loadu_pd(dp(amps + i));
      acc = _mm256_add_pd(acc, _mm256_xor_pd(_mm256_mul_pd(v, v), signs));
    }
    return hsum(acc);
  }
  const std::size_t bit = std::size_t{1} << qubit;  // >= 2
  __m256d pos = _mm256_setzero_pd();
  __m256d neg = _mm256_setzero_pd();
  for (std::size_t base = 0; base < n; base += 2 * bit) {
    for (std::size_t i = base; i < base + bit; i += 2) {
      const __m256d v0 = _mm256_loadu_pd(dp(amps + i));
      const __m256d v1 = _mm256_loadu_pd(dp(amps + i + bit));
      pos = _mm256_fmadd_pd(v0, v0, pos);
      neg = _mm256_fmadd_pd(v1, v1, neg);
    }
  }
  return hsum(pos) - hsum(neg);
}

double avx2_apply_diag_observable(const double* diag, const cplx* psi,
                                  cplx* lambda, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_loadu_pd(diag + i);
    const __m256d d01 = _mm256_permute4x64_pd(d, 0x50);  // (d0 d0 d1 d1)
    const __m256d d23 = _mm256_permute4x64_pd(d, 0xFA);  // (d2 d2 d3 d3)
    const __m256d p0 = _mm256_loadu_pd(dp(psi + i));
    const __m256d p1 = _mm256_loadu_pd(dp(psi + i + 2));
    _mm256_storeu_pd(dp(lambda + i), _mm256_mul_pd(p0, d01));
    _mm256_storeu_pd(dp(lambda + i + 2), _mm256_mul_pd(p1, d23));
    acc = _mm256_fmadd_pd(_mm256_mul_pd(p0, p0), d01, acc);
    acc = _mm256_fmadd_pd(_mm256_mul_pd(p1, p1), d23, acc);
  }
  double value = hsum(acc);
  for (; i < n; ++i) {
    value += diag[i] * std::norm(psi[i]);
    lambda[i] = diag[i] * psi[i];
  }
  return value;
}

void avx2_probabilities(const cplx* amps, std::size_t n, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v0 = _mm256_loadu_pd(dp(amps + i));
    const __m256d v1 = _mm256_loadu_pd(dp(amps + i + 2));
    // hadd -> (p0 q0 p1 q1); permute to source order (p0 p1 q0 q1).
    const __m256d s =
        _mm256_hadd_pd(_mm256_mul_pd(v0, v0), _mm256_mul_pd(v1, v1));
    _mm256_storeu_pd(out + i, _mm256_permute4x64_pd(s, 0xD8));
  }
  for (; i < n; ++i) out[i] = std::norm(amps[i]);
}

// ---- cross matrix ---------------------------------------------------------
//
// M[2a + b] = sum conj(lambda_a) * psi_b accumulates like avx2_inner: per
// product one lane-wise fmadd for the real part (ar*br + ai*bi, summed
// over a complex's two lanes) and one on the re/im-swapped lambda for the
// imaginary part (ar*bi - ai*br = odd lane - even lane).

/// Accumulators for (lo, hi) pair runs; index k = 2a + b.
struct CrossAcc {
  __m256d p[4];
  __m256d x[4];

  CrossAcc() {
    for (int k = 0; k < 4; ++k) {
      p[k] = _mm256_setzero_pd();
      x[k] = _mm256_setzero_pd();
    }
  }

  /// Adds the products of (up to) two pairs: l0/l1 hold lambda's lo/hi
  /// members, p0/p1 psi's.
  void add(__m256d l0, __m256d l1, __m256d p0, __m256d p1) {
    const __m256d s0 = _mm256_permute_pd(l0, 0x5);
    const __m256d s1 = _mm256_permute_pd(l1, 0x5);
    p[0] = _mm256_fmadd_pd(l0, p0, p[0]);
    x[0] = _mm256_fmadd_pd(s0, p0, x[0]);
    p[1] = _mm256_fmadd_pd(l0, p1, p[1]);
    x[1] = _mm256_fmadd_pd(s0, p1, x[1]);
    p[2] = _mm256_fmadd_pd(l1, p0, p[2]);
    x[2] = _mm256_fmadd_pd(s1, p0, x[2]);
    p[3] = _mm256_fmadd_pd(l1, p1, p[3]);
    x[3] = _mm256_fmadd_pd(s1, p1, x[3]);
  }

  Mat2 result() const {
    Mat2 m;
    for (int k = 0; k < 4; ++k) {
      double pk[4];
      double xk[4];
      _mm256_storeu_pd(pk, p[k]);
      _mm256_storeu_pd(xk, x[k]);
      m[static_cast<std::size_t>(k)] = cplx{pk[0] + pk[1] + pk[2] + pk[3],
                                            (xk[1] - xk[0]) + (xk[3] - xk[2])};
    }
    return m;
  }
};

/// One complex value in lanes 0-1, zeros above (they add nothing).
inline __m256d load_one(const cplx* p) {
  return _mm256_set_m128d(_mm_setzero_pd(), _mm_loadu_pd(dp(p)));
}

/// Two-pair vectors over the run, a single-pair step for an odd tail
/// (scattered pairs, control on qubit 0, are runs of one).
inline void cross_runs(CrossAcc& acc, const cplx* l_lo, const cplx* l_hi,
                       const cplx* p_lo, const cplx* p_hi, std::size_t count) {
  std::size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    acc.add(_mm256_loadu_pd(dp(l_lo + i)), _mm256_loadu_pd(dp(l_hi + i)),
            _mm256_loadu_pd(dp(p_lo + i)), _mm256_loadu_pd(dp(p_hi + i)));
  }
  if (i < count) {
    acc.add(load_one(l_lo + i), load_one(l_hi + i), load_one(p_lo + i),
            load_one(p_hi + i));
  }
}

/// Target-0 variant: one vector holds a whole pair (lo in lanes 0-1, hi
/// in lanes 2-3). Lane-wise products give M00 | M11, products with psi's
/// halves swapped give M01 | M10.
struct AdjCrossAcc {
  __m256d pd = _mm256_setzero_pd();
  __m256d xd = _mm256_setzero_pd();
  __m256d po = _mm256_setzero_pd();
  __m256d xo = _mm256_setzero_pd();

  void add(const cplx* lambda, const cplx* psi) {
    const __m256d l = _mm256_loadu_pd(dp(lambda));
    const __m256d p = _mm256_loadu_pd(dp(psi));
    const __m256d ls = _mm256_permute_pd(l, 0x5);
    const __m256d ps = _mm256_permute2f128_pd(p, p, 0x01);
    pd = _mm256_fmadd_pd(l, p, pd);
    xd = _mm256_fmadd_pd(ls, p, xd);
    po = _mm256_fmadd_pd(l, ps, po);
    xo = _mm256_fmadd_pd(ls, ps, xo);
  }

  Mat2 result() const {
    double a[4];
    double b[4];
    double c[4];
    double d[4];
    _mm256_storeu_pd(a, pd);
    _mm256_storeu_pd(b, xd);
    _mm256_storeu_pd(c, po);
    _mm256_storeu_pd(d, xo);
    return {cplx{a[0] + a[1], b[1] - b[0]}, cplx{c[0] + c[1], d[1] - d[0]},
            cplx{c[2] + c[3], d[3] - d[2]}, cplx{a[2] + a[3], b[3] - b[2]}};
  }
};

Mat2 avx2_cross(const cplx* lambda, const cplx* psi, std::size_t n,
                int control, int target) {
  const std::size_t tbit = std::size_t{1} << target;
  if (control < 0) {
    if (target == 0) {
      AdjCrossAcc acc;
      for (std::size_t i = 0; i < n; i += 2) acc.add(lambda + i, psi + i);
      return acc.result();
    }
    CrossAcc acc;
    for (std::size_t base = 0; base < n; base += 2 * tbit) {
      cross_runs(acc, lambda + base, lambda + base + tbit, psi + base,
                 psi + base + tbit, tbit);
    }
    return acc.result();
  }
  const std::size_t cbit = std::size_t{1} << control;
  if (target == 0) {
    // Adjacent pairs (i, i+1) wherever the control bit is set.
    AdjCrossAcc acc;
    for (std::size_t i0 = 0; i0 < n; i0 += 2 * cbit) {
      for (std::size_t i1 = i0; i1 < i0 + cbit; i1 += 2) {
        acc.add(lambda + (i1 | cbit), psi + (i1 | cbit));
      }
    }
    return acc.result();
  }
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  CrossAcc acc;
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | cbit;
      cross_runs(acc, lambda + base, lambda + base + tbit, psi + base,
                 psi + base + tbit, b1);
    }
  }
  return acc.result();
}

Mat2 avx2_cross_pairs(const cplx* lambda_lo, const cplx* lambda_hi,
                      const cplx* psi_lo, const cplx* psi_hi,
                      std::size_t count) {
  CrossAcc acc;
  cross_runs(acc, lambda_lo, lambda_hi, psi_lo, psi_hi, count);
  return acc.result();
}

}  // namespace

namespace detail {

const KernelTable& avx2_table() {
  static const KernelTable t = {
      avx2_apply_single,
      avx2_apply_controlled_single,
      avx2_apply_cnot,
      avx2_apply_cz,
      avx2_apply_swap,
      avx2_apply_diagonal_table,
      avx2_inner,
      avx2_norm_squared,
      avx2_expectation_z,
      avx2_apply_diag_observable,
      avx2_probabilities,
      avx2_cross,
      avx2_apply_single_pairs,
      avx2_swap_runs,
      avx2_negate_run,
      avx2_cross_pairs,
  };
  return t;
}

}  // namespace detail
}  // namespace sqvae::qsim::kernels

#endif  // SQVAE_SIMD_AVX2
