#include "qsim/kernels.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>

#include "common/number_text.h"
#include "common/thread_budget.h"

namespace sqvae::qsim::kernels {

void DiagonalRun::push_factor(int qubit, cplx d0, cplx d1) {
  for (Factor& f : factors) {
    if (f.qubit == qubit) {
      f.d0 *= d0;
      f.d1 *= d1;
      return;
    }
  }
  factors.push_back(Factor{qubit, d0, d1});
}

void DiagonalRun::push_pair(int control, int target, cplx p10, cplx p11) {
  for (Pair& p : pairs) {
    if (p.control == control && p.target == target) {
      p.p10 *= p10;
      p.p11 *= p11;
      return;
    }
  }
  pairs.push_back(Pair{control, target, p10, p11});
}

void build_diagonal_table(const DiagonalRun& run, int num_qubits,
                          std::vector<cplx>& table) {
  const std::size_t dim = std::size_t{1} << num_qubits;
  table.resize(dim);
  table[0] = cplx{1.0, 0.0};
  // Doubling pass: after processing qubit q the first 2^(q+1) entries hold
  // the factor-only phases of those basis states.
  std::size_t size = 1;
  for (int q = 0; q < num_qubits; ++q) {
    cplx d0{1.0, 0.0};
    cplx d1{1.0, 0.0};
    for (const DiagonalRun::Factor& f : run.factors) {
      if (f.qubit == q) {
        d0 = f.d0;
        d1 = f.d1;
        break;
      }
    }
    for (std::size_t j = 0; j < size; ++j) {
      table[size + j] = table[j] * d1;
      table[j] *= d0;
    }
    size *= 2;
  }
  for (const DiagonalRun::Pair& p : run.pairs) {
    const std::size_t cbit = std::size_t{1} << p.control;
    const std::size_t tbit = std::size_t{1} << p.target;
    for (std::size_t i = 0; i < dim; ++i) {
      if ((i & cbit) != 0) table[i] *= (i & tbit) ? p.p11 : p.p10;
    }
  }
}

namespace {

// ---- scalar kernels -------------------------------------------------------
//
// The gate kernels keep the seed's exact arithmetic (same std::complex
// expressions) so routing Statevector through this table changes no bits on
// the scalar path. The two-qubit kernels use a three-level bit enumeration
// instead of the seed's full-index scan with a branch: with b1 = the
// smaller and b2 = the larger of the two qubit masks,
//
//   for (i0 += 2*b2) for (i1 += 2*b1) for (i2 in [0, b1))
//
// visits exactly the indices with the chosen (control, target) bit pattern,
// touching each affected pair once with no per-index branching. The inner
// run of length b1 is contiguous — that contiguity is what the AVX2 table
// vectorises.

void scalar_apply_single(cplx* amps, std::size_t n, const Mat2& m,
                         int target) {
  const std::size_t stride = std::size_t{1} << target;
  for (std::size_t base = 0; base < n; base += 2 * stride) {
    for (std::size_t i = base; i < base + stride; ++i) {
      const cplx a0 = amps[i];
      const cplx a1 = amps[i + stride];
      amps[i] = m[0] * a0 + m[1] * a1;
      amps[i + stride] = m[2] * a0 + m[3] * a1;
    }
  }
}

void scalar_apply_controlled_single(cplx* amps, std::size_t n, const Mat2& m,
                                    int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | cbit;
      for (std::size_t i = base; i < base + b1; ++i) {
        const cplx a0 = amps[i];
        const cplx a1 = amps[i | tbit];
        amps[i] = m[0] * a0 + m[1] * a1;
        amps[i | tbit] = m[2] * a0 + m[3] * a1;
      }
    }
  }
}

void scalar_apply_cnot(cplx* amps, std::size_t n, int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | cbit;
      for (std::size_t i = base; i < base + b1; ++i) {
        const cplx t = amps[i];
        amps[i] = amps[i | tbit];
        amps[i | tbit] = t;
      }
    }
  }
}

void scalar_apply_cz(cplx* amps, std::size_t n, int control, int target) {
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | cbit | tbit;
      for (std::size_t i = base; i < base + b1; ++i) amps[i] = -amps[i];
    }
  }
}

void scalar_apply_swap(cplx* amps, std::size_t n, int a, int b) {
  const std::size_t abit = std::size_t{1} << a;
  const std::size_t bbit = std::size_t{1} << b;
  const std::size_t b1 = abit < bbit ? abit : bbit;
  const std::size_t b2 = abit < bbit ? bbit : abit;
  const std::size_t flip = abit | bbit;
  // Enumerate indices with the a-bit set and the b-bit clear; the partner
  // (a clear, b set) is index ^ flip, so each unordered pair swaps once.
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | abit;
      for (std::size_t i = base; i < base + b1; ++i) {
        const cplx t = amps[i];
        amps[i] = amps[i ^ flip];
        amps[i ^ flip] = t;
      }
    }
  }
}

void scalar_apply_diagonal_table(cplx* amps, std::size_t n,
                                 const cplx* table) {
  for (std::size_t i = 0; i < n; ++i) amps[i] *= table[i];
}

cplx scalar_inner(const cplx* a, const cplx* b, std::size_t n) {
  cplx s{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) s += std::conj(a[i]) * b[i];
  return s;
}

double scalar_norm_squared(const cplx* amps, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += std::norm(amps[i]);
  return s;
}

double scalar_expectation_z(const cplx* amps, std::size_t n, int qubit) {
  const std::size_t bit = std::size_t{1} << qubit;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = std::norm(amps[i]);
    s += (i & bit) ? -p : p;
  }
  return s;
}

double scalar_apply_diag_observable(const double* diag, const cplx* psi,
                                    cplx* lambda, std::size_t n) {
  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    value += diag[i] * std::norm(psi[i]);
    lambda[i] = diag[i] * psi[i];
  }
  return value;
}

void scalar_probabilities(const cplx* amps, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::norm(amps[i]);
}

inline void accumulate_cross(Mat2& m, cplx l0, cplx l1, cplx p0, cplx p1) {
  m[0] += std::conj(l0) * p0;
  m[1] += std::conj(l0) * p1;
  m[2] += std::conj(l1) * p0;
  m[3] += std::conj(l1) * p1;
}

Mat2 scalar_cross(const cplx* lambda, const cplx* psi, std::size_t n,
                  int control, int target) {
  const std::size_t tbit = std::size_t{1} << target;
  Mat2 m{};
  if (control < 0) {
    for (std::size_t base = 0; base < n; base += 2 * tbit) {
      for (std::size_t i = base; i < base + tbit; ++i) {
        accumulate_cross(m, lambda[i], lambda[i + tbit], psi[i],
                         psi[i + tbit]);
      }
    }
    return m;
  }
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t b1 = cbit < tbit ? cbit : tbit;
  const std::size_t b2 = cbit < tbit ? tbit : cbit;
  for (std::size_t i0 = 0; i0 < n; i0 += 2 * b2) {
    for (std::size_t i1 = i0; i1 < i0 + b2; i1 += 2 * b1) {
      const std::size_t base = i1 | cbit;
      for (std::size_t i = base; i < base + b1; ++i) {
        accumulate_cross(m, lambda[i], lambda[i | tbit], psi[i],
                         psi[i | tbit]);
      }
    }
  }
  return m;
}

// Pair-run primitives: the same per-pair arithmetic as the strided kernels
// above, on caller-supplied contiguous runs (high-target pair exchange).

void scalar_apply_single_pairs(cplx* lo, cplx* hi, std::size_t count,
                               const Mat2& m) {
  for (std::size_t i = 0; i < count; ++i) {
    const cplx a0 = lo[i];
    const cplx a1 = hi[i];
    lo[i] = m[0] * a0 + m[1] * a1;
    hi[i] = m[2] * a0 + m[3] * a1;
  }
}

void scalar_swap_runs(cplx* lo, cplx* hi, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const cplx t = lo[i];
    lo[i] = hi[i];
    hi[i] = t;
  }
}

void scalar_negate_run(cplx* amps, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) amps[i] = -amps[i];
}

Mat2 scalar_cross_pairs(const cplx* lambda_lo, const cplx* lambda_hi,
                        const cplx* psi_lo, const cplx* psi_hi,
                        std::size_t count) {
  Mat2 m{};
  for (std::size_t i = 0; i < count; ++i) {
    accumulate_cross(m, lambda_lo[i], lambda_hi[i], psi_lo[i], psi_hi[i]);
  }
  return m;
}

// ---- dispatch -------------------------------------------------------------

bool force_scalar_from_env() {
  const char* v = std::getenv("SQVAE_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

struct Dispatch {
  const KernelTable* table;
  Isa isa;
};

const Dispatch& dispatch() {
  static const Dispatch d = [] {
    if (!force_scalar_from_env()) {
      if (const KernelTable* avx2 = avx2_table_if_supported()) {
        return Dispatch{avx2, Isa::kAvx2};
      }
    }
    return Dispatch{&scalar_table(), Isa::kScalar};
  }();
  return d;
}

// ---- amplitude-parallel drivers -------------------------------------------
//
// Each driver partitions the flattened work space into fixed-size chunks
// and runs the active serial table (scalar or avx2) on each chunk. The
// chunk geometry depends only on n — never on the thread count — so:
//
//   * gate kernels are bit-identical to a serial call under any schedule
//     (disjoint writes, partition-invariant per-pair arithmetic);
//   * reductions combine their per-chunk partials serially in chunk order
//     after the parallel region, making every result bit-identical at
//     1..N threads (the repo determinism contract). They are NOT bitwise
//     equal to the serial table's single left-to-right chain — callers
//     that need the serial bits keep the serial table (table_for() keeps
//     small states there).
//
// Two regimes per gate kernel, keyed on the outer block size 2*b2 (see the
// stride classes in kernels.h):
//
//   low qubits  (2*b2 <= chunk): every chunk is a whole number of outer
//     blocks, so the serial kernel applied to (amps + off, len) computes
//     exactly that slice — one virtual call per chunk, full SIMD inside.
//   high qubits (2*b2 >  chunk): too few outer blocks to chunk. The
//     contiguous lo-runs are split across chunks of the flattened pair
//     space and driven through the explicit pair-exchange primitives
//     (apply_single_pairs / swap_runs / negate_run).

// 4096 amplitudes (64 KiB of cplx) per chunk: small enough that every
// thread gets work at the 2^15-amplitude threshold, large enough that the
// OpenMP dispatch cost vanishes against the chunk's arithmetic.
constexpr std::size_t kParallelChunk = std::size_t{1} << 12;

// A run-time setting, not a stream that feeds results: every kernel is
// bit-identical at every threshold value.
std::atomic<std::size_t>& threshold_storage() {  // lint-allow(stateful-stream)
  static std::atomic<std::size_t> t{
      number_text::env_setting("SQVAE_PAR_THRESHOLD", std::size_t{1} << 15)};
  return t;
}

inline std::int64_t chunk_count(std::size_t n) {
  return static_cast<std::int64_t>((n + kParallelChunk - 1) / kParallelChunk);
}

/// Runs fn(off, len) over fixed-size chunks of [0, n), in parallel.
template <typename Fn>
void for_chunks(std::size_t n, Fn fn) {
  const std::int64_t chunks = chunk_count(n);
  [[maybe_unused]] const int team = thread_budget::current();
#pragma omp parallel for schedule(static) num_threads(team)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::size_t off = static_cast<std::size_t>(c) * kParallelChunk;
    const std::size_t len = n - off < kParallelChunk ? n - off : kParallelChunk;
    fn(off, len);
  }
}

/// High-qubit pair walker. The lo indices of a gate with qubit masks
/// b1 <= b2 form runs of length b1 spaced by the two-level bit pattern;
/// flattened run-local index p in [0, n_units) maps to the array index by
/// re-inserting a zero at each qubit's bit position and OR-ing the fixed
/// set bits. fn(c, i, len) receives maximal sub-runs clipped to chunk
/// boundaries, with c the index of their chunk; chunks partition
/// [0, n_units) in fixed kParallelChunk / 2 steps (each unit touches two
/// amplitudes), and one chunk's runs arrive in ascending order.
template <typename Fn>
void for_pair_runs(std::size_t n_units, std::size_t b1, std::size_t b2,
                   std::size_t set_mask, Fn fn) {
  const std::size_t step = kParallelChunk / 2;
  const std::int64_t chunks =
      static_cast<std::int64_t>((n_units + step - 1) / step);
  [[maybe_unused]] const int team = thread_budget::current();
#pragma omp parallel for schedule(static) num_threads(team)
  for (std::int64_t c = 0; c < chunks; ++c) {
    std::size_t p = static_cast<std::size_t>(c) * step;
    const std::size_t pe = n_units - p < step ? n_units : p + step;
    while (p < pe) {
      const std::size_t o = p & (b1 - 1);
      const std::size_t len = b1 - o < pe - p ? b1 - o : pe - p;
      // Insert a zero bit at the b1 position, then at the b2 position.
      std::size_t i = ((p & ~(b1 - 1)) << 1) | o;
      i = ((i & ~(b2 - 1)) << 1) | (i & (b2 - 1));
      fn(static_cast<std::size_t>(c), i | set_mask, len);
      p += len;
    }
  }
}

/// Single-qubit variant: lo runs of length `stride`, no second level.
template <typename Fn>
void for_single_runs(std::size_t n_pairs, std::size_t stride, Fn fn) {
  const std::size_t step = kParallelChunk / 2;
  const std::int64_t chunks =
      static_cast<std::int64_t>((n_pairs + step - 1) / step);
  [[maybe_unused]] const int team = thread_budget::current();
#pragma omp parallel for schedule(static) num_threads(team)
  for (std::int64_t c = 0; c < chunks; ++c) {
    std::size_t p = static_cast<std::size_t>(c) * step;
    const std::size_t pe = n_pairs - p < step ? n_pairs : p + step;
    while (p < pe) {
      const std::size_t o = p & (stride - 1);
      const std::size_t len = stride - o < pe - p ? stride - o : pe - p;
      fn(static_cast<std::size_t>(c), ((p & ~(stride - 1)) << 1) | o, len);
      p += len;
    }
  }
}

inline void sort_masks(std::size_t x, std::size_t y, std::size_t& b1,
                       std::size_t& b2) {
  b1 = x < y ? x : y;
  b2 = x < y ? y : x;
}

void par_apply_single(cplx* amps, std::size_t n, const Mat2& m, int target) {
  const KernelTable& kt = active();
  const std::size_t stride = std::size_t{1} << target;
  if (2 * stride <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      kt.apply_single(amps + off, len, m, target);
    });
  } else {
    for_single_runs(n / 2, stride,
                    [&](std::size_t, std::size_t i, std::size_t len) {
                      kt.apply_single_pairs(amps + i, amps + i + stride, len,
                                            m);
                    });
  }
}

void par_apply_controlled_single(cplx* amps, std::size_t n, const Mat2& m,
                                 int control, int target) {
  const KernelTable& kt = active();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  std::size_t b1, b2;
  sort_masks(cbit, tbit, b1, b2);
  if (2 * b2 <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      kt.apply_controlled_single(amps + off, len, m, control, target);
    });
  } else {
    for_pair_runs(n / 4, b1, b2, cbit,
                  [&](std::size_t, std::size_t i, std::size_t len) {
                    kt.apply_single_pairs(amps + i, amps + (i | tbit), len,
                                          m);
                  });
  }
}

void par_apply_cnot(cplx* amps, std::size_t n, int control, int target) {
  const KernelTable& kt = active();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  std::size_t b1, b2;
  sort_masks(cbit, tbit, b1, b2);
  if (2 * b2 <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      kt.apply_cnot(amps + off, len, control, target);
    });
  } else {
    for_pair_runs(n / 4, b1, b2, cbit,
                  [&](std::size_t, std::size_t i, std::size_t len) {
                    kt.swap_runs(amps + i, amps + (i | tbit), len);
                  });
  }
}

void par_apply_cz(cplx* amps, std::size_t n, int control, int target) {
  const KernelTable& kt = active();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  std::size_t b1, b2;
  sort_masks(cbit, tbit, b1, b2);
  if (2 * b2 <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      kt.apply_cz(amps + off, len, control, target);
    });
  } else {
    for_pair_runs(n / 4, b1, b2, cbit | tbit,
                  [&](std::size_t, std::size_t i, std::size_t len) {
                    kt.negate_run(amps + i, len);
                  });
  }
}

void par_apply_swap(cplx* amps, std::size_t n, int a, int b) {
  const KernelTable& kt = active();
  const std::size_t abit = std::size_t{1} << a;
  const std::size_t bbit = std::size_t{1} << b;
  std::size_t b1, b2;
  sort_masks(abit, bbit, b1, b2);
  const std::size_t flip = abit | bbit;
  if (2 * b2 <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      kt.apply_swap(amps + off, len, a, b);
    });
  } else {
    // Enumerate lo indices with the a-bit set, b-bit clear; the partner
    // run starts at i ^ flip and is contiguous alongside (len <= b1).
    for_pair_runs(n / 4, b1, b2, abit,
                  [&](std::size_t, std::size_t i, std::size_t len) {
                    kt.swap_runs(amps + i, amps + (i ^ flip), len);
                  });
  }
}

void par_apply_diagonal_table(cplx* amps, std::size_t n, const cplx* table) {
  const KernelTable& kt = active();
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    kt.apply_diagonal_table(amps + off, len, table + off);
  });
}

void par_probabilities(const cplx* amps, std::size_t n, double* out) {
  const KernelTable& kt = active();
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    kt.probabilities(amps + off, len, out + off);
  });
}

cplx par_inner(const cplx* a, const cplx* b, std::size_t n) {
  const KernelTable& kt = active();
  std::vector<cplx> partial(static_cast<std::size_t>(chunk_count(n)));
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    partial[off / kParallelChunk] = kt.inner(a + off, b + off, len);
  });
  cplx s{0.0, 0.0};
  for (const cplx& p : partial) s += p;
  return s;
}

double par_norm_squared(const cplx* amps, std::size_t n) {
  const KernelTable& kt = active();
  std::vector<double> partial(static_cast<std::size_t>(chunk_count(n)));
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    partial[off / kParallelChunk] = kt.norm_squared(amps + off, len);
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return s;
}

double par_expectation_z(const cplx* amps, std::size_t n, int qubit) {
  const KernelTable& kt = active();
  const std::size_t bit = std::size_t{1} << qubit;
  std::vector<double> partial(static_cast<std::size_t>(chunk_count(n)));
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    double p;
    if (2 * bit <= kParallelChunk) {
      // The chunk holds whole 2*bit periods; the serial kernel sees the
      // same bit pattern it would at offset 0.
      p = kt.expectation_z(amps + off, len, qubit);
    } else {
      // The qubit bit is constant across the chunk: uniformly + or -.
      // IEEE negation is exact, so this matches per-element signed
      // accumulation bit for bit.
      p = kt.norm_squared(amps + off, len);
      if ((off & bit) != 0) p = -p;
    }
    partial[off / kParallelChunk] = p;
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return s;
}

double par_apply_diag_observable(const double* diag, const cplx* psi,
                                 cplx* lambda, std::size_t n) {
  const KernelTable& kt = active();
  std::vector<double> partial(static_cast<std::size_t>(chunk_count(n)));
  for_chunks(n, [&](std::size_t off, std::size_t len) {
    partial[off / kParallelChunk] =
        kt.apply_diag_observable(diag + off, psi + off, lambda + off, len);
  });
  double s = 0.0;
  for (double p : partial) s += p;
  return s;
}

/// Adds per-chunk cross matrices in chunk order (the fixed-order
/// combination every parallel reduction uses).
Mat2 sum_in_chunk_order(const std::vector<Mat2>& partial) {
  Mat2 m{};
  for (const Mat2& p : partial) {
    for (std::size_t k = 0; k < 4; ++k) m[k] += p[k];
  }
  return m;
}

Mat2 par_cross(const cplx* lambda, const cplx* psi, std::size_t n,
               int control, int target) {
  const KernelTable& kt = active();
  const std::size_t tbit = std::size_t{1} << target;
  const std::size_t cbit = control < 0 ? 0 : std::size_t{1} << control;
  std::size_t b1, b2;
  sort_masks(cbit, tbit, b1, b2);
  // Every regime below walks at most chunk_count(n) chunks; unused
  // partials stay zero and add nothing.
  std::vector<Mat2> partial(static_cast<std::size_t>(chunk_count(n)),
                            Mat2{});
  if (2 * b2 <= kParallelChunk) {
    for_chunks(n, [&](std::size_t off, std::size_t len) {
      partial[off / kParallelChunk] =
          kt.cross(lambda + off, psi + off, len, control, target);
    });
  } else {
    auto pairs = [&](std::size_t c, std::size_t i, std::size_t len) {
      const Mat2 m = kt.cross_pairs(lambda + i, lambda + (i | tbit),
                                    psi + i, psi + (i | tbit), len);
      for (std::size_t k = 0; k < 4; ++k) partial[c][k] += m[k];
    };
    if (control < 0) {
      for_single_runs(n / 2, tbit, pairs);
    } else {
      for_pair_runs(n / 4, b1, b2, cbit, pairs);
    }
  }
  return sum_in_chunk_order(partial);
}

void par_apply_single_pairs(cplx* lo, cplx* hi, std::size_t count,
                            const Mat2& m) {
  const KernelTable& kt = active();
  for_chunks(count, [&](std::size_t off, std::size_t len) {
    kt.apply_single_pairs(lo + off, hi + off, len, m);
  });
}

void par_swap_runs(cplx* lo, cplx* hi, std::size_t count) {
  const KernelTable& kt = active();
  for_chunks(count, [&](std::size_t off, std::size_t len) {
    kt.swap_runs(lo + off, hi + off, len);
  });
}

void par_negate_run(cplx* amps, std::size_t count) {
  const KernelTable& kt = active();
  for_chunks(count, [&](std::size_t off, std::size_t len) {
    kt.negate_run(amps + off, len);
  });
}

Mat2 par_cross_pairs(const cplx* lambda_lo, const cplx* lambda_hi,
                     const cplx* psi_lo, const cplx* psi_hi,
                     std::size_t count) {
  const KernelTable& kt = active();
  std::vector<Mat2> partial(static_cast<std::size_t>(chunk_count(count)),
                            Mat2{});
  for_chunks(count, [&](std::size_t off, std::size_t len) {
    partial[off / kParallelChunk] =
        kt.cross_pairs(lambda_lo + off, lambda_hi + off, psi_lo + off,
                       psi_hi + off, len);
  });
  return sum_in_chunk_order(partial);
}

}  // namespace

#ifdef SQVAE_SIMD_AVX2
// Defined in kernels_avx2.cpp (the only TU compiled with -mavx2 -mfma).
namespace detail {
const KernelTable& avx2_table();
}

bool compiled_with_simd() { return true; }

const KernelTable* avx2_table_if_supported() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &detail::avx2_table();
  }
#endif
  return nullptr;
}
#else
bool compiled_with_simd() { return false; }

const KernelTable* avx2_table_if_supported() { return nullptr; }
#endif

const KernelTable& scalar_table() {
  static const KernelTable t = {
      scalar_apply_single,
      scalar_apply_controlled_single,
      scalar_apply_cnot,
      scalar_apply_cz,
      scalar_apply_swap,
      scalar_apply_diagonal_table,
      scalar_inner,
      scalar_norm_squared,
      scalar_expectation_z,
      scalar_apply_diag_observable,
      scalar_probabilities,
      scalar_cross,
      scalar_apply_single_pairs,
      scalar_swap_runs,
      scalar_negate_run,
      scalar_cross_pairs,
  };
  return t;
}

const KernelTable& parallel_table() {
  static const KernelTable t = {
      par_apply_single,
      par_apply_controlled_single,
      par_apply_cnot,
      par_apply_cz,
      par_apply_swap,
      par_apply_diagonal_table,
      par_inner,
      par_norm_squared,
      par_expectation_z,
      par_apply_diag_observable,
      par_probabilities,
      par_cross,
      par_apply_single_pairs,
      par_swap_runs,
      par_negate_run,
      par_cross_pairs,
  };
  return t;
}

std::size_t parallel_threshold() {
  return threshold_storage().load(std::memory_order_relaxed);
}

void set_parallel_threshold(std::size_t threshold) {
  threshold_storage().store(threshold, std::memory_order_relaxed);
}

bool use_amplitude_parallel(std::size_t n) {
  return thread_budget::kOpenMP && n >= parallel_threshold();
}

const KernelTable& table_for(std::size_t n) {
  return use_amplitude_parallel(n) ? parallel_table() : active();
}

thread_budget::Split loop_split(std::size_t n) {
  return thread_budget::split(thread_budget::current(),
                              use_amplitude_parallel(n) ? 1 : 0);
}

const KernelTable& active() { return *dispatch().table; }

Isa active_isa() { return dispatch().isa; }

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

void apply_diagonal_run(cplx* amps, std::size_t n, int num_qubits,
                        const DiagonalRun& run) {
  assert(n == (std::size_t{1} << num_qubits));
  thread_local std::vector<cplx> table;
  build_diagonal_table(run, num_qubits, table);
  table_for(n).apply_diagonal_table(amps, n, table.data());
}

}  // namespace sqvae::qsim::kernels
