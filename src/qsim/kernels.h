// Runtime-dispatched statevector kernels: the data-parallel layer under
// every amplitude-touching loop in the simulator.
//
// Statevector::apply_*, the executor's fused plan, the adjoint reverse
// sweep, and the stochastic backends' trajectory replay all funnel through
// the function table returned by active(), so one vectorised implementation
// accelerates every workload at once. Three tables exist:
//
//   * scalar   — portable C++, the reference semantics (and the seed's
//     exact arithmetic for the gate kernels);
//   * avx2     — hand-vectorised AVX2+FMA, compiled into its own
//     translation unit with -mavx2 -mfma (the rest of the binary keeps the
//     baseline ISA, so the executable stays portable) and only selected
//     when the CPU reports both features at startup;
//   * parallel — OpenMP drivers that partition the amplitude array into
//     fixed-size chunks and run the *active* serial table (scalar or avx2)
//     on each chunk. Not a third ISA: a threading layer over the other
//     two, picked per call by state size via table_for() (below).
//
// ISA selection happens once per process, on first use. Setting
// SQVAE_FORCE_SCALAR=1 in the environment pins the scalar table regardless
// of CPU support — CI uses this to run the whole test suite down both
// dispatch paths on the same host. Building with -DSQVAE_SIMD=OFF removes
// the AVX2 translation unit entirely.
//
// ---- KernelTable contract -------------------------------------------------
//
// Kernels operate on raw interleaved complex<double> arrays (`n` is the
// amplitude count, a power of two). Qubit indices follow the repo-wide
// convention (statevector.h): qubit q is bit q of the basis-state index.
//
// Stride classes. Every gate kernel enumerates its (lo, hi) amplitude
// pairs with the same bit loops as the scalar table (kernels.cpp):
//
//   single-qubit, target t:   stride = 2^t; outer blocks of 2*stride, each
//                             holding one contiguous lo-run of `stride`
//                             amplitudes whose partner sits +stride away.
//   two-qubit, masks b1 < b2: three levels — outer blocks of 2*b2, middle
//                             steps of 2*b1, inner contiguous runs of b1
//                             amplitudes (partner offset depends on which
//                             qubit is the target).
//
// The inner-run contiguity is the vectorisation contract: the AVX2 table
// uses 256-bit two-pair vectors when the run length is >= 2, and the
// *target-0 special case* — where lo and hi interleave inside one vector —
// uses an in-register shuffle variant instead (a gather formulation
// loses). Scattered single pairs (run length 1, target != 0) fall back to
// 128-bit ops. All three bodies perform the same per-lane fmaddsub
// arithmetic, so which body handles a pair never changes the result bits.
//
// Sub-array calls. Each kernel is position-independent over whole outer
// blocks: calling it on (amps + off, len) where off and len are multiples
// of the outer block size computes exactly that slice of the full-array
// call, bit for bit. The parallel table and the executor's cache-blocked
// schedule are built entirely on this property.
//
// Thread-safety. All kernels are stateless and reentrant; concurrent calls
// on disjoint amplitude ranges are race-free. The tables themselves are
// immutable after first use. The parallel table sizes its team from the
// calling thread's budget (common/thread_budget.h), so it may be entered
// from anywhere: a member of an enclosing team runs it at its share of
// the budget — at budget 1, serially over the same chunks and bits.
//
// Adding a kernel. (1) Add the function pointer here; (2) implement the
// scalar reference in kernels.cpp and append it to scalar_table() — this
// defines the semantics and the bit-exact baseline; (3) append an AVX2
// body in kernels_avx2.cpp following the stride classes above (reuse
// transform_pairs2 / transform_adjacent / transform_pair128); (4) add a
// parallel driver in kernels.cpp — chunked sub-array calls for elementwise
// or low-stride work, pair-run splitting for high strides, fixed
// block-ordered combination for reductions; (5) extend the golden
// equivalence suites (qsim_kernels_test, qsim_parallel_kernels_test).
// Aggregate initialisation is positional: every table must list every
// member, in declaration order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_budget.h"
#include "qsim/types.h"

namespace sqvae::qsim::kernels {

/// A fused *diagonal run*: the product of adjacent diagonal circuit steps
/// (RZ/Z/S/T single-qubit factors, CZ, CRZ), collapsed into one elementwise
/// phase per basis state:
///
///   phase(i) = prod_f (bit_{f.qubit}(i) ? f.d1 : f.d0)
///            * prod_p (bit_{p.control}(i) ? (bit_{p.target}(i) ? p.p11
///                                                              : p.p10)
///                                         : 1)
///
/// Diagonal matrices commute, so any contiguous plan run may be collapsed
/// regardless of internal order. CZ is the pair {c, t, 1, -1}; CRZ(theta)
/// is {c, t, e^{-i theta/2}, e^{+i theta/2}}.
struct DiagonalRun {
  struct Factor {
    int qubit;
    cplx d0;
    cplx d1;
  };
  struct Pair {
    int control;
    int target;
    cplx p10;
    cplx p11;
  };

  std::vector<Factor> factors;  // at most one entry per qubit (merged)
  std::vector<Pair> pairs;

  void clear() {
    factors.clear();
    pairs.clear();
  }

  /// Multiplies diag(d0, d1) on `qubit` into the run, merging with an
  /// existing factor on the same qubit.
  void push_factor(int qubit, cplx d0, cplx d1);

  /// Appends a controlled phase pair (applied where `control` is set).
  void push_pair(int control, int target, cplx p10, cplx p11);
};

/// Expands a run into the dense per-basis-state phase table of size
/// 2^num_qubits (resized by the call). Factor phases are folded in with a
/// doubling pass (O(2^n) total), pair phases with one strided pass each.
void build_diagonal_table(const DiagonalRun& run, int num_qubits,
                          std::vector<cplx>& table);

/// The dispatchable kernel set. All pointers are always non-null. See the
/// file header for the stride-class / sub-array / thread-safety contract.
struct KernelTable {
  /// General 2x2 gate on `target` (stride-aware: target 0 uses an
  /// in-register shuffle variant in the AVX2 table).
  void (*apply_single)(cplx* amps, std::size_t n, const Mat2& m, int target);
  /// 2x2 gate on `target`, applied on the control=|1> subspace.
  void (*apply_controlled_single)(cplx* amps, std::size_t n, const Mat2& m,
                                  int control, int target);
  void (*apply_cnot)(cplx* amps, std::size_t n, int control, int target);
  void (*apply_cz)(cplx* amps, std::size_t n, int control, int target);
  void (*apply_swap)(cplx* amps, std::size_t n, int a, int b);
  /// One elementwise pass: amps[i] *= table[i] (a prebuilt diagonal-run
  /// table from build_diagonal_table()).
  void (*apply_diagonal_table)(cplx* amps, std::size_t n, const cplx* table);
  /// <a|b> = sum conj(a[i]) * b[i].
  cplx (*inner)(const cplx* a, const cplx* b, std::size_t n);
  double (*norm_squared)(const cplx* amps, std::size_t n);
  double (*expectation_z)(const cplx* amps, std::size_t n, int qubit);
  /// value = sum diag[i] |psi[i]|^2 and lambda[i] = diag[i] psi[i], fused
  /// in one pass (the adjoint sweep's observable application).
  double (*apply_diag_observable)(const double* diag, const cplx* psi,
                                  cplx* lambda, std::size_t n);
  /// out[i] = |amps[i]|^2.
  void (*probabilities)(const cplx* amps, std::size_t n, double* out);
  /// The 2x2 cross matrix of two states over the amplitude pairs of
  /// `target`: M[2a + b] = sum conj(lambda[..a..]) * psi[..b..], where a
  /// and b are the target bit of the pair members. With control >= 0 only
  /// pairs whose control bit is set contribute; control < 0 sums all
  /// pairs. For any 2x2 G acting on the target (on the control=|1>
  /// subspace when controlled), <lambda| G |psi> = sum_ab G_ab M_ab — one
  /// pass yields every parameter gradient of a fused plan step (the
  /// executor's adjoint reverse walk).
  Mat2 (*cross)(const cplx* lambda, const cplx* psi, std::size_t n,
                int control, int target);

  // Contiguous pair-run primitives. These are the explicit pair-exchange
  // bodies for high-target-qubit gates: when a qubit mask is so large that
  // an array has only a handful of outer blocks, callers (the parallel
  // drivers, the blocked executor) split the long contiguous lo-run of
  // each block into sub-runs and drive these directly. lo/hi runs must not
  // overlap.

  /// 2x2 gate on pairs (lo[i], hi[i]) for i in [0, count).
  void (*apply_single_pairs)(cplx* lo, cplx* hi, std::size_t count,
                             const Mat2& m);
  /// Exchanges lo[i] <-> hi[i] for i in [0, count) (CNOT/SWAP bodies).
  void (*swap_runs)(cplx* lo, cplx* hi, std::size_t count);
  /// amps[i] = -amps[i] for i in [0, count) (CZ body).
  void (*negate_run)(cplx* amps, std::size_t count);
  /// cross() restricted to the pairs (lo[i], hi[i]), i in [0, count), of
  /// both states: M[2a + b] = sum conj(lambda_a[i]) * psi_b[i] with
  /// lambda_0 = lambda_lo, lambda_1 = lambda_hi (likewise psi).
  Mat2 (*cross_pairs)(const cplx* lambda_lo, const cplx* lambda_hi,
                      const cplx* psi_lo, const cplx* psi_hi,
                      std::size_t count);
};

enum class Isa { kScalar, kAvx2 };

/// "scalar" / "avx2" — stable strings, reported in BENCH_qsim_micro.json.
const char* isa_name(Isa isa);

/// The table picked by runtime ISA dispatch (cached after the first call).
/// Serial: every kernel runs on the calling thread.
const KernelTable& active();

/// Which ISA active() resolved to.
Isa active_isa();

/// Portable reference implementation — the A/B baseline and the golden
/// oracle of the kernel equivalence tests.
const KernelTable& scalar_table();

/// The AVX2 table when it is compiled in *and* the CPU supports AVX2+FMA;
/// nullptr otherwise. Ignores SQVAE_FORCE_SCALAR (tests use this to compare
/// both implementations inside one process).
const KernelTable* avx2_table_if_supported();

/// True when the binary was built with SQVAE_SIMD (the AVX2 TU is linked).
bool compiled_with_simd();

// ---- amplitude-parallel layer ---------------------------------------------
//
// The parallel table splits each call into fixed-size chunks
// (kParallelChunk amplitudes in kernels.cpp) worked by an OpenMP team;
// every chunk is computed by the active serial table, so the gate kernels
// are bit-identical to their serial counterparts under any partition (the
// writes are disjoint and the per-pair arithmetic is partition-invariant).
// Reductions combine per-chunk partials serially in chunk order; the chunk
// geometry depends only on n, never on the thread count, so every result
// is bit-identical at 1..N threads (fixed-order accumulation). Without
// OpenMP the drivers degrade to a serial loop over the same chunks, keeping
// the chunked reduction order — and therefore the bits — identical.

/// The OpenMP-parallel table; each call runs a team of the calling
/// thread's budget. Safe to call with any n >= 1; callers that want the
/// size threshold use table_for().
const KernelTable& parallel_table();

/// Amplitude count at/above which table_for() picks the parallel table.
/// Default 2^15 (a 15-qubit state, 512 KiB); override with the
/// SQVAE_PAR_THRESHOLD environment variable (amplitudes, 0 = always
/// parallel) or set_parallel_threshold().
std::size_t parallel_threshold();

/// Overrides the threshold at runtime (bench A/B toggling and tests).
/// SIZE_MAX pins the serial path.
void set_parallel_threshold(std::size_t threshold);

/// True when a kernel call on `n` amplitudes should amplitude-parallelise:
/// OpenMP is compiled in and n >= parallel_threshold(). Depends on the
/// size only — never on the thread count — so the chunked reductions are
/// picked by the same rule at every budget. The batch loops use it to hand
/// their whole budget to the state instead of splitting it over samples.
bool use_amplitude_parallel(std::size_t n);

/// parallel_table() when use_amplitude_parallel(n), else active().
const KernelTable& table_for(std::size_t n);

/// How a loop over states of `n` amplitudes splits the calling thread's
/// budget: a state that amplitude-parallelises gets all of it (a team of
/// 1), smaller states share it (one member per budget thread, each at 1).
thread_budget::Split loop_split(std::size_t n);

/// Convenience wrapper: builds the run's table into thread-local scratch
/// and applies it in one pass via the size-appropriate kernel table.
void apply_diagonal_run(cplx* amps, std::size_t n, int num_qubits,
                        const DiagonalRun& run);

}  // namespace sqvae::qsim::kernels
