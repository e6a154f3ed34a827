// CircuitExecutor: compile-once, run-many circuit execution.
//
// `Circuit` is a flat gate list that the naive `run()` path walks gate by
// gate, resolving every `Param` and rebuilding every 2x2 matrix per gate per
// sample. That is the hot path of the paper's hybrid training loop (every
// mini-batch runs the same circuit once per sample, and the adjoint sweep
// walks it back). CircuitExecutor removes the per-sample interpretation
// overhead by compiling the circuit once into a *plan*:
//
//   * runs of adjacent single-qubit gates on the same target are fused into
//     one Mat2 (single-qubit gates on distinct targets commute, so a gate
//     may be delayed until a two-qubit gate touches its wire — this turns
//     the RZ·RY·RZ triple of every `Rot`, plus any neighbouring embedding
//     RY, into a single kernel invocation);
//   * CNOT / CZ / SWAP keep their specialised amplitude-swap / phase-flip
//     kernels, never the generic controlled-matrix path;
//   * maximal runs of >= 2 adjacent *diagonal* steps (fused RZ/Z/S/T
//     matrices, CZ, CRZ) collapse into one kDiagonal step — a single
//     elementwise phase pass over the state (kernels::DiagonalRun), however
//     many gates the run contains;
//   * plan steps whose angles are compile-time constants pre-bind their
//     matrix (or their diagonal phase table) once; only slot-dependent
//     steps are re-bound per sample, an O(plan size) pass that is
//     negligible next to the O(2^n) amplitude kernels. Binding keeps each
//     slot factor's own matrix next to the fused product.
//
// All amplitude kernels go through the runtime-dispatched kernel layer
// (qsim/kernels.h) — the executor, the naive interpreter, the adjoint
// oracle, and the stochastic backends share one vectorised code path.
//
// `run_batch()` / `adjoint_batch()` execute a whole mini-batch with an
// OpenMP-parallel loop over samples (each sample owns its statevector, so
// the loop is embarrassingly parallel). The adjoint sweep (Jones & Gacon,
// see adjoint.h) differentiates through the fused plan in both halves:
// the forward pass is run_batch, whose final states the caller keeps
// (QuantumLayer keeps them on the tape), and adjoint_batch starts from
// those states — it runs no forward pass of its own. Its reverse walk
// un-applies each plan step from psi and lambda with the dagger of its
// bound matrix (or the conjugate of its phase table), then takes one
// cross-matrix reduction M_ab = sum conj(lambda[..a..]) psi[..b..] over
// the step's target pairs (kernels::KernelTable::cross). Every slot factor's
// gradient follows from M and the factor matrices kept by the bind —
// a rotation's derivative is (-i/2) P F — so the reverse half evaluates
// no sin/cos and costs three kernel calls per parameterized fused or
// controlled step. It walks plan order over the full array even where
// the forward pass runs the blocked schedule below. The interpreter's
// per-gate adjoint_gradient stays the oracle it is tested against
// (1e-10).
//
// ---- cache-blocked schedule (20+ qubit states) ----------------------------
//
// Past ~2^15 amplitudes a statevector no longer fits in L2, and the plain
// plan — one full O(2^n) sweep per step — pays a full memory round trip
// per gate. When num_qubits > block_qubits (default 15, i.e. 2^15
// amplitudes = 512 KiB blocks; override with SQVAE_BLOCK_QUBITS or
// ExecutorOptions), the executor compiles a *blocked* schedule on top of
// the fused plan:
//
//   * a step is block-local when every qubit it touches lies below
//     block_qubits (its amplitude pairs never cross a block boundary);
//     kDiagonal steps are block-local regardless of qubit — they are
//     elementwise, and each block reads its own slice of the phase table;
//   * a deterministic compile-time reordering greedily pulls block-local
//     steps into groups, moving a step forward only past steps it
//     commutes with (disjoint qubit sets, or both diagonal). The grouped
//     order is part of the plan: serial and parallel execution run the
//     identical sequence, so threading never changes result bits;
//   * each group executes as one sweep over the blocks — every resident
//     block has all the group's gates applied to it before eviction —
//     OpenMP-parallel across blocks, on the calling thread's budget
//     (common/thread_budget.h), when the state crosses the
//     kernels::use_amplitude_parallel() threshold;
//   * non-local (high-target) steps execute between groups over the full
//     array via the amplitude-parallel kernel table, whose explicit
//     pair-exchange path (KernelTable::apply_single_pairs / swap_runs /
//     negate_run) splits the long contiguous partner runs across threads.
//
// Batch entry points split the calling thread's budget by workload shape
// (kernels::loop_split): when a single state crosses the amplitude-
// parallel threshold, the per-sample loop runs a team of 1 whose member
// hands the whole budget to the kernels inside each state; small states
// share the budget across samples, each member at budget / team on the
// serial per-state fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qsim/adjoint.h"
#include "qsim/circuit.h"
#include "qsim/kernels.h"
#include "qsim/statevector.h"

namespace sqvae::qsim {

/// Compile-time knobs for CircuitExecutor.
struct ExecutorOptions {
  /// log2 of the cache-block size in amplitudes for the blocked schedule.
  /// -1 resolves to the SQVAE_BLOCK_QUBITS environment variable, or 15
  /// (512 KiB blocks). Blocking engages only when the circuit has more
  /// qubits than this.
  int block_qubits = -1;
};

class CircuitExecutor {
 public:
  /// Compiles the fusion plan. The executor is self-contained: it keeps its
  /// own copy of the op list, so the Circuit may be discarded afterwards.
  explicit CircuitExecutor(const Circuit& circuit);

  /// As above, with explicit options (tests and benches pin block_qubits).
  CircuitExecutor(const Circuit& circuit, const ExecutorOptions& options);

  int num_qubits() const { return num_qubits_; }
  int num_param_slots() const { return num_param_slots_; }
  /// Fused plan length — the number of kernel invocations per execution.
  std::size_t num_plan_ops() const { return plan_.size(); }
  /// Original gate count, for fusion-ratio reporting.
  std::size_t num_circuit_ops() const { return ops_.size(); }
  /// Number of fused diagonal-run steps in the plan (each collapses >= 2
  /// diagonal plan steps into one elementwise pass).
  std::size_t num_diag_steps() const { return num_diag_steps_; }
  /// The executor's copy of the original gate list. Engines that interleave
  /// per-gate work with circuit execution (the trajectory backend inserts
  /// stochastic Pauli errors between gates) walk this alongside bind_ops().
  const std::vector<GateOp>& ops() const { return ops_; }

  /// Cache-block size exponent in force for this executor (resolved from
  /// ExecutorOptions / SQVAE_BLOCK_QUBITS at construction).
  int block_qubits() const { return block_qubits_; }
  /// True when the plan runs through the cache-blocked schedule
  /// (num_qubits() > block_qubits()).
  bool blocked() const { return blocked_; }
  /// Number of groups in the blocked schedule: each block-local group is
  /// one sweep over the blocks; each exchange group is one full-array
  /// high-target step. Zero when !blocked().
  std::size_t num_block_groups() const { return groups_.size(); }
  /// Number of non-local steps executed via the pair-exchange path.
  std::size_t num_exchange_steps() const { return num_exchange_steps_; }

  /// Runs the fused plan on `state` in place. Equivalent (up to float
  /// round-off) to qsim::run(circuit, params, state).
  void run(const std::vector<double>& params, Statevector& state) const;

  /// Convenience: runs from |0...0>.
  Statevector run_from_zero(const std::vector<double>& params) const;

  /// Advances states[i] through the plan with params_batch[i], in parallel
  /// over the batch. Sizes must match.
  void run_batch(const std::vector<std::vector<double>>& params_batch,
                 std::vector<Statevector>& states) const;

  /// Binds the 2x2 matrix of every *original* gate op under `params` into
  /// `matrices` (indexed like ops(); CNOT/CZ/SWAP entries are untouched —
  /// they use specialised kernels). This is the per-parameter-set half of
  /// the plan that stochastic engines share: bound once, the matrices are
  /// reused by every Monte-Carlo trajectory of that sample.
  void bind_ops(const std::vector<double>& params,
                std::vector<Mat2>& matrices) const;

  /// The reverse half of one adjoint sweep per sample (see adjoint.h):
  /// returns the expectation value, per-slot gradients, and initial-state
  /// cotangent for each sample. finals[i] is sample i's *final* state, as
  /// run_batch(params_batch, ...) left it — the forward pass already ran,
  /// so this only binds the plan and walks it back, un-applying one plan
  /// step at a time and taking every slot gradient of the step from one
  /// cross-matrix reduction. A final state computed any other way (the
  /// naive interpreter, an unfused pass) gives gradients that differ in the
  /// last bits. Bit-identical at every thread budget.
  std::vector<AdjointResult> adjoint_batch(
      const std::vector<std::vector<double>>& params_batch,
      const std::vector<Statevector>& finals,
      const std::vector<std::vector<double>>& diags) const;

 private:
  enum class StepKind {
    kSingle,      // fused single-qubit matrix on `target`
    kControlled,  // controlled rotation matrix on (control, target)
    kCNOT,
    kCZ,
    kSWAP,
    kDiagonal,  // fused run of diagonal steps -> one elementwise pass
  };

  /// One gate factor of a fused single-qubit run, kept for slot re-binding
  /// and for the reverse walk's derivatives.
  struct Factor {
    GateKind gate;
    Param param;
    Mat2 matrix{};  // pre-bound when `param` is a constant
  };

  struct Step {
    StepKind kind;
    int target = 0;
    int control = -1;
    // kSingle: product of factors_[factor_begin, factor_end), later factors
    // multiplied on the left (they act after earlier ones).
    // kControlled: factor_begin indexes the single controlled factor.
    int factor_begin = 0;
    int factor_end = 0;
    // kDiagonal: component steps diag_components_[diag_begin, diag_end)
    // collapsed into this run; diag_index addresses the bound phase table
    // (const_diag_tables_ when constant, BoundPlan::diag_tables otherwise).
    int diag_begin = 0;
    int diag_end = 0;
    int diag_index = -1;
    // True when no factor references a parameter slot; `matrix` (or the
    // diagonal table) is then pre-bound at compile time and bind() skips
    // this step.
    bool constant = true;
    Mat2 matrix{};
  };

  /// Per-sample bound state of the plan: slot factor matrices,
  /// slot-dependent step matrices, and the expanded phase tables of
  /// slot-dependent diagonal runs. Reused across samples (one instance per
  /// OpenMP thread in the batch loops).
  struct BoundPlan {
    std::vector<Mat2> factors;  // indexed like factors_; slot factors only
    std::vector<Mat2> matrices;
    std::vector<std::vector<cplx>> diag_tables;
    kernels::DiagonalRun scratch_run;
    std::vector<cplx> dagger_table;  // reverse walk: conj of a phase table
  };

  /// One group of the blocked schedule: either a run of block-local steps
  /// applied block by block, or a single non-local (exchange) step.
  struct BlockGroup {
    bool local = true;
    std::vector<std::size_t> steps;  // indices into plan_
  };

  /// Factor `f`'s matrix: pre-bound when constant, else the entry of
  /// `slot_factors` (BoundPlan::factors) bound for this sample.
  const Mat2& factor_matrix(int f,
                            const std::vector<Mat2>& slot_factors) const;

  /// The fused matrix of step `s`: the product of its factor matrices.
  Mat2 bind_step(const Step& s, const std::vector<Mat2>& slot_factors) const;

  /// Collapses the component steps of diagonal-run `s` into `run`.
  void bind_diagonal(const Step& s, const std::vector<Mat2>& slot_factors,
                     kernels::DiagonalRun& run) const;

  /// Re-binds all slot-dependent step matrices and diagonal tables
  /// (constant steps keep their pre-bound values).
  void bind(const std::vector<double>& params, BoundPlan& bound) const;

  /// Applies the plan with the given bound state.
  void execute(const BoundPlan& bound, Statevector& state) const;

  /// Applies plan step `idx` through kernel table `kt` to the sub-array
  /// (amps, len) starting at absolute amplitude offset `off` (diagonal
  /// steps slice their phase table at `off`). For non-blocked execution
  /// off = 0 and len = dim.
  void apply_step(const kernels::KernelTable& kt, std::size_t idx,
                  const BoundPlan& bound, cplx* amps, std::size_t len,
                  std::size_t off) const;

  /// Blocked execute(): group sweeps over cache blocks, exchange steps
  /// over the full array.
  void execute_blocked(const BoundPlan& bound, cplx* amps,
                       std::size_t dim) const;

  /// Reverse half of the adjoint sweep over the plan. On entry psi holds
  /// the final state and lambda O psi; on exit psi holds the initial
  /// state, lambda U^dag O psi, and `grads` has accumulated every slot's
  /// gradient.
  void reverse_walk(BoundPlan& bound, Statevector& psi, Statevector& lambda,
                    std::vector<double>& grads) const;

  /// Adds the gradients of step `s`'s slot factors, given the cross matrix
  /// `m` of lambda and psi taken at the state before the step.
  void accumulate_step_grads(const Step& s, const BoundPlan& bound,
                             const Mat2& m,
                             std::vector<double>& grads) const;

  /// True when the step's matrix is diagonal for every parameter value
  /// (all factors are structurally diagonal gates).
  bool is_diagonal_step(const Step& s) const;

  /// Coalesces maximal runs of >= 2 adjacent diagonal steps of `raw` into
  /// kDiagonal steps; pre-binds the tables of fully-constant runs.
  void coalesce_diagonal_runs(std::vector<Step> raw);

  /// Bitmask (bit q = qubit q) of the qubits step `s` touches.
  std::uint32_t step_qubit_mask(const Step& s) const;

  /// Builds groups_ (the deterministic commute-and-group reordering) when
  /// num_qubits_ > block_qubits_.
  void build_blocked_schedule();

  int num_qubits_;
  int num_param_slots_;
  std::vector<GateOp> ops_;  // original gate list (ops(), bind_ops())
  std::vector<Step> plan_;
  std::vector<Factor> factors_;
  std::vector<Step> diag_components_;  // flattened kDiagonal constituents
  std::vector<std::vector<cplx>> const_diag_tables_;
  std::size_t num_dynamic_diag_ = 0;
  std::size_t num_diag_steps_ = 0;
  int block_qubits_ = 15;
  bool blocked_ = false;
  std::vector<BlockGroup> groups_;
  std::size_t num_exchange_steps_ = 0;
};

}  // namespace sqvae::qsim
