#include "qsim/executor.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "common/number_text.h"
#include "common/thread_budget.h"

namespace sqvae::qsim {

namespace {

constexpr Mat2 kIdentity{cplx{1.0, 0.0}, cplx{0.0, 0.0}, cplx{0.0, 0.0},
                         cplx{1.0, 0.0}};

double resolve(const Param& p, const std::vector<double>& params) {
  if (p.index >= 0) {
    assert(static_cast<std::size_t>(p.index) < params.size());
    return params[static_cast<std::size_t>(p.index)];
  }
  return p.constant;
}

/// Resolves ExecutorOptions::block_qubits: explicit option, else the
/// SQVAE_BLOCK_QUBITS environment variable, else 15 (2^15 amplitudes =
/// 512 KiB blocks, sized for a typical L2). Clamped to [8, 24] so a typo
/// can neither block per-cacheline nor disable blocking entirely; text
/// that is not a non-negative integer keeps 15.
int resolve_block_qubits(int option) {
  std::size_t bq = option >= 0
                       ? static_cast<std::size_t>(option)
                       : number_text::env_setting("SQVAE_BLOCK_QUBITS", 15);
  if (bq < 8) bq = 8;
  if (bq > 24) bq = 24;
  return static_cast<int>(bq);
}

}  // namespace

CircuitExecutor::CircuitExecutor(const Circuit& circuit)
    : CircuitExecutor(circuit, ExecutorOptions{}) {}

CircuitExecutor::CircuitExecutor(const Circuit& circuit,
                                 const ExecutorOptions& options)
    : num_qubits_(circuit.num_qubits()),
      num_param_slots_(circuit.num_param_slots()),
      ops_(circuit.ops()),
      block_qubits_(resolve_block_qubits(options.block_qubits)) {
  // Per-target runs of not-yet-emitted single-qubit gates. A run is flushed
  // (fused into one plan step) only when a two-qubit gate touches its wire
  // or the circuit ends; single-qubit gates on other wires commute past it.
  std::vector<std::vector<Factor>> pending(
      static_cast<std::size_t>(num_qubits_));
  std::vector<Step> raw;
  auto make_factor = [](GateKind gate, const Param& param) {
    Factor f{gate, param};
    if (!param.is_slot()) f.matrix = gate_matrix(gate, param.constant);
    return f;
  };

  auto flush = [&](int q) {
    std::vector<Factor>& run = pending[static_cast<std::size_t>(q)];
    if (run.empty()) return;
    Step s;
    s.kind = StepKind::kSingle;
    s.target = q;
    s.factor_begin = static_cast<int>(factors_.size());
    factors_.insert(factors_.end(), run.begin(), run.end());
    s.factor_end = static_cast<int>(factors_.size());
    for (const Factor& f : run) {
      if (f.param.is_slot()) s.constant = false;
    }
    if (s.constant) s.matrix = bind_step(s, {});
    raw.push_back(s);
    run.clear();
  };

  for (const GateOp& op : ops_) {
    switch (op.kind) {
      case GateKind::kCNOT:
      case GateKind::kCZ:
      case GateKind::kSWAP: {
        flush(op.control);
        flush(op.target);
        Step s;
        s.kind = op.kind == GateKind::kCNOT  ? StepKind::kCNOT
                 : op.kind == GateKind::kCZ ? StepKind::kCZ
                                            : StepKind::kSWAP;
        s.target = op.target;
        s.control = op.control;
        raw.push_back(s);
        break;
      }
      case GateKind::kCRX:
      case GateKind::kCRY:
      case GateKind::kCRZ: {
        flush(op.control);
        flush(op.target);
        Step s;
        s.kind = StepKind::kControlled;
        s.target = op.target;
        s.control = op.control;
        s.factor_begin = static_cast<int>(factors_.size());
        factors_.push_back(make_factor(op.kind, op.param));
        s.factor_end = s.factor_begin + 1;
        s.constant = !op.param.is_slot();
        if (s.constant) s.matrix = factors_.back().matrix;
        raw.push_back(s);
        break;
      }
      default:
        pending[static_cast<std::size_t>(op.target)].push_back(
            make_factor(op.kind, op.param));
        break;
    }
  }
  for (int q = 0; q < num_qubits_; ++q) flush(q);

  coalesce_diagonal_runs(std::move(raw));
  build_blocked_schedule();
}

std::uint32_t CircuitExecutor::step_qubit_mask(const Step& s) const {
  switch (s.kind) {
    case StepKind::kSingle:
      return std::uint32_t{1} << s.target;
    case StepKind::kDiagonal: {
      std::uint32_t mask = 0;
      for (int k = s.diag_begin; k < s.diag_end; ++k) {
        mask |= step_qubit_mask(diag_components_[static_cast<std::size_t>(k)]);
      }
      return mask;
    }
    default:
      return (std::uint32_t{1} << s.target) | (std::uint32_t{1} << s.control);
  }
}

void CircuitExecutor::build_blocked_schedule() {
  blocked_ = num_qubits_ > block_qubits_;
  if (!blocked_) return;

  // A step is block-local when its amplitude pairs never cross a cache
  // block: every touched qubit lies below block_qubits_. kDiagonal steps
  // are elementwise — each block reads its own slice of the phase table —
  // so they are local whatever qubits their components reference.
  const std::uint32_t high_mask = ~((std::uint32_t{1} << block_qubits_) - 1);
  auto local = [&](const Step& s) {
    return s.kind == StepKind::kDiagonal ||
           (step_qubit_mask(s) & high_mask) == 0;
  };
  // Conservative commutation: disjoint qubit sets always commute; two
  // diagonal steps commute regardless of overlap.
  auto diagish = [&](const Step& s) {
    return s.kind == StepKind::kDiagonal || is_diagonal_step(s);
  };

  // Greedy deterministic reorder: scan the remaining plan in order,
  // pulling every local step that commutes with all not-yet-emitted
  // non-members into the current group; emit the group, then the first
  // blocked step as an exchange group; repeat on the rest. O(plan^2) at
  // compile time, and purely a function of the plan — serial and
  // N-thread execution share the identical step order.
  std::vector<std::size_t> remaining(plan_.size());
  for (std::size_t i = 0; i < plan_.size(); ++i) remaining[i] = i;

  while (!remaining.empty()) {
    BlockGroup group;
    group.local = true;
    std::vector<std::size_t> blockers;
    std::uint32_t blocker_mask = 0;
    bool blockers_all_diag = true;
    for (std::size_t idx : remaining) {
      const Step& s = plan_[idx];
      const bool commutes_past =
          blockers.empty() ||
          (step_qubit_mask(s) & blocker_mask) == 0 ||
          (diagish(s) && blockers_all_diag);
      if (local(s) && commutes_past) {
        group.steps.push_back(idx);
      } else {
        blockers.push_back(idx);
        blocker_mask |= step_qubit_mask(s);
        blockers_all_diag = blockers_all_diag && diagish(s);
      }
    }
    if (!group.steps.empty()) groups_.push_back(std::move(group));
    if (!blockers.empty()) {
      BlockGroup exchange;
      exchange.local = false;
      exchange.steps.push_back(blockers.front());
      groups_.push_back(std::move(exchange));
      ++num_exchange_steps_;
      blockers.erase(blockers.begin());
    }
    remaining = std::move(blockers);
  }
}

bool CircuitExecutor::is_diagonal_step(const Step& s) const {
  switch (s.kind) {
    case StepKind::kCZ:
      return true;
    case StepKind::kSingle:
    case StepKind::kControlled:
      for (int f = s.factor_begin; f < s.factor_end; ++f) {
        if (!is_diagonal(factors_[static_cast<std::size_t>(f)].gate)) {
          return false;
        }
      }
      return true;
    default:
      return false;
  }
}

void CircuitExecutor::coalesce_diagonal_runs(std::vector<Step> raw) {
  std::size_t i = 0;
  while (i < raw.size()) {
    std::size_t j = i;
    while (j < raw.size() && is_diagonal_step(raw[j])) ++j;
    if (j - i < 2) {
      // Not a run (j == i: non-diagonal step; j == i+1: lone diagonal
      // step) — too short to be worth a phase-table pass, keep as-is.
      plan_.push_back(raw[i]);
      ++i;
      continue;
    }
    Step d;
    d.kind = StepKind::kDiagonal;
    d.diag_begin = static_cast<int>(diag_components_.size());
    for (std::size_t k = i; k < j; ++k) {
      if (!raw[k].constant) d.constant = false;
      diag_components_.push_back(raw[k]);
    }
    d.diag_end = static_cast<int>(diag_components_.size());
    if (d.constant) {
      kernels::DiagonalRun run;
      bind_diagonal(d, {}, run);
      std::vector<cplx> table;
      kernels::build_diagonal_table(run, num_qubits_, table);
      d.diag_index = static_cast<int>(const_diag_tables_.size());
      const_diag_tables_.push_back(std::move(table));
    } else {
      d.diag_index = static_cast<int>(num_dynamic_diag_++);
    }
    plan_.push_back(d);
    ++num_diag_steps_;
    i = j;
  }
}

const Mat2& CircuitExecutor::factor_matrix(
    int f, const std::vector<Mat2>& slot_factors) const {
  const std::size_t i = static_cast<std::size_t>(f);
  return factors_[i].param.is_slot() ? slot_factors[i] : factors_[i].matrix;
}

Mat2 CircuitExecutor::bind_step(const Step& s,
                                const std::vector<Mat2>& slot_factors) const {
  Mat2 m = kIdentity;
  // Factor i acts after factor i-1, so it multiplies on the left.
  for (int f = s.factor_begin; f < s.factor_end; ++f) {
    m = matmul2(factor_matrix(f, slot_factors), m);
  }
  return m;
}

void CircuitExecutor::bind_diagonal(const Step& s,
                                    const std::vector<Mat2>& slot_factors,
                                    kernels::DiagonalRun& run) const {
  run.clear();
  for (int k = s.diag_begin; k < s.diag_end; ++k) {
    const Step& c = diag_components_[static_cast<std::size_t>(k)];
    const Mat2 m = (c.kind == StepKind::kCZ) ? kIdentity
                   : c.constant              ? c.matrix
                                             : bind_step(c, slot_factors);
    switch (c.kind) {
      case StepKind::kSingle:
        run.push_factor(c.target, m[0], m[3]);
        break;
      case StepKind::kControlled:
        run.push_pair(c.control, c.target, m[0], m[3]);
        break;
      case StepKind::kCZ:
        run.push_pair(c.control, c.target, cplx{1.0, 0.0}, cplx{-1.0, 0.0});
        break;
      default:
        assert(false && "non-diagonal component in a diagonal run");
        break;
    }
  }
}

void CircuitExecutor::bind(const std::vector<double>& params,
                           BoundPlan& bound) const {
  bound.factors.resize(factors_.size());
  for (std::size_t f = 0; f < factors_.size(); ++f) {
    const Factor& factor = factors_[f];
    if (factor.param.is_slot()) {
      bound.factors[f] =
          gate_matrix(factor.gate, resolve(factor.param, params));
    }
  }
  bound.matrices.resize(plan_.size());
  bound.diag_tables.resize(num_dynamic_diag_);
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const Step& s = plan_[i];
    switch (s.kind) {
      case StepKind::kSingle:
      case StepKind::kControlled:
        bound.matrices[i] = s.constant ? s.matrix : bind_step(s, bound.factors);
        break;
      case StepKind::kDiagonal:
        if (!s.constant) {
          bind_diagonal(s, bound.factors, bound.scratch_run);
          kernels::build_diagonal_table(
              bound.scratch_run, num_qubits_,
              bound.diag_tables[static_cast<std::size_t>(s.diag_index)]);
        }
        break;
      default:
        break;
    }
  }
}

void CircuitExecutor::apply_step(const kernels::KernelTable& kt,
                                 std::size_t idx, const BoundPlan& bound,
                                 cplx* amps, std::size_t len,
                                 std::size_t off) const {
  const Step& s = plan_[idx];
  switch (s.kind) {
    case StepKind::kSingle:
      kt.apply_single(amps, len, bound.matrices[idx], s.target);
      break;
    case StepKind::kControlled:
      kt.apply_controlled_single(amps, len, bound.matrices[idx], s.control,
                                 s.target);
      break;
    case StepKind::kCNOT:
      kt.apply_cnot(amps, len, s.control, s.target);
      break;
    case StepKind::kCZ:
      kt.apply_cz(amps, len, s.control, s.target);
      break;
    case StepKind::kSWAP:
      kt.apply_swap(amps, len, s.control, s.target);
      break;
    case StepKind::kDiagonal: {
      const std::size_t di = static_cast<std::size_t>(s.diag_index);
      const std::vector<cplx>& table =
          s.constant ? const_diag_tables_[di] : bound.diag_tables[di];
      kt.apply_diagonal_table(amps, len, table.data() + off);
      break;
    }
  }
}

void CircuitExecutor::execute_blocked(const BoundPlan& bound, cplx* amps,
                                      std::size_t dim) const {
  const std::size_t bsz = std::size_t{1} << block_qubits_;
  const std::int64_t nblocks = static_cast<std::int64_t>(dim >> block_qubits_);
  // Across cache blocks on the caller's budget when this state is big
  // enough to amplitude-parallelise (a member of a batch team at budget 1
  // sweeps its blocks serially).
  [[maybe_unused]] const int team =
      kernels::use_amplitude_parallel(dim) ? thread_budget::current() : 1;
  const kernels::KernelTable& serial = kernels::active();
  for (const BlockGroup& g : groups_) {
    if (g.local) {
#pragma omp parallel for schedule(static) num_threads(team)
      for (std::int64_t b = 0; b < nblocks; ++b) {
        const std::size_t off = static_cast<std::size_t>(b) << block_qubits_;
        // Sweep the resident block once per group: every local step hits
        // this block before it is evicted.
        for (std::size_t idx : g.steps) {
          apply_step(serial, idx, bound, amps + off, bsz, off);
        }
      }
    } else {
      // High-target step: full-array pass through the size-appropriate
      // table (the parallel table's pair-exchange path on large states).
      apply_step(kernels::table_for(dim), g.steps.front(), bound, amps, dim,
                 0);
    }
  }
}

void CircuitExecutor::execute(const BoundPlan& bound,
                              Statevector& state) const {
  assert(state.num_qubits() == num_qubits_);
  cplx* amps = state.amplitudes().data();
  const std::size_t dim = state.dim();
  if (blocked_) {
    execute_blocked(bound, amps, dim);
    return;
  }
  const kernels::KernelTable& kt = kernels::table_for(dim);
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    apply_step(kt, i, bound, amps, dim, 0);
  }
}

void CircuitExecutor::bind_ops(const std::vector<double>& params,
                               std::vector<Mat2>& matrices) const {
  matrices.resize(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const GateOp& op = ops_[i];
    switch (op.kind) {
      case GateKind::kCNOT:
      case GateKind::kCZ:
      case GateKind::kSWAP:
        break;  // specialised kernels, no matrix
      default:
        matrices[i] = gate_matrix(op.kind, resolve(op.param, params));
        break;
    }
  }
}

void CircuitExecutor::run(const std::vector<double>& params,
                          Statevector& state) const {
  assert(static_cast<int>(params.size()) >= num_param_slots_);
  BoundPlan bound;
  bind(params, bound);
  execute(bound, state);
}

Statevector CircuitExecutor::run_from_zero(
    const std::vector<double>& params) const {
  Statevector state(num_qubits_);
  run(params, state);
  return state;
}

void CircuitExecutor::run_batch(
    const std::vector<std::vector<double>>& params_batch,
    std::vector<Statevector>& states) const {
  assert(params_batch.size() == states.size());
  const std::int64_t batch = static_cast<std::int64_t>(states.size());
  thread_budget::parallel_for(
      kernels::loop_split(std::size_t{1} << num_qubits_), batch, [&] {
        // One bind buffer per member, reused across its samples.
        return [&, bound = BoundPlan{}](std::int64_t i) mutable {
          const std::size_t k = static_cast<std::size_t>(i);
          assert(static_cast<int>(params_batch[k].size()) >=
                 num_param_slots_);
          bind(params_batch[k], bound);
          execute(bound, states[k]);
        };
      });
}

void CircuitExecutor::accumulate_step_grads(
    const Step& s, const BoundPlan& bound, const Mat2& m,
    std::vector<double>& grads) const {
  // With B_j = F_j ... F_1 (the step's factors through j) and a rotation's
  // derivative dF_j = G_j F_j, G_j = (-i/2) P_j, the step's derivative
  // moved to the state before it is U^dag dU/dtheta_j = B_j^dag G_j B_j,
  // and dE/dtheta_j = 2 Re sum_ab (B_j^dag G_j B_j)_ab M_ab. A controlled
  // step's derivative lives on the control=|1> block, which is all M sums
  // over. Diagonal-run components reduce to the Z-weighted entries
  // Im(M_00 - M_11): their B_j commute with G_j.
  Mat2 b = kIdentity;
  for (int f = s.factor_begin; f < s.factor_end; ++f) {
    const Factor& factor = factors_[static_cast<std::size_t>(f)];
    b = matmul2(factor_matrix(f, bound.factors), b);
    if (!factor.param.is_slot() || !is_parameterized(factor.gate)) continue;
    const Mat2 g =
        matmul2(dagger(b), matmul2(rotation_generator(factor.gate), b));
    const cplx overlap = g[0] * m[0] + g[1] * m[1] + g[2] * m[2] + g[3] * m[3];
    grads[static_cast<std::size_t>(factor.param.index)] +=
        2.0 * overlap.real();
  }
}

void CircuitExecutor::reverse_walk(BoundPlan& bound, Statevector& psi,
                                   Statevector& lambda,
                                   std::vector<double>& grads) const {
  cplx* p = psi.amplitudes().data();
  cplx* l = lambda.amplitudes().data();
  const std::size_t dim = psi.dim();
  const kernels::KernelTable& kt = kernels::table_for(dim);
  for (std::size_t idx = plan_.size(); idx-- > 0;) {
    const Step& s = plan_[idx];
    switch (s.kind) {
      case StepKind::kSingle: {
        const Mat2 inv = dagger(bound.matrices[idx]);
        kt.apply_single(p, dim, inv, s.target);
        kt.apply_single(l, dim, inv, s.target);
        if (!s.constant) {
          accumulate_step_grads(s, bound, kt.cross(l, p, dim, -1, s.target),
                                grads);
        }
        break;
      }
      case StepKind::kControlled: {
        const Mat2 inv = dagger(bound.matrices[idx]);
        kt.apply_controlled_single(p, dim, inv, s.control, s.target);
        kt.apply_controlled_single(l, dim, inv, s.control, s.target);
        if (!s.constant) {
          accumulate_step_grads(
              s, bound, kt.cross(l, p, dim, s.control, s.target), grads);
        }
        break;
      }
      case StepKind::kDiagonal: {
        const std::size_t di = static_cast<std::size_t>(s.diag_index);
        const std::vector<cplx>& table =
            s.constant ? const_diag_tables_[di] : bound.diag_tables[di];
        bound.dagger_table.resize(table.size());
        for (std::size_t i = 0; i < table.size(); ++i) {
          bound.dagger_table[i] = std::conj(table[i]);
        }
        kt.apply_diagonal_table(p, dim, bound.dagger_table.data());
        kt.apply_diagonal_table(l, dim, bound.dagger_table.data());
        if (s.constant) break;
        for (int k = s.diag_begin; k < s.diag_end; ++k) {
          const Step& c = diag_components_[static_cast<std::size_t>(k)];
          if (c.constant) continue;
          const int control = c.kind == StepKind::kControlled ? c.control : -1;
          accumulate_step_grads(
              c, bound, kt.cross(l, p, dim, control, c.target), grads);
        }
        break;
      }
      default:
        // CNOT, CZ and SWAP are their own inverses.
        apply_step(kt, idx, bound, p, dim, 0);
        apply_step(kt, idx, bound, l, dim, 0);
        break;
    }
  }
}

std::vector<AdjointResult> CircuitExecutor::adjoint_batch(
    const std::vector<std::vector<double>>& params_batch,
    const std::vector<Statevector>& initials,
    const std::vector<std::vector<double>>& diags) const {
  assert(params_batch.size() == initials.size());
  assert(params_batch.size() == diags.size());
  const std::int64_t batch = static_cast<std::int64_t>(params_batch.size());
  std::vector<AdjointResult> results(static_cast<std::size_t>(batch));
  thread_budget::parallel_for(
      kernels::loop_split(std::size_t{1} << num_qubits_), batch, [&] {
        return [&, bound = BoundPlan{}](std::int64_t i) mutable {
          const std::size_t k = static_cast<std::size_t>(i);
          const std::vector<double>& params = params_batch[k];
          const std::vector<double>& diag = diags[k];
          assert(initials[k].num_qubits() == num_qubits_);
          assert(diag.size() == initials[k].dim());

          // Fused forward pass.
          Statevector psi = initials[k];
          bind(params, bound);
          execute(bound, psi);

          // Value and lambda = diag(O) psi.
          AdjointResult& r = results[k];
          Statevector lambda = psi;
          r.value = apply_diag_observable(diag, psi, lambda);

          // Reverse walk over the same plan.
          r.param_grads.assign(static_cast<std::size_t>(num_param_slots_),
                               0.0);
          reverse_walk(bound, psi, lambda, r.param_grads);
          r.initial_lambda = std::move(lambda.amplitudes());
        };
      });
  return results;
}

}  // namespace sqvae::qsim
