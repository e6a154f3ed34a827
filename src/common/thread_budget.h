// Thread budget: the one owner of every parallelism decision.
//
// The process reads its thread count once (process_threads():
// omp_get_max_threads(), which honours the CPU affinity mask and
// OMP_NUM_THREADS). Each thread then carries a *budget*: how many threads
// the work it runs may occupy. The outermost caller sets it — the serve
// pool, the trainer, a bench — and every parallel region below sizes its
// team from the budget of the thread that opens it. A team of k members
// gives each member budget / k, so nested work can never multiply the
// thread count past what the outermost caller granted:
//
//   * serving: a pool of `threads` workers, each at budget 1 (the paper's
//     patch circuits are 5-10 qubits, far below the amplitude-parallel
//     threshold, so they parallelise across requests, not inside a state);
//     N shard processes each get process_threads() / N;
//   * training: a team of TrainConfig::num_threads (default: the whole
//     budget) over the samples of a batch, each member at budget / team,
//     under every simulation backend;
//   * one large statevector: the batch loop runs inline on the caller (a
//     team of 1 opens no region) and hands the whole budget to the
//     amplitude-parallel kernels.
//
// A thread nobody gave a budget (the main thread, or a thread started
// without a Scope) runs at process_threads().
//
// Budgets decide only how many threads run, never how work is
// partitioned: every parallel loop in the library uses a schedule fixed by
// its item count, so results are bit-identical at every budget. A team is
// the whole budget even when it has fewer items than members: libgomp
// ends surplus pool threads when a team shrinks and starts new ones when
// it grows again, so sizing teams by item count (alternating 4 and 2 on a
// 4-vCPU host) costs ~270 us per region against ~3 us for a steady team.
//
// The determinism lint (ci/determinism_lint.py, rule naked-parallelism)
// bans omp_get_max_threads / omp_set_num_threads / omp_in_parallel /
// std::thread::hardware_concurrency outside this module, and any
// `#pragma omp parallel` without a num_threads clause.
#pragma once

#include <cstdint>

namespace sqvae::thread_budget {

/// True when the library is compiled with OpenMP; without it every
/// parallel region runs on the calling thread.
#ifdef _OPENMP
inline constexpr bool kOpenMP = true;
#else
inline constexpr bool kOpenMP = false;
#endif

/// Threads this process may run at once, read once: omp_get_max_threads()
/// (std::thread::hardware_concurrency() without OpenMP), at least 1.
int process_threads();

/// The calling thread's budget: what the innermost Scope set, else
/// process_threads().
int current();

/// Sets the calling thread's budget for its lifetime (values below 1 mean
/// 1) and restores the previous one on destruction.
class Scope {
 public:
  explicit Scope(int threads);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int saved_;
};

/// How a budget divides over a team: `team` threads, each running at a
/// budget of `member`.
struct Split {
  int team = 1;
  int member = 1;
};

/// Splits `budget` over a team of `want` members; want <= 0 asks for one
/// member per budget thread. An explicit `want` above the budget is
/// honoured (its members run at 1). Always team >= 1, member >= 1 and
/// team * member <= max(budget, want).
Split split(int budget, int want);

/// Runs items [0, n) of a loop over `split`'s team. Each member sets its
/// budget to split.member, calls make_body() once for its own loop body —
/// the place for per-member scratch — and runs body(i) over a static share
/// of the items.
///
/// A team of one runs the loop inline on the caller and opens no OpenMP
/// region, so the parallel regions its member opens are top-level teams,
/// which libgomp keeps pooled, instead of nested teams it starts afresh on
/// every call. An `if(team > 1)` clause would not do: an inactive region
/// still counts in omp_get_level().
template <typename MakeBody>
void parallel_for(const Split& split, std::int64_t n, MakeBody make_body) {
#ifdef _OPENMP
  if (split.team > 1) {
#pragma omp parallel num_threads(split.team)
    {
      const Scope member(split.member);
      auto body = make_body();
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < n; ++i) body(i);
    }
    return;
  }
#endif
  const Scope member(split.member);
  auto body = make_body();
  for (std::int64_t i = 0; i < n; ++i) body(i);
}

/// Budget of one of `shards` processes sharing `process` threads:
/// `explicit_threads` when > 0, else process / shards (at least 1).
int shard_budget(int process, int shards, int explicit_threads);

}  // namespace sqvae::thread_budget
