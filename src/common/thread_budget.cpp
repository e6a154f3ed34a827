#include "common/thread_budget.h"

#include <algorithm>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sqvae::thread_budget {

namespace {

/// 0 = no budget set on this thread.
thread_local int t_budget = 0;

int read_process_threads() {
#ifdef _OPENMP
  const int n = omp_get_max_threads();
#else
  const int n = static_cast<int>(std::thread::hardware_concurrency());
#endif
  return std::max(1, n);
}

}  // namespace

int process_threads() {
  static const int n = read_process_threads();
  return n;
}

int current() { return t_budget > 0 ? t_budget : process_threads(); }

Scope::Scope(int threads) : saved_(t_budget) {
  t_budget = std::max(1, threads);
}

Scope::~Scope() { t_budget = saved_; }

Split split(int budget, int want) {
  budget = std::max(1, budget);
  Split s;
  s.team = want > 0 ? want : budget;
  s.member = std::max(1, budget / s.team);
  return s;
}

int shard_budget(int process, int shards, int explicit_threads) {
  if (explicit_threads > 0) return explicit_threads;
  return std::max(1, process / std::max(1, shards));
}

}  // namespace sqvae::thread_budget
