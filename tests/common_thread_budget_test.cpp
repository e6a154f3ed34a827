// Thread budget (common/thread_budget.h): how a process's threads divide
// over shard processes, serve workers, training teams and the members
// those teams run at, and how a budget scope nests and restores.
#include "common/thread_budget.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "models/scalable_quantum.h"
#include "models/trainer.h"

namespace sqvae::thread_budget {
namespace {

/// `process` threads shared by `shards` processes, each with an explicit
/// `threads` budget (0 = its share) whose pool asks for a team of `want`
/// (0 = one member per thread, as the serve pool does), map to `workers`
/// threads per shard, each opening teams of `team`.
struct Row {
  const char* what;
  int process;
  int shards;
  int threads;
  int want;
  int workers;
  int team;
};

constexpr Row kRows[] = {
    // Serving: one worker per thread of the shard's budget, each at 1.
    {"serve, 4 cpus", 4, 1, 0, 0, 4, 1},
    {"serve, taskset -c 0,1", 2, 1, 0, 0, 2, 1},
    {"serve, 1 cpu", 1, 1, 0, 0, 1, 1},
    {"serve, --workers=2", 4, 2, 0, 0, 2, 1},
    {"serve, --workers=4", 4, 4, 0, 0, 1, 1},
    {"serve, more shards than cpus", 4, 8, 0, 0, 1, 1},
    {"serve, uneven shards", 6, 4, 0, 0, 1, 1},
    {"serve, --threads=2", 4, 1, 2, 0, 2, 1},
    {"serve, --threads=2 --workers=2", 4, 2, 2, 0, 2, 1},
    // Training: the sample team over the budget, members at budget / team.
    {"train, default team", 4, 1, 0, 0, 4, 1},
    {"train, num_threads=2", 4, 1, 0, 2, 2, 2},
    {"train, num_threads=3 on 16", 16, 1, 0, 3, 3, 5},
    // A team of one: its member keeps the whole budget for the amplitude
    // kernels or the trajectory loop.
    {"train, num_threads=1", 4, 1, 0, 1, 1, 4},
};

TEST(ThreadBudget, SplitTable) {
  for (const Row& r : kRows) {
    const Split s =
        split(shard_budget(r.process, r.shards, r.threads), r.want);
    EXPECT_EQ(s.team, r.workers) << r.what;
    EXPECT_EQ(s.member, r.team) << r.what;
    // Never more threads than the rows grant (the process, or the explicit
    // per-shard budgets), except one per shard at the least.
    const int granted = r.threads > 0 ? r.threads * r.shards : r.process;
    EXPECT_LE(s.team * s.member * r.shards, std::max(granted, r.shards))
        << r.what;
  }
}

TEST(ThreadBudget, ExplicitTeamAboveBudgetIsHonoured) {
  const Split s = split(/*budget=*/1, /*want=*/4);
  EXPECT_EQ(s.team, 4);
  EXPECT_EQ(s.member, 1);
}

TEST(ThreadBudget, ScopesNestAndRestore) {
  EXPECT_GE(process_threads(), 1);
  EXPECT_EQ(current(), process_threads());
  {
    const Scope outer(6);
    EXPECT_EQ(current(), 6);
    const Split loop = split(current(), 2);
    EXPECT_EQ(loop.team, 2);
    EXPECT_EQ(loop.member, 3);
    {
      const Scope inner(0);
      EXPECT_EQ(current(), 1);
    }
    EXPECT_EQ(current(), 6);
  }
  EXPECT_EQ(current(), process_threads());
}

TEST(ThreadBudget, TrainerTeamTakesTheCallersBudget) {
  // Exact and stochastic measurement alike: noisy models shard too.
  for (const auto backend : {qsim::BackendKind::kStatevector,
                             qsim::BackendKind::kTrajectory}) {
    Rng rng(5);
    models::ScalableQuantumConfig c;
    c.input_dim = 16;
    c.patches = 2;
    c.entangling_layers = 1;
    c.sim.backend = backend;
    const auto model = models::make_sq_ae(c, rng);
    models::TrainConfig config;
    const Scope budget(3);
    EXPECT_EQ(models::Trainer::resolve_threads(*model, config),
              kOpenMP ? 3 : 1);
    config.num_threads = 2;
    EXPECT_EQ(models::Trainer::resolve_threads(*model, config),
              kOpenMP ? 2 : 1);
  }
}

}  // namespace
}  // namespace sqvae::thread_budget
