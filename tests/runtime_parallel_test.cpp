// The deterministic-parallelism building blocks (DESIGN.md §10): the
// fork/join WorkerPool with seed-sharded dispatch and stealing, and the
// cross-worker progress tally.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/worker_pool.hpp"

namespace ftcc {
namespace {

TEST(WorkerPool, Jobs1RunsInlineInAscendingOrder) {
  WorkerPool pool(1);
  // No synchronisation on purpose: jobs == 1 must run every task on the
  // calling thread, so a plain vector is safe iff the contract holds.
  std::vector<std::size_t> order;
  std::vector<unsigned> workers;
  pool.run(10, [&](std::size_t index, unsigned worker) {
    order.push_back(index);
    workers.push_back(worker);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  for (unsigned w : workers) EXPECT_EQ(w, 0u);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnceUnderAnyJobs) {
  for (unsigned jobs : {2u, 3u, 8u}) {
    constexpr std::size_t kCount = 257;  // not a multiple of any jobs value
    WorkerPool pool(jobs);
    std::vector<std::atomic<int>> hits(kCount);
    pool.run(kCount, [&](std::size_t index, unsigned worker) {
      EXPECT_LT(worker, jobs);
      hits[index].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
  }
}

TEST(WorkerPool, ZeroCountAndZeroJobsAreSafe) {
  WorkerPool none(4);
  bool ran = false;
  none.run(0, [&](std::size_t, unsigned) { ran = true; });
  EXPECT_FALSE(ran);
  // jobs == 0 clamps to 1 (hardware_concurrency may report 0 = unknown).
  WorkerPool clamped(0);
  EXPECT_EQ(clamped.jobs(), 1u);
  EXPECT_GE(hardware_workers(), 1u);
}

TEST(WorkerPool, MetricsCountEveryTask) {
  obs::Registry registry;
  obs::PoolMetrics metrics = obs::PoolMetrics::create(registry, "pool");
  WorkerPool pool(4);
  pool.attach_metrics(&metrics);
  std::atomic<std::uint64_t> sum{0};
  pool.run(100, [&](std::size_t index, unsigned) {
    sum.fetch_add(index, std::memory_order_relaxed);
  });
  EXPECT_EQ(metrics.tasks->value(), 100u);
  EXPECT_EQ(sum.load(), 100u * 99u / 2);
}

TEST(TrialTally, FiresOnCadenceAndOnTheLastTrial) {
  std::vector<TallyProgress> snaps;
  TrialTally tally(25, 10, [&](const TallyProgress& p) {
    snaps.push_back(p);
  });
  for (int i = 0; i < 12; ++i) tally.record(TrialTally::Outcome::ok);
  for (int i = 0; i < 8; ++i) tally.record(TrialTally::Outcome::censored);
  for (int i = 0; i < 5; ++i) tally.record(TrialTally::Outcome::failed);
  ASSERT_EQ(snaps.size(), 3u);  // done = 10, 20, 25
  EXPECT_EQ(snaps[0].done, 10u);
  EXPECT_EQ(snaps[0].ok, 10u);
  EXPECT_EQ(snaps[1].done, 20u);
  EXPECT_EQ(snaps[1].ok, 12u);
  EXPECT_EQ(snaps[1].censored, 8u);
  EXPECT_EQ(snaps[2].done, 25u);
  EXPECT_EQ(snaps[2].total, 25u);
  EXPECT_EQ(snaps[2].failures, 5u);
}

TEST(TrialTally, ProgressIsMonotoneAcrossWorkers) {
  // Hammer one tally from a pool; every reported `done` must strictly
  // increase (the monotone filter) and the final snapshot must be exact.
  std::vector<std::uint64_t> dones;
  TrialTally tally(400, 25, [&](const TallyProgress& p) {
    dones.push_back(p.done);  // called under the tally's report mutex
  });
  WorkerPool pool(8);
  pool.run(400, [&](std::size_t, unsigned) {
    tally.record(TrialTally::Outcome::ok);
  });
  ASSERT_FALSE(dones.empty());
  for (std::size_t i = 1; i < dones.size(); ++i)
    EXPECT_GT(dones[i], dones[i - 1]);
  EXPECT_EQ(dones.back(), 400u);
}

}  // namespace
}  // namespace ftcc
