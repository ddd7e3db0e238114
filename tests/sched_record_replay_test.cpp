// Record and replay: RecordingScheduler keeps the σ sequence a run took,
// one set per executor step, and ReplayScheduler plays it back.  The
// executor is deterministic given the schedule, so a replay of a recording
// reproduces the run field for field — with faults, and across the idle
// steps of a crash-recovery down window.
#include <gtest/gtest.h>

#include "core/algo1_six_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_plan.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {
namespace {

template <typename Output>
void expect_same_run(const ExecutionResult<Output>& first,
                     const ExecutionResult<Output>& second) {
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.activations, second.activations);
  EXPECT_EQ(first.outputs, second.outputs);
  EXPECT_EQ(first.crashed, second.crashed);
  EXPECT_EQ(first.fates, second.fates);
}

TEST(Recording, ScheduleRoundTripIsDeterministic) {
  // Record a stochastic run, replay the recording: the outcomes match
  // field for field.
  const NodeId n = 16;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 5);

  Executor<FiveColoringFast> original(FiveColoringFast{}, g, ids);
  RandomSubsetScheduler sched(0.4, 99);
  RecordingScheduler recorder(sched);
  const auto first = original.run(recorder, 100000);
  ASSERT_TRUE(first.completed);

  Executor<FiveColoringFast> replayed(FiveColoringFast{}, g, ids);
  ReplayScheduler replay(recorder.take(first.steps));
  const auto second = replayed.run(replay, 100000);
  expect_same_run(first, second);
}

TEST(Recording, FaultyRunRoundTrips) {
  // A run under recovery and corruption faults, replayed under the same
  // plan, reproduces the run, the revival included.
  const NodeId n = 8;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 7);
  FaultPlan plan(n);
  plan.recover(2, {4, 2, RecoveredRegister::zero});
  plan.corrupt(5, {3, CorruptionFault::Kind::bit_flip, 0, 1});
  plan.corrupt(5, {6, CorruptionFault::Kind::overwrite, 0, 999});

  Executor<SixColoring> original(SixColoring{}, g, ids, plan);
  RandomSubsetScheduler sched(0.6, 17);
  RecordingScheduler recorder(sched);
  const auto first = original.run(recorder, 100000);
  ASSERT_TRUE(first.completed);
  EXPECT_EQ(original.recovery_count(2), 1u);

  Executor<SixColoring> replayed(SixColoring{}, g, ids, plan);
  ReplayScheduler replay(recorder.take(first.steps));
  const auto second = replayed.run(replay, 100000);
  expect_same_run(first, second);
  EXPECT_EQ(replayed.recovery_count(2), 1u);
}

TEST(Recording, IdleStepsOfADownWindowReplayInTheRecordedLength) {
  // Nodes 1 and 2 crash at step 1 and node 0 goes down for steps 1-5, so
  // the executor idles through steps 2-6 without asking the scheduler;
  // node 0 revives and decides at step 7.  The recording must hold all
  // seven steps: a replay of exactly the recorded length (what a fuzz
  // witness replay runs) then reproduces the decision.
  const Graph g = make_cycle(3);
  const IdAssignment ids = {10, 20, 30};
  FaultPlan plan(3);
  plan.crash_at_step(1, 1);
  plan.crash_at_step(2, 1);
  plan.recover(0, {1, 5, RecoveredRegister::bottom});

  Executor<SixColoring> original(SixColoring{}, g, ids, plan);
  SynchronousScheduler sched;
  RecordingScheduler recorder(sched);
  const auto first = original.run(recorder, 1000);
  ASSERT_TRUE(first.completed);
  ASSERT_EQ(first.steps, 7u);
  ASSERT_TRUE(first.outputs[0].has_value());

  const auto sigmas = recorder.take(first.steps);
  ASSERT_EQ(sigmas.size(), 7u);
  for (std::size_t t = 1; t < 6; ++t)
    EXPECT_TRUE(sigmas[t].empty()) << "step " << t + 1;
  EXPECT_EQ(sigmas[6], std::vector<NodeId>{0});

  Executor<SixColoring> replayed(SixColoring{}, g, ids, plan);
  ReplayScheduler replay(sigmas);
  const auto second = replayed.run(replay, sigmas.size());
  expect_same_run(first, second);
}

}  // namespace
}  // namespace ftcc
