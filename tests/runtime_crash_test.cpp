// CrashPlan semantics in isolation, plus crash/termination interplay in
// the executor.
#include "runtime/fault_plan.hpp"

#include <gtest/gtest.h>

#include "core/algo1_six_coloring.hpp"
#include "runtime/executor.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {
namespace {

TEST(CrashPlan, EmptyPlanNeverCrashes) {
  CrashPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.crashes_at(0, 100, 100));
  EXPECT_FALSE(plan.crashes_at(99, 1, 0));
}

TEST(CrashPlan, CrashAtStepBoundary) {
  CrashPlan plan(4);
  plan.crash_at_step(2, 10);
  EXPECT_FALSE(plan.crashes_at(2, 9, 0));
  EXPECT_TRUE(plan.crashes_at(2, 10, 0));
  EXPECT_TRUE(plan.crashes_at(2, 11, 0));
  EXPECT_FALSE(plan.crashes_at(1, 11, 0));  // other nodes unaffected
}

TEST(CrashPlan, CrashAfterActivationsBoundary) {
  CrashPlan plan(4);
  plan.crash_after_activations(1, 3);
  EXPECT_FALSE(plan.crashes_at(1, 100, 2));
  EXPECT_TRUE(plan.crashes_at(1, 100, 3));
  EXPECT_TRUE(plan.crashes_at(1, 100, 4));
}

TEST(CrashPlan, GrowsOnDemand) {
  CrashPlan plan;  // default-constructed, no capacity
  plan.crash_at_step(7, 5);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.crashes_at(7, 5, 0));
  EXPECT_FALSE(plan.crashes_at(6, 5, 0));
  EXPECT_FALSE(plan.crashes_at(8, 5, 0));  // beyond capacity: no crash
}

TEST(CrashPlan, BothTriggersCombine) {
  CrashPlan plan(4);
  plan.crash_at_step(0, 50);
  plan.crash_after_activations(0, 2);
  EXPECT_TRUE(plan.crashes_at(0, 10, 2));  // activation trigger first
  EXPECT_TRUE(plan.crashes_at(0, 50, 0));  // step trigger alone
  EXPECT_FALSE(plan.crashes_at(0, 49, 1));
}

TEST(CrashExecutor, CrashAtStepZeroActivationsMeansNeverWoke) {
  const Graph g = make_cycle(4);
  CrashPlan plan(4);
  plan.crash_after_activations(2, 0);
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.crashed[2]);
  EXPECT_EQ(result.activations[2], 0u);
  EXPECT_FALSE(ex.published(2).has_value());  // register stayed ⊥ forever
}

TEST(CrashExecutor, NodeCanTerminateAtItsCrashActivation) {
  // A node whose final permitted activation also satisfies its return
  // condition both terminates and is marked crashed; the output counts.
  const Graph g = make_cycle(3);
  CrashPlan plan(3);
  plan.crash_after_activations(0, 1);
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  const NodeId only[] = {0};
  ex.step(only);  // neighbours ⊥: returns (0,0) at its first activation
  EXPECT_TRUE(ex.has_terminated(0));
  EXPECT_TRUE(ex.has_crashed(0));
  EXPECT_TRUE(ex.output(0).has_value());
}

TEST(CrashPlan, MixedTriggersOnOneNodeFireWhicheverComesFirst) {
  // Both triggers on the same node: the activation trigger can fire long
  // before the step trigger, and adding the later trigger must not delay
  // the earlier one.
  CrashPlan plan(4);
  plan.crash_after_activations(2, 1);
  plan.crash_at_step(2, 1000);
  EXPECT_TRUE(plan.crashes_at(2, 5, 1));    // activations won the race
  EXPECT_FALSE(plan.crashes_at(2, 5, 0));   // neither trigger reached
  EXPECT_TRUE(plan.crashes_at(2, 1000, 0));  // step trigger alone
}

TEST(CrashExecutor, MixedTriggersStopTheNodeAtItsFirstActivation) {
  const Graph g = make_cycle(4);
  CrashPlan plan(4);
  plan.crash_after_activations(2, 1);
  plan.crash_at_step(2, 1000);  // never reached: the run ends first
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.crashed[2]);
  EXPECT_EQ(result.activations[2], 1u);
  EXPECT_TRUE(ex.published(2).has_value());  // it did write once
  EXPECT_EQ(result.fates[2], NodeFate::crashed);
}

TEST(CrashExecutor, KZeroNodeIsDistinguishableFromASleeper) {
  // crash_after_activations(v, 0) means the node never wakes: register ⊥
  // forever and zero activations, but — unlike a merely unscheduled node —
  // it is reported crashed and the run completes without it.
  const Graph g = make_cycle(5);
  CrashPlan plan(5);
  plan.crash_after_activations(0, 0);
  plan.crash_after_activations(3, 0);
  Executor<SixColoring> ex(SixColoring{}, g, {9, 5, 21, 34, 2}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(result.completed);
  for (NodeId v : {NodeId{0}, NodeId{3}}) {
    EXPECT_EQ(result.activations[v], 0u);
    EXPECT_FALSE(ex.published(v).has_value());
    EXPECT_EQ(result.fates[v], NodeFate::crashed);
  }
  EXPECT_EQ(result.terminated_count(), 3u);
}

TEST(CrashExecutor, PlanGrownPastTheNodeCountIsHarmless) {
  // A plan sized for (or grown to) more nodes than the graph has must not
  // disturb the executor: out-of-graph entries are simply never consulted.
  const Graph g = make_cycle(3);
  CrashPlan plan(3);
  plan.crash_at_step(9, 1);  // grows the plan to 10 entries; node 9 ∉ C_3
  plan.crash_after_activations(7, 0);
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.terminated_count(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_FALSE(result.crashed[v]);
}

TEST(CrashExecutor, AllNodesCrashedCompletesImmediately) {
  const Graph g = make_cycle(3);
  CrashPlan plan(3);
  for (NodeId v = 0; v < 3; ++v) plan.crash_after_activations(v, 0);
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.terminated_count(), 0u);
  EXPECT_LE(result.steps, 2u);
}

}  // namespace
}  // namespace ftcc
