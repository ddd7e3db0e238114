// FaultPlan semantics in isolation, the executor's application of
// crash-recovery and corruption faults at activation boundaries (taint
// lifecycle, stale snapshots, revival-aware run loop), and the E20
// containment metrics.
#include "runtime/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/containment.hpp"
#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "core/algo1_six_coloring.hpp"
#include "runtime/executor.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {
namespace {

TEST(FaultPlan, DefaultIsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_recoveries());
  EXPECT_FALSE(plan.has_corruptions());
  EXPECT_FALSE(plan.mutates_registers());
}

TEST(FaultPlan, CrashPlanConvertsImplicitly) {
  CrashPlan crashes(4);
  crashes.crash_at_step(2, 10);
  const FaultPlan plan = crashes;  // the BC conversion every call site uses
  EXPECT_TRUE(plan.crashes_at(2, 10, 0));
  EXPECT_FALSE(plan.crashes_at(2, 9, 0));
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.mutates_registers());  // crash-stop never writes
}

TEST(FaultPlan, RecoverKeepsAtMostOneEntryPerNode) {
  FaultPlan plan(4);
  plan.recover(1, {5, 2, RecoveredRegister::zero});
  plan.recover(1, {7, 1, RecoveredRegister::stale});
  ASSERT_TRUE(plan.recovery(1).has_value());
  EXPECT_EQ(plan.recovery(1)->at_step, 7u);
  EXPECT_EQ(plan.recovery(1)->reg, RecoveredRegister::stale);
  EXPECT_EQ(plan.recovery(1)->revive_step(), 8u);
  EXPECT_FALSE(plan.recovery(0).has_value());
}

TEST(FaultPlan, CorruptionsStepSortedStably) {
  FaultPlan plan(2);
  const CorruptionFault a{5, CorruptionFault::Kind::bit_flip, 0, 1};
  const CorruptionFault b{3, CorruptionFault::Kind::overwrite, 1, 2};
  const CorruptionFault c{5, CorruptionFault::Kind::overwrite, 2, 3};
  plan.corrupt(0, a);
  plan.corrupt(0, b);
  plan.corrupt(0, c);
  // Sorted by at_step; the two step-5 events keep their insertion order,
  // so a plan rebuilt from a serialized artifact applies identically.
  ASSERT_EQ(plan.corruptions(0).size(), 3u);
  EXPECT_EQ(plan.corruptions(0)[0], b);
  EXPECT_EQ(plan.corruptions(0)[1], a);
  EXPECT_EQ(plan.corruptions(0)[2], c);
  EXPECT_TRUE(plan.corruptions(1).empty());
}

TEST(FaultPlan, OutOfRangeAccessorsAreEmptyNotUB) {
  FaultPlan plan(2);
  EXPECT_FALSE(plan.recovery(99).has_value());
  EXPECT_TRUE(plan.corruptions(99).empty());
  plan.recover(7, {1, 1, RecoveredRegister::bottom});  // grows on demand
  EXPECT_TRUE(plan.recovery(7).has_value());
  EXPECT_GE(plan.node_span(), 8u);
}

TEST(FaultPlan, MutatesRegistersTracksContentFaults) {
  FaultPlan bottom_only(3);
  bottom_only.recover(0, {1, 1, RecoveredRegister::bottom});
  EXPECT_FALSE(bottom_only.mutates_registers());  // ⊥ is not content

  FaultPlan zero(3);
  zero.recover(0, {1, 1, RecoveredRegister::zero});
  EXPECT_TRUE(zero.mutates_registers());

  FaultPlan corrupt(3);
  corrupt.corrupt(0, {1, CorruptionFault::Kind::bit_flip, 0, 0});
  EXPECT_TRUE(corrupt.mutates_registers());
}

TEST(FaultPlan, NameParsersRoundTrip) {
  for (auto r : {RecoveredRegister::bottom, RecoveredRegister::zero,
                 RecoveredRegister::stale})
    EXPECT_EQ(parse_recovered_register(recovered_register_name(r)), r);
  EXPECT_FALSE(parse_recovered_register("garbled").has_value());
  for (auto k :
       {CorruptionFault::Kind::bit_flip, CorruptionFault::Kind::overwrite})
    EXPECT_EQ(parse_corruption_kind(corruption_kind_name(k)), k);
  EXPECT_FALSE(parse_corruption_kind("smudge").has_value());
}

// --- Executor application ------------------------------------------------

TEST(FaultExecutor, RecoveryDownWindowAndBottomRevival) {
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  plan.recover(1, {1, 2, RecoveredRegister::bottom});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);  // now=1: the fault fires first, so node 1 never activates
  EXPECT_TRUE(ex.is_down(1));
  EXPECT_EQ(ex.activation_count(1), 0u);
  EXPECT_FALSE(ex.published(1).has_value());
  ex.step({});  // now=2: still down
  EXPECT_TRUE(ex.is_down(1));
  ex.step({});  // now=3 = revive_step: state wiped, register ⊥
  EXPECT_FALSE(ex.is_down(1));
  EXPECT_TRUE(ex.is_working(1));
  EXPECT_EQ(ex.recovery_count(1), 1u);
  EXPECT_FALSE(ex.published(1).has_value());
  EXPECT_FALSE(ex.register_tainted(1));  // ⊥ carries no adversary bits
}

TEST(FaultExecutor, ZeroRevivalInstallsTaintedRegisterUntilRepublish) {
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  plan.recover(1, {2, 1, RecoveredRegister::zero});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);  // now=1: everyone publishes (all colors collide: no returns)
  ex.step({});   // now=2: node 1 goes down
  EXPECT_TRUE(ex.is_down(1));
  ex.step({});  // now=3: revival installs the all-zero register
  ASSERT_TRUE(ex.published(1).has_value());
  EXPECT_EQ(ex.published(1)->x, 0u);
  EXPECT_EQ(ex.published(1)->a, 0u);
  EXPECT_TRUE(ex.register_tainted(1));
  const NodeId one[] = {1};
  ex.step(one);  // now=4: the owner's own publish heals the taint
  EXPECT_FALSE(ex.register_tainted(1));
  ASSERT_TRUE(ex.published(1).has_value());
  EXPECT_EQ(ex.published(1)->x, 20u);
}

TEST(FaultExecutor, StaleRevivalReplaysThePreviousPublish) {
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  plan.recover(1, {3, 1, RecoveredRegister::stale});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);  // now=1: node 1 publishes (20, 0, 0)
  const NodeId pair[] = {1, 2};
  ex.step(pair);  // now=2: node 1 republishes with refreshed colors
  ASSERT_TRUE(ex.published(1).has_value());
  EXPECT_FALSE(ex.has_terminated(1));  // colliding colors: no return yet
  const auto fresh = *ex.published(1);
  EXPECT_NE(fresh, (SixColoring::Register{20, 0, 0}));
  ex.step({});  // now=3: down
  ex.step({});  // now=4: revive with the snapshot one publish back
  ASSERT_TRUE(ex.published(1).has_value());
  EXPECT_EQ(*ex.published(1), (SixColoring::Register{20, 0, 0}));
  EXPECT_TRUE(ex.register_tainted(1));
}

TEST(FaultExecutor, TerminationPreemptsRecovery) {
  const Graph g = make_cycle(3);
  FaultPlan plan(3);
  plan.recover(0, {2, 1, RecoveredRegister::bottom});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  const NodeId only[] = {0};
  ex.step(only);  // now=1: ⊥ neighbours — node 0 returns immediately
  ASSERT_TRUE(ex.has_terminated(0));
  const auto frozen = ex.published(0);
  ex.step({});  // now=2: the recovery fault must not touch a frozen node
  EXPECT_FALSE(ex.is_down(0));
  ex.step({});  // now=3
  EXPECT_EQ(ex.recovery_count(0), 0u);
  EXPECT_EQ(ex.published(0), frozen);
}

TEST(FaultExecutor, CorruptionFlipsAndOwnerHeals) {
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  plan.corrupt(0, {2, CorruptionFault::Kind::bit_flip, 0, 3});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);  // now=1
  ASSERT_TRUE(ex.published(0).has_value());
  EXPECT_EQ(ex.published(0)->x, 10u);
  ex.step({});  // now=2: bit 3 of word 0 (the identifier) flips
  EXPECT_EQ(ex.published(0)->x, 10u ^ 8u);
  EXPECT_TRUE(ex.register_tainted(0));
  const NodeId zero[] = {0};
  ex.step(zero);  // now=3: the owner's publish restores the true register
  EXPECT_EQ(ex.published(0)->x, 10u);
  EXPECT_FALSE(ex.register_tainted(0));
}

TEST(FaultExecutor, OverwriteTakesWordModuloLayout) {
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  // Word 4 on a 3-word register lands on index 1 — the `a` component.
  plan.corrupt(0, {2, CorruptionFault::Kind::overwrite, 4, 77});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);
  ex.step({});
  ASSERT_TRUE(ex.published(0).has_value());
  EXPECT_EQ(ex.published(0)->a, 77u);
  EXPECT_EQ(ex.published(0)->x, 10u);
}

TEST(FaultExecutor, CorruptionSkipsTerminatedAndUnpublished) {
  const Graph g = make_cycle(3);
  FaultPlan plan(3);
  plan.corrupt(0, {2, CorruptionFault::Kind::overwrite, 0, 999});
  plan.corrupt(1, {1, CorruptionFault::Kind::overwrite, 0, 999});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  const NodeId only[] = {0};
  ex.step(only);  // now=1: node 0 terminates; node 1 still ⊥ — both immune
  ASSERT_TRUE(ex.has_terminated(0));
  EXPECT_FALSE(ex.published(1).has_value());
  ex.step({});  // now=2: node 0's frozen register is off-limits
  EXPECT_EQ(ex.published(0)->x, 10u);
  EXPECT_FALSE(ex.register_tainted(0));
  EXPECT_FALSE(ex.register_tainted(1));
}

TEST(FaultExecutor, TaintedRegistersAreInvisibleToIdentifierInvariant) {
  // Two adjacent nodes zero-installed at the same revival share x = 0; the
  // monitor must attribute that to the adversary, not the algorithm.
  const Graph g = make_cycle(4);
  FaultPlan plan(4);
  plan.recover(1, {2, 1, RecoveredRegister::zero});
  plan.recover(2, {2, 1, RecoveredRegister::zero});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30, 40}, plan);
  ex.add_invariant(proper_identifier_invariant<SixColoring>());
  const NodeId all[] = {0, 1, 2, 3};
  ex.step(all);  // now=1
  ex.step({});   // now=2: both down
  ex.step({});   // now=3: both revive with x = 0, tainted — no violation
  EXPECT_TRUE(ex.register_tainted(1));
  EXPECT_TRUE(ex.register_tainted(2));
  EXPECT_FALSE(ex.violation().has_value());
  const NodeId one[] = {1};
  ex.step(one);  // now=4: node 1 heals; node 2 still tainted — still clean
  EXPECT_FALSE(ex.violation().has_value());
}

TEST(FaultExecutor, RunIdlesThroughRevivalAndCompletes) {
  const Graph g = make_cycle(3);
  FaultPlan plan(3);
  plan.recover(2, {1, 5, RecoveredRegister::bottom});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  // Nodes 0/1 quiesce while 2 is down; the run must idle until 2 revives,
  // re-inits, and terminates against the frozen survivors.
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.terminated_count(), 3u);
  EXPECT_EQ(ex.recovery_count(2), 1u);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_EQ(result.fates[v], NodeFate::terminated);
}

TEST(FaultExecutor, DownAtBudgetExhaustionIsReportedAsDownFate) {
  const Graph g = make_cycle(3);
  FaultPlan plan(3);
  plan.recover(2, {1, 100000, RecoveredRegister::bottom});
  Executor<SixColoring> ex(SixColoring{}, g, {10, 20, 30}, plan);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 50);
  EXPECT_FALSE(result.completed);  // the revival clock is still ticking
  EXPECT_EQ(result.fates[2], NodeFate::down);
  EXPECT_EQ(result.fates[0], NodeFate::terminated);
}

TEST(NodeFateNames, AreStable) {
  EXPECT_STREQ(node_fate_name(NodeFate::terminated), "terminated");
  EXPECT_STREQ(node_fate_name(NodeFate::crashed), "crashed");
  EXPECT_STREQ(node_fate_name(NodeFate::down), "down");
  EXPECT_STREQ(node_fate_name(NodeFate::timed_out), "timed-out");
}

// --- Containment metrics (E20) ------------------------------------------

std::vector<std::vector<NodeId>> all_nodes_sigmas(NodeId n,
                                                  std::size_t steps) {
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return std::vector<std::vector<NodeId>>(steps, all);
}

TEST(Containment, EmptyPlanChangesNothing) {
  const Graph g = make_cycle(6);
  const auto report =
      measure_containment(SixColoring{}, g, random_ids(6, 3), FaultPlan{},
                          all_nodes_sigmas(6, 8), linear_step_budget(6));
  EXPECT_TRUE(report.changed.empty());
  EXPECT_TRUE(report.faulted.empty());
  EXPECT_EQ(report.radius, -1);
  EXPECT_EQ(report.extra_activations, 0);
  EXPECT_EQ(report.extra_steps, 0);
  EXPECT_TRUE(report.reference_completed);
  EXPECT_TRUE(report.faulty_completed);
}

TEST(Containment, CrashStopChangesTheCrashedNodeAtRadiusZeroPlus) {
  const Graph g = make_cycle(6);
  FaultPlan plan(6);
  plan.crash_at_step(0, 1);  // node 0 never publishes in the faulty run
  const auto report =
      measure_containment(SixColoring{}, g, random_ids(6, 3), plan,
                          all_nodes_sigmas(6, 8), linear_step_budget(6));
  EXPECT_EQ(report.faulted, (std::vector<NodeId>{0}));
  ASSERT_FALSE(report.changed.empty());
  EXPECT_NE(std::find(report.changed.begin(), report.changed.end(), NodeId{0}),
            report.changed.end());
  EXPECT_GE(report.radius, 0);
  EXPECT_LE(report.radius, 3);  // damage can't exceed the C_6 diameter
  EXPECT_TRUE(report.faulty_completed);
}

TEST(Containment, FaultedNodesCoversAllThreeClasses) {
  FaultPlan plan(5);
  plan.crash_after_activations(0, 2);
  plan.recover(2, {3, 1, RecoveredRegister::stale});
  plan.corrupt(4, {1, CorruptionFault::Kind::bit_flip, 0, 0});
  EXPECT_EQ(faulted_nodes(plan, 5), (std::vector<NodeId>{0, 2, 4}));
}

TEST(Containment, HopDistancesMultiSource) {
  const Graph g = make_cycle(6);
  const auto dist = hop_distances(g, {0, 3});
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 0u);
}

}  // namespace
}  // namespace ftcc
