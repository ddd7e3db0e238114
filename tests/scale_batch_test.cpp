// Unit tests for the SoA batch executor (src/scale/batch_executor.hpp):
// the ColorBitset mex kernel, sweep/frontier mechanics, crash-stop
// semantics (the ordering subtleties Executor::step pins), reset reuse,
// and the batched metrics flush.  The field-for-field contract against
// the sequential executor lives in tests/scale_differential_test.cpp;
// here the batch path is checked on its own terms.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/fault_plan.hpp"
#include "scale/batch_executor.hpp"

namespace ftcc {
namespace {

TEST(ColorBitset, MexWalksBothWords) {
  ColorBitset s;
  s.clear();
  EXPECT_EQ(s.mex(), 0u);
  s.set_if(0, 1);
  s.set_if(1, 1);
  EXPECT_EQ(s.mex(), 2u);
  s.set_if(2, 0);  // masked out: cond = 0 must be a no-op
  EXPECT_EQ(s.mex(), 2u);
  // Fill the low word entirely: mex crosses into the high word.
  for (std::uint64_t c = 0; c < 64; ++c) s.set_if(c, 1);
  EXPECT_EQ(s.mex(), 64u);
  s.set_if(64, 1);
  s.set_if(65, 1);
  EXPECT_EQ(s.mex(), 66u);
  s.clear();
  EXPECT_EQ(s.mex(), 0u);
}

TEST(BatchExecutor, ColorsTheCycleProperly) {
  const NodeId n = 257;
  const Graph g = make_cycle(n);
  const IdAssignment ids = permutation_ids(n, 3);
  BatchExecutor<DeltaSquaredColoring> ex(g, ids);
  EXPECT_EQ(ex.frontier_size(), static_cast<std::size_t>(n));
  const auto result = ex.run(1u << 12);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.fate_count(NodeFate::terminated), n);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_TRUE(result.outputs[v].has_value());
    for (const NodeId u : g.neighbors(v))
      EXPECT_NE(*result.outputs[v], *result.outputs[u]);
  }
  EXPECT_TRUE(ex.frontier_empty());
}

TEST(BatchExecutor, FirstSweepActivatesEveryNode) {
  const NodeId n = 100;  // not a multiple of 64: exercises the tail mask
  const Graph g = make_cycle(n);
  BatchExecutor<SixColoringFast> ex(g, permutation_ids(n, 1));
  EXPECT_EQ(ex.sweep(), static_cast<std::size_t>(n));
  EXPECT_EQ(ex.now(), 1u);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(ex.activation_count(v), 1u);
}

TEST(BatchExecutor, SortedIdsConflictEverywhereOnTheFirstSweep) {
  // All nodes start at (a, b) = (0, 0): every neighbour pair conflicts, so
  // a budget of one sweep times out with nobody terminated.
  const NodeId n = 64;
  const Graph g = make_cycle(n);
  BatchExecutor<DeltaSquaredColoring> ex(g, sorted_ids(n));
  const auto result = ex.run(1);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.steps, 1u);
  EXPECT_EQ(result.fate_count(NodeFate::timed_out), n);
  EXPECT_EQ(result.total_activations(), static_cast<std::uint64_t>(n));
}

TEST(BatchExecutor, CrashAtStepOnePreemptsTheFirstActivation) {
  // The crash phase runs at the top of the sweep (Executor::step order):
  // a node crashed at t = 1 never activates at all.
  const NodeId n = 16;
  const Graph g = make_cycle(n);
  CrashPlan plan(n);
  plan.crash_at_step(0, 1);
  BatchExecutor<DeltaSquaredColoring> ex(g, permutation_ids(n, 9), plan);
  const auto result = ex.run(1u << 12);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.crashed[0]);
  EXPECT_EQ(result.fates[0], NodeFate::crashed);
  EXPECT_EQ(result.activations[0], 0u);
  EXPECT_FALSE(result.outputs[0].has_value());
  // The rest of the cycle still finishes around the hole.
  EXPECT_EQ(result.fate_count(NodeFate::terminated), n - 1);
}

TEST(BatchExecutor, CrashAfterActivationsCountsExactly) {
  const NodeId n = 32;
  const Graph g = make_cycle(n);
  CrashPlan plan(n);
  plan.crash_after_activations(3, 1);
  BatchExecutor<DeltaSquaredColoring> ex(g, sorted_ids(n), plan);
  const auto result = ex.run(1u << 12);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.fates[3], NodeFate::crashed);
  EXPECT_EQ(result.activations[3], 1u);
}

TEST(BatchExecutor, ResetReproducesAFreshRunAndKeepsCapacity) {
  const NodeId n = 128;
  const Graph g = make_cycle(n);
  const IdAssignment ids = permutation_ids(n, 5);
  BatchExecutor<DeltaSquaredColoring> fresh(g, ids);
  const auto expected = fresh.run(1u << 12);

  BatchExecutor<DeltaSquaredColoring> reused(g, ids);
  (void)reused.run(1u << 12);
  const std::size_t bytes = reused.heap_bytes();
  // A smaller trial in between must not shrink the arena...
  const Graph small = make_cycle(8);
  reused.reset(small, permutation_ids(8, 1));
  (void)reused.run(1u << 12);
  EXPECT_EQ(reused.heap_bytes(), bytes);
  // ...and re-arming on the original inputs reproduces the fresh outputs.
  reused.reset(g, ids);
  const auto again = reused.run(1u << 12);
  EXPECT_EQ(reused.heap_bytes(), bytes);
  ASSERT_TRUE(again.completed);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_TRUE(expected.outputs[v].has_value());
    ASSERT_TRUE(again.outputs[v].has_value());
    EXPECT_EQ(*expected.outputs[v], *again.outputs[v]);
  }
}

TEST(BatchExecutor, MetricsFlushMatchesTheResult) {
  const NodeId n = 96;
  const Graph g = make_cycle(n);
  CrashPlan plan(n);
  plan.crash_at_step(7, 1);  // crashes before ever activating
  obs::Registry registry;
  const obs::BatchMetrics metrics = obs::BatchMetrics::create(registry);
  BatchExecutor<DeltaSquaredColoring> ex(g, permutation_ids(n, 11), plan);
  ex.attach_metrics(&metrics);
  const auto result = ex.run(1u << 12);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(metrics.activations->value(), result.total_activations());
  EXPECT_EQ(metrics.sweeps->value(), result.steps);
  EXPECT_EQ(
      metrics.terminations->value(),
      static_cast<std::uint64_t>(result.fate_count(NodeFate::terminated)));
  EXPECT_EQ(metrics.crashes->value(), 1u);
  // One frontier observation per sweep; their sum is total activations.
  EXPECT_EQ(metrics.frontier_size->count(), result.steps);
  EXPECT_EQ(metrics.frontier_size->sum(), result.total_activations());
}

TEST(BatchExecutor, DetachedRunTouchesNoCells) {
  obs::Registry registry;
  const obs::BatchMetrics metrics = obs::BatchMetrics::create(registry);
  const Graph g = make_cycle(32);
  BatchExecutor<DeltaSquaredColoring> ex(g, permutation_ids(32, 2));
  (void)ex.run(1u << 12);  // never attached
  EXPECT_EQ(metrics.activations->value(), 0u);
  EXPECT_EQ(metrics.sweeps->value(), 0u);
  EXPECT_EQ(metrics.frontier_size->count(), 0u);
}

TEST(BatchExecutor, ResetDetachesMetrics) {
  obs::Registry registry;
  const obs::BatchMetrics metrics = obs::BatchMetrics::create(registry);
  const Graph g = make_cycle(32);
  const IdAssignment ids = permutation_ids(32, 2);
  BatchExecutor<DeltaSquaredColoring> ex(g, ids);
  ex.attach_metrics(&metrics);
  ex.reset(g, ids);  // like Executor::reset: a fresh build, nothing attached
  (void)ex.run(1u << 12);
  EXPECT_EQ(metrics.activations->value(), 0u);
}

}  // namespace
}  // namespace ftcc
