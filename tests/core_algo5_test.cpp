// SixColoringFast (the library's extension: Algorithm 1 + Cole–Vishkin
// identifier reduction): O(log* n) activations, 6 colors, and — unlike
// Algorithms 2/3 — wait-free under BOTH activation semantics, exhaustively
// verified on small cycles.
#include "core/algo5_fast_six_coloring.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/harness.hpp"
#include "core/algo1_six_coloring.hpp"
#include "graph/chains.hpp"
#include "modelcheck/explorer.hpp"
#include "sched/schedulers.hpp"
#include "util/logstar.hpp"
#include "util/rng.hpp"

namespace ftcc {
namespace {

IdAssignment make_ids(const std::string& kind, NodeId n, std::uint64_t seed) {
  if (kind == "random") return random_ids(n, seed);
  if (kind == "sorted") return sorted_ids(n);
  if (kind == "alternating") return alternating_ids(n);
  if (kind == "zigzag") return zigzag_ids(n, std::max<NodeId>(2, n / 8));
  if (kind == "permutation") return permutation_ids(n, seed, 1000);
  return {};
}

// Calibrated over the deterministic sweep with ample slack (same policy as
// Algorithm 3's budget; see EXPERIMENTS.md E4).
std::uint64_t logstar_budget(NodeId n) {
  return std::uint64_t{24} * static_cast<std::uint64_t>(
                                 log_star(static_cast<double>(n))) +
         60;
}

using Params = std::tuple<NodeId, std::string, std::string>;

class Algo5Sweep : public ::testing::TestWithParam<Params> {};

TEST_P(Algo5Sweep, LogStarRoundsSixColorsProper) {
  const auto& [n, id_kind, sched_name] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_cycle(n);
    const auto ids = make_ids(id_kind, n, seed);
    ASSERT_TRUE(ids_proper(g, ids));
    auto sched = make_scheduler(sched_name, n, seed * 19 + 5);

    Executor<SixColoringFast> ex(SixColoringFast{}, g, ids);
    ex.add_invariant(proper_identifier_invariant<SixColoringFast>());
    ex.add_invariant(output_properness_invariant<SixColoringFast>());
    const auto result = ex.run(*sched, logstar_step_budget(n));

    ASSERT_FALSE(ex.violation().has_value()) << *ex.violation();
    ASSERT_TRUE(result.completed)
        << "n=" << n << " ids=" << id_kind << " sched=" << sched_name;
    EXPECT_LE(result.max_activations(), logstar_budget(n))
        << "n=" << n << " ids=" << id_kind << " sched=" << sched_name;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(result.outputs[v].has_value());
      EXPECT_LE(result.outputs[v]->a + result.outputs[v]->b, 2u);
    }
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<SixColoringFast>(result.outputs)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algo5Sweep,
    ::testing::Combine(
        ::testing::Values<NodeId>(3, 4, 5, 7, 16, 64, 256, 1024),
        ::testing::Values("random", "sorted", "alternating", "zigzag",
                          "permutation"),
        ::testing::Values("sync", "random", "single", "roundrobin",
                          "staggered", "halfspeed")),
    [](const auto& inf) {
      std::string name = "n";
      name.append(std::to_string(std::get<0>(inf.param))).append("_");
      name.append(std::get<1>(inf.param)).append("_");
      name.append(std::get<2>(inf.param));
      return name;
    });

TEST(Algo5, ExhaustivelyWaitFreeUnderBothSemantics) {
  // The distinguishing property over Algorithm 3: no livelock under set
  // semantics — every schedule terminates, on every C_3 id permutation and
  // on mixed/sorted C_4 and C_5.
  const IdAssignment perms3[] = {{10, 20, 30}, {10, 30, 20}, {20, 10, 30},
                                 {20, 30, 10}, {30, 10, 20}, {30, 20, 10},
                                 {12, 25, 18}};
  for (auto mode : {ActivationMode::singletons, ActivationMode::sets}) {
    for (const auto& ids : perms3) {
      ModelCheckOptions<SixColoringFast> options;
      options.mode = mode;
      ModelChecker<SixColoringFast> mc(SixColoringFast{}, make_cycle(3), ids,
                                       options);
      const auto r = mc.run();
      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(r.wait_free);
      EXPECT_TRUE(r.outputs_proper);
      EXPECT_EQ(r.worst_case_rounds(), 3u);
      EXPECT_LE(r.colors_used.size(), 6u);
    }
    for (NodeId n : {4u, 5u}) {
      ModelCheckOptions<SixColoringFast> options;
      options.mode = mode;
      ModelChecker<SixColoringFast> sorted_mc(SixColoringFast{}, make_cycle(n),
                                              sorted_ids(n), options);
      const auto r = sorted_mc.run();
      ASSERT_TRUE(r.completed) << n;
      EXPECT_TRUE(r.wait_free) << n;
      EXPECT_TRUE(r.outputs_proper) << n;
      EXPECT_LE(r.worst_case_rounds(), 3ull * n / 2 + 4) << n;
    }
  }
}

TEST(Algo5, NearConstantRoundsOnHugeSortedCycles) {
  std::uint64_t worst = 0;
  for (NodeId n : {1u << 10, 1u << 14, 1u << 18}) {
    const Graph g = make_cycle(n);
    SynchronousScheduler sched;
    Executor<SixColoringFast> ex(SixColoringFast{}, g, sorted_ids(n));
    const auto result = ex.run(sched, logstar_step_budget(n));
    ASSERT_TRUE(result.completed) << n;
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<SixColoringFast>(result.outputs)));
    worst = std::max(worst, result.max_activations());
  }
  EXPECT_LE(worst, logstar_budget(1u << 18));
}

TEST(Algo5, BeatsPlainAlgorithm1OnSortedIds) {
  const NodeId n = 1024;
  const Graph g = make_cycle(n);
  SynchronousScheduler s1;
  Executor<SixColoringFast> fast(SixColoringFast{}, g, sorted_ids(n));
  const auto fast_result = fast.run(s1, logstar_step_budget(n));
  ASSERT_TRUE(fast_result.completed);
  SynchronousScheduler s2;
  Executor<SixColoring> slow(SixColoring{}, g, sorted_ids(n));
  const auto slow_result = slow.run(s2, linear_step_budget(n));
  ASSERT_TRUE(slow_result.completed);
  EXPECT_GE(slow_result.max_activations(),
            8 * fast_result.max_activations());
}

TEST(Algo5, LockstepPairScenarioTerminates) {
  // The exact configuration that livelocks Algorithm 2 (two frozen color-0
  // neighbours around a min/max pair driven in lockstep) terminates here.
  const Graph g = make_cycle(5);
  const IdAssignment ids = {50, 10, 100, 60, 70};
  Executor<SixColoringFast> ex(SixColoringFast{}, g, ids);
  const NodeId wake0[] = {0};
  const NodeId wake3[] = {3};
  ex.step(wake0);
  ex.step(wake3);
  ASSERT_TRUE(ex.has_terminated(0));
  ASSERT_TRUE(ex.has_terminated(3));
  const NodeId pair[] = {1, 2};
  std::uint64_t steps = 0;
  while ((ex.is_working(1) || ex.is_working(2)) && steps < 100) {
    ex.step(pair);
    ++steps;
  }
  EXPECT_TRUE(ex.has_terminated(1));
  EXPECT_TRUE(ex.has_terminated(2));
  EXPECT_LE(steps, 8u);
}

TEST(Algo5, ProperUnderRandomCrashes) {
  Xoshiro256 rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 24;
    const Graph g = make_cycle(n);
    const auto ids = random_ids(n, 800 + static_cast<std::uint64_t>(trial));
    CrashPlan plan(n);
    for (NodeId v = 0; v < n; ++v)
      if (rng.chance(0.3)) plan.crash_after_activations(v, rng.below(6));
    auto sched = make_scheduler("random", n, static_cast<std::uint64_t>(trial));
    RunOptions options;
    options.max_steps = logstar_step_budget(n);
    const auto outcome = run_simulation(SixColoringFast{}, g, ids, *sched,
                                        plan, options);
    ASSERT_TRUE(outcome.result.completed) << "trial " << trial;
    ASSERT_FALSE(outcome.violation.has_value()) << *outcome.violation;
    EXPECT_TRUE(outcome.proper) << "trial " << trial;
  }
}

TEST(Algo5, IdentifiersOnlyDecreaseAndFreeze) {
  const NodeId n = 64;
  const Graph g = make_cycle(n);
  const auto ids = sorted_ids(n);
  Executor<SixColoringFast> ex(SixColoringFast{}, g, ids);
  std::vector<std::uint64_t> previous(ids);
  std::vector<std::optional<std::uint64_t>> frozen_x(n);
  ex.add_invariant([&](const Executor<SixColoringFast>& e)
                       -> std::optional<std::string> {
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      const auto& s = e.state(v);
      if (s.x > previous[v])
        return "identifier of node " + std::to_string(v) + " increased";
      previous[v] = s.x;
      if (s.r == kFrozenIdRound) {
        if (frozen_x[v] && *frozen_x[v] != s.x)
          return "node " + std::to_string(v) + " changed X after freezing";
        frozen_x[v] = s.x;
      }
    }
    return std::nullopt;
  });
  RandomSubsetScheduler sched(0.6, 3);
  const auto result = ex.run(sched, logstar_step_budget(n));
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(ex.violation().has_value()) << *ex.violation();
}

}  // namespace
}  // namespace ftcc
