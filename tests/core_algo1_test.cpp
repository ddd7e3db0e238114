// Algorithm 1 (wait-free 6-coloring): empirical verification of
// Theorem 3.1 (termination bound, palette, correctness) and Lemma 3.9
// (per-node bound via monotone distances), across identifier shapes,
// schedulers, and crash patterns.
#include "core/algo1_six_coloring.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "analysis/harness.hpp"
#include "graph/chains.hpp"
#include "sched/schedulers.hpp"
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

std::uint64_t theorem31_bound(NodeId n) { return 3ull * n / 2 + 4; }

bool in_six_palette(const PairColor& c) { return c.a + c.b <= 2; }

using Params = std::tuple<NodeId, std::string, std::string>;

class Algo1Sweep : public ::testing::TestWithParam<Params> {};

TEST_P(Algo1Sweep, Theorem31HoldsAcrossSeeds) {
  const auto& [n, id_kind, sched_name] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_cycle(n);
    const auto ids = make_ids(id_kind, n, seed);
    ASSERT_TRUE(ids_proper(g, ids));
    auto sched = make_scheduler(sched_name, n, seed * 31 + 7);
    RunOptions options;
    options.max_steps = linear_step_budget(n);
    const auto outcome =
        run_simulation(SixColoring{}, g, ids, *sched, {}, options);

    // Termination: every node returns within floor(3n/2)+4 activations.
    ASSERT_TRUE(outcome.result.completed)
        << "n=" << n << " ids=" << id_kind << " sched=" << sched_name;
    ASSERT_FALSE(outcome.violation.has_value()) << *outcome.violation;
    EXPECT_EQ(outcome.result.terminated_count(), n);
    EXPECT_LE(outcome.result.max_activations(), theorem31_bound(n));

    // Palette: every output satisfies a + b <= 2.
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(outcome.result.outputs[v].has_value());
      EXPECT_TRUE(in_six_palette(*outcome.result.outputs[v]))
          << "node " << v << " output "
          << outcome.result.outputs[v]->to_string();
    }

    // Correctness: proper coloring of the terminated subgraph (total here).
    EXPECT_TRUE(outcome.proper);

    // Lemma 3.9: per-node activations <= min{3l, 3l', l+l'} + 4.
    const auto md = monotone_distances_on_cycle(ids);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t l = md.dist_to_max[v];
      const std::uint64_t lp = md.dist_to_min[v];
      const std::uint64_t bound = std::min({3 * l, 3 * lp, l + lp}) + 4;
      EXPECT_LE(outcome.result.activations[v], bound)
          << "node " << v << " l=" << l << " l'=" << lp << " n=" << n
          << " ids=" << id_kind << " sched=" << sched_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algo1Sweep,
    ::testing::Combine(
        ::testing::Values<NodeId>(3, 4, 5, 7, 16, 33, 64),
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

TEST(Algo1, IsolatedNodeReturnsImmediately) {
  // Wait-freedom in its purest form: a node whose neighbours never wake
  // returns at its first activation with (0, 0).
  const Graph g = make_cycle(5);
  Executor<SixColoring> ex(SixColoring{}, g, sorted_ids(5));
  const NodeId only[] = {2};
  ex.step(only);
  ASSERT_TRUE(ex.has_terminated(2));
  EXPECT_EQ(*ex.output(2), (PairColor{0, 0}));
}

TEST(Algo1, LocalExtremaTerminateWithinFourActivations) {
  // From the proof of Theorem 3.1: local maxima hold a = 0, local minima
  // hold b = 0, and both return within 4 activations in every execution.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const NodeId n = 24;
    const Graph g = make_cycle(n);
    const auto ids = random_ids(n, 900 + seed);
    auto sched = make_scheduler("random", n, seed);
    RunOptions options;
    options.max_steps = linear_step_budget(n);
    const auto outcome =
        run_simulation(SixColoring{}, g, ids, *sched, {}, options);
    ASSERT_TRUE(outcome.result.completed);
    for (NodeId v = 0; v < n; ++v) {
      if (is_local_max_on_cycle(ids, v) || is_local_min_on_cycle(ids, v)) {
        EXPECT_LE(outcome.result.activations[v], 4u) << "node " << v;
      }
    }
  }
}

TEST(Algo1, ProperUnderRandomCrashes) {
  // Correctness is on the subgraph of terminated nodes, whatever crashes.
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 16;
    const Graph g = make_cycle(n);
    const auto ids = random_ids(n, 100 + static_cast<std::uint64_t>(trial));
    CrashPlan plan(n);
    for (NodeId v = 0; v < n; ++v)
      if (rng.chance(0.3))
        plan.crash_after_activations(v, rng.below(6));
    auto sched = make_scheduler("random", n, static_cast<std::uint64_t>(trial));
    RunOptions options;
    options.max_steps = linear_step_budget(n);
    const auto outcome =
        run_simulation(SixColoring{}, g, ids, *sched, plan, options);
    ASSERT_TRUE(outcome.result.completed);
    EXPECT_TRUE(outcome.proper) << "trial " << trial;
    ASSERT_FALSE(outcome.violation.has_value()) << *outcome.violation;
    // Survivors still respect the activation bound.
    for (NodeId v = 0; v < n; ++v) {
      if (outcome.result.outputs[v]) {
        EXPECT_LE(outcome.result.activations[v], theorem31_bound(n));
      }
    }
  }
}

TEST(Algo1, ProperNonUniqueIdsSupported) {
  // Remark 3.10: the theorem only needs the identifiers to form a proper
  // coloring; with k initial colors, chains are short and so is the run.
  const NodeId n = 30;
  const Graph g = make_cycle(n);
  IdAssignment ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v % 2 == 0 ? 10 : 20;  // 2 colors
  ASSERT_TRUE(ids_proper(g, ids));
  for (const auto& sched_name : scheduler_names()) {
    auto sched = make_scheduler(sched_name, n, 5);
    RunOptions options;
    options.max_steps = linear_step_budget(n);
    const auto outcome =
        run_simulation(SixColoring{}, g, ids, *sched, {}, options);
    ASSERT_TRUE(outcome.result.completed) << sched_name;
    EXPECT_TRUE(outcome.proper) << sched_name;
    // Chains have length 1, so Lemma 3.9 gives a constant bound.
    EXPECT_LE(outcome.result.max_activations(), 7u) << sched_name;
  }
}

TEST(Algo1, SoloRunnerObstructionFreeFastPath) {
  // Under solo runs each node returns within at most 2 activations of its
  // own (neighbours' registers are frozen while it runs).
  const NodeId n = 12;
  const Graph g = make_cycle(n);
  SoloRunsScheduler sched;
  Executor<SixColoring> ex(SixColoring{}, g, sorted_ids(n));
  const auto result = ex.run(sched, 10000);
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < n; ++v)
    EXPECT_LE(result.activations[v], 2u) << "node " << v;
  EXPECT_TRUE(
      is_proper_total(g, to_partial_coloring<SixColoring>(result.outputs)));
}

TEST(Algo1, AdversarialReplaySchedule) {
  // A hand-crafted interleaving on C_4: pairs alternate, then everyone.
  const Graph g = make_cycle(4);
  const IdAssignment ids = {10, 30, 20, 40};
  ReplayScheduler sched({{0, 2}, {1, 3}, {0, 2}, {1, 3}, {0, 1}, {2, 3}});
  Executor<SixColoring> ex(SixColoring{}, g, ids);
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(
      is_proper_total(g, to_partial_coloring<SixColoring>(result.outputs)));
  EXPECT_LE(result.max_activations(), theorem31_bound(4));
}

TEST(Algo1, PairPaletteNeverExceedsSixColors) {
  // Across many runs, collect every color ever output: must be within the
  // 6-element set {(a,b) : a+b <= 2}.
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const NodeId n = 20;
    const Graph g = make_cycle(n);
    auto sched = make_scheduler("single", n, seed);
    RunOptions options;
    options.max_steps = linear_step_budget(n);
    const auto outcome = run_simulation(SixColoring{}, g,
                                        random_ids(n, seed), *sched, {},
                                        options);
    ASSERT_TRUE(outcome.result.completed);
    for (const auto& c : outcome.colors)
      if (c) seen.insert(*c);
  }
  EXPECT_LE(seen.size(), pair_palette_size(2));  // 6
}

}  // namespace
}  // namespace ftcc
