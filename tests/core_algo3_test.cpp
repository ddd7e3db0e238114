// Algorithm 3 (wait-free 5-coloring in O(log* n)): empirical verification
// of Theorem 4.4 (termination in O(log* n) activations, palette {0..4},
// correctness), of the Lemma 4.5 safety invariant (evolving identifiers
// always properly color the cycle), and of the blocked-process behaviour
// of Section 4.2.
#include "core/algo3_fast_five_coloring.hpp"

#include <gtest/gtest.h>

#include "core/algo2_five_coloring.hpp"

#include <set>
#include <tuple>

#include "analysis/harness.hpp"
#include "graph/chains.hpp"
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

// Empirical Theorem 4.4 bound: c1 * log*(n) + c2 activations.  The paper
// leaves the constants implicit; these are calibrated with ample slack over
// the worst value observed across the full sweep (see EXPERIMENTS.md, E4)
// so the test detects order-of-growth regressions, not constant drift.
std::uint64_t theorem44_budget(NodeId n) {
  return std::uint64_t{24} *
             static_cast<std::uint64_t>(
                 log_star(static_cast<double>(n))) +
         60;
}

using Params = std::tuple<NodeId, std::string, std::string>;

class Algo3Sweep : public ::testing::TestWithParam<Params> {};

TEST_P(Algo3Sweep, Theorem44HoldsAcrossSeeds) {
  const auto& [n, id_kind, sched_name] = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = make_cycle(n);
    const auto ids = make_ids(id_kind, n, seed);
    ASSERT_TRUE(ids_proper(g, ids));
    auto sched = make_scheduler(sched_name, n, seed * 13 + 1);

    Executor<FiveColoringFast> ex(FiveColoringFast{}, g, ids);
    ex.add_invariant(proper_identifier_invariant<FiveColoringFast>());
    ex.add_invariant(candidates_ordered_invariant<FiveColoringFast>());
    ex.add_invariant(candidates_bounded_invariant<FiveColoringFast>(4));
    ex.add_invariant(output_properness_invariant<FiveColoringFast>());
    const auto result = ex.run(*sched, logstar_step_budget(n));

    ASSERT_FALSE(ex.violation().has_value()) << *ex.violation();
    ASSERT_TRUE(result.completed)
        << "n=" << n << " ids=" << id_kind << " sched=" << sched_name;
    EXPECT_EQ(result.terminated_count(), n);
    EXPECT_LE(result.max_activations(), theorem44_budget(n))
        << "n=" << n << " ids=" << id_kind << " sched=" << sched_name;

    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(result.outputs[v].has_value());
      EXPECT_LE(*result.outputs[v], 4u) << "node " << v;
    }
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<FiveColoringFast>(result.outputs)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Algo3Sweep,
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

TEST(Algo3, NearConstantRoundsOnHugeSortedCycles) {
  // The headline behaviour: on the adversarial (sorted) identifier
  // assignment, activations stay near-constant as n grows by orders of
  // magnitude (log* is <= 5 for every physical n).
  std::uint64_t worst = 0;
  for (NodeId n : {1u << 10, 1u << 13, 1u << 16}) {
    const Graph g = make_cycle(n);
    SynchronousScheduler sched;
    Executor<FiveColoringFast> ex(FiveColoringFast{}, g, sorted_ids(n));
    const auto result = ex.run(sched, logstar_step_budget(n));
    ASSERT_TRUE(result.completed) << n;
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<FiveColoringFast>(result.outputs)));
    worst = std::max(worst, result.max_activations());
  }
  EXPECT_LE(worst, theorem44_budget(1u << 16));
}

TEST(Algo3, BeatsAlgorithm2OnSortedIdsByAGrowingFactor) {
  // The paper's raison d'être: Algorithm 2 is Θ(n) on sorted identifiers
  // while Algorithm 3 is O(log* n).
  const NodeId n = 512;
  const Graph g = make_cycle(n);
  SynchronousScheduler s1;
  Executor<FiveColoringFast> fast(FiveColoringFast{}, g, sorted_ids(n));
  const auto fast_result = fast.run(s1, logstar_step_budget(n));
  ASSERT_TRUE(fast_result.completed);
  SynchronousScheduler s2;
  Executor<FiveColoringLinear> slow(FiveColoringLinear{}, g, sorted_ids(n));
  const auto slow_result = slow.run(s2, linear_step_budget(n));
  ASSERT_TRUE(slow_result.completed);
  EXPECT_GE(slow_result.max_activations(),
            8 * fast_result.max_activations());
}

TEST(Algo3, IdentifiersOnlyDecrease) {
  // X_p never increases: every update path in lines 14-19 lowers it.
  const NodeId n = 64;
  const Graph g = make_cycle(n);
  const auto ids = sorted_ids(n);
  Executor<FiveColoringFast> ex(FiveColoringFast{}, g, ids);
  std::vector<std::uint64_t> previous(ids);
  ex.add_invariant([&previous](const Executor<FiveColoringFast>& e)
                       -> std::optional<std::string> {
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      if (e.state(v).x > previous[v])
        return "identifier of node " + std::to_string(v) + " increased";
      previous[v] = e.state(v).x;
    }
    return std::nullopt;
  });
  RandomSubsetScheduler sched(0.7, 5);
  const auto result = ex.run(sched, logstar_step_budget(n));
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(ex.violation().has_value());
}

TEST(Algo3, FrozenRoundIsAbsorbing) {
  // Once r_p = ∞ the identifier never changes again (Lemma 4.6's regime).
  const NodeId n = 32;
  const Graph g = make_cycle(n);
  Executor<FiveColoringFast> ex(FiveColoringFast{}, g, random_ids(n, 3));
  std::vector<std::optional<std::uint64_t>> frozen_x(n);
  ex.add_invariant([&frozen_x](const Executor<FiveColoringFast>& e)
                       -> std::optional<std::string> {
    for (NodeId v = 0; v < e.graph().node_count(); ++v) {
      const auto& s = e.state(v);
      if (s.r == kFrozenRound) {
        if (frozen_x[v] && *frozen_x[v] != s.x)
          return "node " + std::to_string(v) + " changed X after freezing";
        frozen_x[v] = s.x;
      }
    }
    return std::nullopt;
  });
  RandomSubsetScheduler sched(0.5, 9);
  const auto result = ex.run(sched, logstar_step_budget(n));
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(ex.violation().has_value()) << *ex.violation();
}

TEST(Algo3, ProperUnderRandomCrashes) {
  Xoshiro256 rng(91);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 24;
    const Graph g = make_cycle(n);
    const auto ids = random_ids(n, 700 + static_cast<std::uint64_t>(trial));
    CrashPlan plan(n);
    for (NodeId v = 0; v < n; ++v)
      if (rng.chance(0.3)) plan.crash_after_activations(v, rng.below(6));
    auto sched = make_scheduler("random", n, static_cast<std::uint64_t>(trial));
    RunOptions options;
    options.max_steps = logstar_step_budget(n);
    const auto outcome = run_simulation(FiveColoringFast{}, g, ids, *sched,
                                        plan, options);
    ASSERT_TRUE(outcome.result.completed) << "trial " << trial;
    ASSERT_FALSE(outcome.violation.has_value()) << *outcome.violation;
    EXPECT_TRUE(outcome.proper) << "trial " << trial;
    for (const auto& c : outcome.colors) {
      if (c) {
        EXPECT_LE(*c, 4u);
      }
    }
  }
}

TEST(Algo3, SleepingNeighbourBlocksIdentifierReductionOnly) {
  // With one neighbour permanently asleep a node can never pass the
  // green-light gate (⊥ semantics, DESIGN.md §2), so its identifier stays
  // put — but the Algorithm 2 component still terminates it.
  const NodeId n = 8;
  const Graph g = make_cycle(n);
  const auto ids = sorted_ids(n);
  CrashPlan plan(n);
  plan.crash_after_activations(0, 0);  // node 0 never wakes
  SynchronousScheduler sched;
  Executor<FiveColoringFast> ex(FiveColoringFast{}, g, ids, plan);
  const auto result = ex.run(sched, logstar_step_budget(n));
  ASSERT_TRUE(result.completed);
  // Node 1 and node 7 are neighbours of the sleeper: identifiers unchanged.
  EXPECT_EQ(ex.state(1).x, ids[1]);
  EXPECT_EQ(ex.state(n - 1).x, ids[n - 1]);
  // Everyone but the sleeper terminated with a proper coloring.
  EXPECT_EQ(result.terminated_count(), static_cast<std::size_t>(n - 1));
  EXPECT_TRUE(is_proper_partial(
      g, to_partial_coloring<FiveColoringFast>(result.outputs)));
}

TEST(Algo3, BlockedChainStillTerminates) {
  // Lemma 4.8's regime: freeze one end of a monotone chain (slow node via
  // a crash after few steps); the blocked survivors terminate regardless.
  const NodeId n = 16;
  const Graph g = make_cycle(n);
  const auto ids = sorted_ids(n);
  CrashPlan plan(n);
  plan.crash_after_activations(3, 1);   // early crash inside the chain
  plan.crash_after_activations(11, 2);  // and another further along
  for (const auto& sched_name : scheduler_names()) {
    auto sched = make_scheduler(sched_name, n, 77);
    RunOptions options;
    options.max_steps = logstar_step_budget(n);
    const auto outcome = run_simulation(FiveColoringFast{}, g, ids, *sched,
                                        plan, options);
    ASSERT_TRUE(outcome.result.completed) << sched_name;
    EXPECT_TRUE(outcome.proper) << sched_name;
    // A node may legitimately return at the very activation its crash plan
    // takes effect, so at least n-2 nodes terminate.
    EXPECT_GE(outcome.result.terminated_count(),
              static_cast<std::size_t>(n - 2))
        << sched_name;
  }
}

TEST(Algo3, FiveColorsCanAllAppear) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 200 && seen.size() < 5; ++seed) {
    const NodeId n = 16;
    const Graph g = make_cycle(n);
    auto sched = make_scheduler("random", n, seed);
    RunOptions options;
    options.max_steps = logstar_step_budget(n);
    const auto outcome = run_simulation(
        FiveColoringFast{}, g, random_ids(n, seed), *sched, {}, options);
    ASSERT_TRUE(outcome.result.completed);
    for (const auto& c : outcome.colors)
      if (c) seen.insert(*c);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Algo3, TriangleMatchesSharedMemoryModel) {
  // On C_3 the model coincides with 3-process immediate-snapshot shared
  // memory (Property 2.3): every execution must still 5-color properly.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Graph g = make_cycle(3);
    auto sched = make_scheduler("single", 3, seed);
    RunOptions options;
    options.max_steps = 10000;
    const auto outcome = run_simulation(
        FiveColoringFast{}, g, random_ids(3, seed), *sched, {}, options);
    ASSERT_TRUE(outcome.result.completed);
    EXPECT_TRUE(outcome.proper);
    for (const auto& c : outcome.colors) {
      ASSERT_TRUE(c.has_value());
      EXPECT_LE(*c, 4u);
    }
  }
}

}  // namespace
}  // namespace ftcc
