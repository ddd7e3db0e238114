// Cross-module integration: differential testing between the Executor and
// the model checker's independent transition function, the Algorithm 1 =
// Algorithm 4 identity on cycles, cross-algorithm runs over shared
// schedules, and the paper's register-width claim (§2.1: a constant
// number of variables of O(log n) bits each).
#include <gtest/gtest.h>

#include "analysis/harness.hpp"
#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "modelcheck/explorer.hpp"
#include "sched/schedulers.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace ftcc {
namespace {

std::vector<std::vector<NodeId>> random_schedule(NodeId n,
                                                 std::size_t steps,
                                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::vector<NodeId>> schedule(steps);
  for (auto& sigma : schedule)
    for (NodeId v = 0; v < n; ++v)
      if (rng.chance(0.5)) sigma.push_back(v);
  return schedule;
}

TEST(Integration, ExecutorAndCheckerAgreeOnEveryRandomSchedule) {
  // Two independent implementations of the state-model semantics must
  // produce identical outputs on identical schedules.
  const NodeId n = 6;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 21);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const auto schedule = random_schedule(n, 60, seed);

    Executor<FiveColoringFast> ex(FiveColoringFast{}, g, ids);
    for (const auto& sigma : schedule) ex.step(sigma);

    ModelChecker<FiveColoringFast> mc(FiveColoringFast{}, g, ids);
    const auto checker_outputs = mc.simulate(schedule);

    for (NodeId v = 0; v < n; ++v)
      EXPECT_EQ(ex.output(v), checker_outputs[v])
          << "seed " << seed << " node " << v;
  }
}

TEST(Integration, Algorithm4EqualsAlgorithm1OnCycles) {
  // On the cycle, Algorithm 4's transition rule degenerates to Algorithm
  // 1's exactly: identical schedules must produce identical outputs.
  const NodeId n = 12;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 33);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto schedule = random_schedule(n, 120, seed);
    Executor<SixColoring> a1(SixColoring{}, g, ids);
    Executor<DeltaSquaredColoring> a4(DeltaSquaredColoring{}, g, ids);
    for (const auto& sigma : schedule) {
      a1.step(sigma);
      a4.step(sigma);
    }
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(a1.output(v).has_value(), a4.output(v).has_value())
          << "seed " << seed << " node " << v;
      if (a1.output(v)) {
        EXPECT_EQ(a1.output(v)->code(), a4.output(v)->code())
            << "seed " << seed << " node " << v;
      }
    }
  }
}

TEST(Integration, AllFiveAlgorithmsProperOnSharedScenario) {
  // One scenario, five algorithms: everyone colors properly, with their
  // respective palettes.
  const NodeId n = 32;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 55);
  CrashPlan plan(n);
  plan.crash_after_activations(5, 2);
  plan.crash_after_activations(20, 0);

  auto run_one = [&](auto algo, std::uint64_t budget) {
    auto sched = make_scheduler("random", n, 7);
    RunOptions options;
    options.max_steps = budget;
    const auto outcome =
        run_simulation(std::move(algo), g, ids, *sched, plan, options);
    EXPECT_TRUE(outcome.result.completed);
    EXPECT_TRUE(outcome.proper);
    return outcome;
  };
  const auto o1 = run_one(SixColoring{}, linear_step_budget(n));
  const auto o2 = run_one(FiveColoringLinear{}, linear_step_budget(n));
  const auto o3 = run_one(FiveColoringFast{}, logstar_step_budget(n));
  const auto o4 = run_one(DeltaSquaredColoring{}, linear_step_budget(n));
  const auto o5 = run_one(SixColoringFast{}, logstar_step_budget(n));
  EXPECT_LE(palette_size(o1.colors), 6u);
  EXPECT_LE(palette_size(o2.colors), 5u);
  EXPECT_LE(palette_size(o3.colors), 5u);
  EXPECT_LE(palette_size(o4.colors), 6u);
  EXPECT_LE(palette_size(o5.colors), 6u);
}

TEST(Integration, RegisterWidthStaysLogarithmic) {
  // Paper §2.1: the algorithms manipulate a constant number of variables
  // of O(log n) bits each.  Audit every field of every register over a
  // run: identifiers never exceed their initial poly(n) width (they only
  // shrink), candidates stay below 3 bits, and the green-light counter r
  // stays below the activation bound (its ∞ sentinel excluded).
  for (NodeId n : {16u, 256u, 4096u}) {
    const Graph g = make_cycle(n);
    const auto ids = random_ids(n, 3);
    std::uint64_t max_id = 0;
    for (auto id : ids) max_id = std::max(max_id, id);

    int worst_x_bits = 0;
    int worst_r_bits = 0;
    int worst_color_bits = 0;
    Executor<FiveColoringFast> ex(FiveColoringFast{}, g, ids);
    ex.add_invariant([&](const Executor<FiveColoringFast>& e)
                         -> std::optional<std::string> {
      for (NodeId v = 0; v < e.graph().node_count(); ++v) {
        const auto& s = e.state(v);
        worst_x_bits = std::max(worst_x_bits, bit_length(s.x));
        if (s.r != kFrozenRound)
          worst_r_bits = std::max(worst_r_bits, bit_length(s.r));
        worst_color_bits = std::max(
            {worst_color_bits, bit_length(s.a), bit_length(s.b)});
      }
      return std::nullopt;
    });
    RandomSubsetScheduler sched(0.5, 11);
    const auto result = ex.run(sched, logstar_step_budget(n));
    ASSERT_TRUE(result.completed);
    EXPECT_LE(worst_x_bits, bit_length(max_id));  // X only shrinks
    EXPECT_LE(worst_color_bits, 3);               // colors in {0..4}
    EXPECT_LE(worst_r_bits, 8);  // r bounded by O(log* n) activations
  }
}

TEST(Integration, RecordingOfOneAlgorithmReplaysIntoAnother) {
  // Schedules are algorithm-agnostic: a schedule recorded from Algorithm 2
  // drives Algorithm 1 to a proper coloring too (termination times differ,
  // so the replay is padded by the fallthrough full-activation steps).
  const NodeId n = 10;
  const Graph g = make_cycle(n);
  const auto ids = random_ids(n, 77);
  Executor<FiveColoringLinear> a2(FiveColoringLinear{}, g, ids);
  RandomSingleScheduler sched(13);
  RecordingScheduler recorder(sched);
  const auto recorded = a2.run(recorder, 100000);
  ASSERT_TRUE(recorded.completed);

  Executor<SixColoring> a1(SixColoring{}, g, ids);
  ReplayScheduler replay(recorder.take(recorded.steps));
  const auto result = a1.run(replay, 100000);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(
      is_proper_total(g, to_partial_coloring<SixColoring>(result.outputs)));
}

}  // namespace
}  // namespace ftcc
