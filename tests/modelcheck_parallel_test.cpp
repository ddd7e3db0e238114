// run_reduced() with every layer off vs run(): the BFS engine's
// level-synchronised discovery plus sequential DFS replay must reproduce
// the DFS oracle's result field for field — verdicts, exact counts,
// worst-case DPs, the first livelock witness, the first safety violation
// — for any worker count, jobs = 1 included (DESIGN.md §10).  The one
// documented divergence is a budget-exceeded run's partial tally.
// Fixtures and pinned counts come from expected_counts.hpp.
#include "modelcheck/explorer.hpp"

#include <gtest/gtest.h>

#include "core/algo1_six_coloring.hpp"
#include "expected_counts.hpp"
#include "graph/ids.hpp"

namespace ftcc {
namespace {

using testalgo::ConstantColor;
using testalgo::CountDown;
using testalgo::expect_equal;
using testalgo::Forever;
using testalgo::iota3;

TEST(ParallelExplorer, SixColoringMatchesSequentialInBothModes) {
  for (auto mode : {ActivationMode::singletons, ActivationMode::sets}) {
    ModelCheckOptions<SixColoring> options;
    options.mode = mode;
    ModelChecker<SixColoring> mc(SixColoring{}, make_cycle(4),
                                 random_ids(4, 2026), options);
    const auto sequential = mc.run();
    const auto parallel = mc.run_reduced(4);
    ASSERT_TRUE(sequential.completed);
    EXPECT_TRUE(parallel.wait_free);
    expect_equal(sequential, parallel);
  }
}

TEST(ParallelExplorer, CountDownExactCountsSurviveParallelism) {
  ModelCheckOptions<CountDown> options;
  options.mode = ActivationMode::sets;
  ModelChecker<CountDown> mc(CountDown{2}, make_cycle(3), iota3(), options);
  const auto parallel = mc.run_reduced(4);
  ASSERT_TRUE(parallel.completed);
  EXPECT_EQ(parallel.configs, testalgo::kCountDown2C3Configs);
  EXPECT_EQ(parallel.terminal_configs, testalgo::kCountDown2C3Terminal);
  EXPECT_EQ(parallel.worst_case_steps, testalgo::kCountDown2C3WorstSteps);
  expect_equal(mc.run(), parallel);
}

TEST(ParallelExplorer, FirstLivelockWitnessIsIdentical) {
  // DFS replay must surface the SAME cycle run() finds first, not just
  // some cycle — witnesses feed replay tooling and golden logs.
  for (auto mode : {ActivationMode::singletons, ActivationMode::sets}) {
    ModelCheckOptions<Forever> options;
    options.mode = mode;
    ModelChecker<Forever> mc(Forever{}, make_cycle(3), iota3(), options);
    const auto sequential = mc.run();
    const auto parallel = mc.run_reduced(8);
    EXPECT_FALSE(parallel.wait_free);
    ASSERT_FALSE(parallel.livelock_loop.empty());
    expect_equal(sequential, parallel);
  }
}

TEST(ParallelExplorer, FirstSafetyViolationIsIdentical) {
  ModelCheckOptions<ConstantColor> options;
  options.mode = ActivationMode::sets;
  ModelChecker<ConstantColor> mc(ConstantColor{}, make_cycle(3), iota3(),
                                 options);
  const auto sequential = mc.run();
  const auto parallel = mc.run_reduced(4);
  EXPECT_FALSE(parallel.outputs_proper);
  ASSERT_TRUE(parallel.safety_violation.has_value());
  EXPECT_NE(parallel.safety_violation->find("improper"), std::string::npos);
  expect_equal(sequential, parallel);
}

TEST(ParallelExplorer, WorkerCountNeverChangesTheResult) {
  ModelCheckOptions<CountDown> options;
  options.mode = ActivationMode::sets;
  ModelChecker<CountDown> mc(CountDown{3}, make_cycle(3), iota3(), options);
  const auto two = mc.run_reduced(2);
  const auto eight = mc.run_reduced(8);
  ASSERT_TRUE(two.completed);
  expect_equal(two, eight);
  expect_equal(mc.run(), two);
}

TEST(ParallelExplorer, JobsOneMatchesSequentialRun) {
  // jobs = 1 is the same BFS run inline on the caller, not a delegation
  // to run(); it must still agree with the DFS oracle field for field.
  for (auto mode : {ActivationMode::singletons, ActivationMode::sets}) {
    ModelCheckOptions<CountDown> options;
    options.mode = mode;
    ModelChecker<CountDown> mc(CountDown{2}, make_cycle(3), iota3(), options);
    expect_equal(mc.run(), mc.run_reduced(1));
  }
}

TEST(ParallelExplorer, BudgetExhaustionIsDeterministicAcrossJobs) {
  // Budget-exceeded partial tallies may differ from run()'s (BFS and DFS
  // hit the cap on different configs) but must be identical for every
  // worker count, jobs = 1 included, and the verdict must agree.
  ModelCheckOptions<CountDown> options;
  options.mode = ActivationMode::sets;
  options.max_configs = 5;
  ModelChecker<CountDown> mc(CountDown{4}, make_cycle(3), iota3(), options);
  const auto sequential = mc.run();
  const auto one = mc.run_reduced(1);
  const auto two = mc.run_reduced(2);
  const auto eight = mc.run_reduced(8);
  EXPECT_FALSE(sequential.completed);
  EXPECT_FALSE(sequential.wait_free);
  EXPECT_FALSE(one.completed);
  EXPECT_FALSE(one.wait_free);
  expect_equal(one, two);
  expect_equal(one, eight);
}

}  // namespace
}  // namespace ftcc
