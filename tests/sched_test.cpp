#include "sched/schedulers.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

namespace ftcc {
namespace {

std::vector<NodeId> working_set(NodeId n) {
  std::vector<NodeId> w(n);
  for (NodeId i = 0; i < n; ++i) w[i] = i;
  return w;
}

TEST(Synchronous, ActivatesAllWorking) {
  SynchronousScheduler s;
  const auto w = working_set(5);
  EXPECT_EQ(s.next(w, 1), w);
  EXPECT_EQ(s.next({}, 2).size(), 0u);
}

TEST(RandomSubset, NonEmptyAndSubsetOfWorking) {
  RandomSubsetScheduler s(0.3, 11);
  const auto w = working_set(10);
  for (int t = 1; t <= 200; ++t) {
    const auto sigma = s.next(w, static_cast<std::uint64_t>(t));
    EXPECT_FALSE(sigma.empty());  // guaranteed progress
    for (NodeId v : sigma) EXPECT_LT(v, 10u);
    std::set<NodeId> dedup(sigma.begin(), sigma.end());
    EXPECT_EQ(dedup.size(), sigma.size());
  }
}

TEST(RandomSubset, ProbabilityShapesSetSize) {
  RandomSubsetScheduler lo(0.1, 5);
  RandomSubsetScheduler hi(0.9, 5);
  const auto w = working_set(100);
  std::size_t lo_total = 0;
  std::size_t hi_total = 0;
  for (int t = 1; t <= 100; ++t) {
    lo_total += lo.next(w, static_cast<std::uint64_t>(t)).size();
    hi_total += hi.next(w, static_cast<std::uint64_t>(t)).size();
  }
  EXPECT_LT(lo_total, hi_total / 3);
}

TEST(RandomSingle, ExactlyOne) {
  RandomSingleScheduler s(3);
  const auto w = working_set(7);
  std::set<NodeId> seen;
  for (int t = 1; t <= 300; ++t) {
    const auto sigma = s.next(w, static_cast<std::uint64_t>(t));
    ASSERT_EQ(sigma.size(), 1u);
    seen.insert(sigma[0]);
  }
  EXPECT_EQ(seen.size(), 7u);  // eventually hits every node
}

TEST(RoundRobin, CyclesThroughWorking) {
  RoundRobinScheduler s(1);
  const auto w = working_set(3);
  EXPECT_EQ(s.next(w, 1), std::vector<NodeId>{0});
  EXPECT_EQ(s.next(w, 2), std::vector<NodeId>{1});
  EXPECT_EQ(s.next(w, 3), std::vector<NodeId>{2});
  EXPECT_EQ(s.next(w, 4), std::vector<NodeId>{0});
}

TEST(RoundRobin, MultiplePerStep) {
  RoundRobinScheduler s(2);
  const auto w = working_set(3);
  EXPECT_EQ(s.next(w, 1), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(s.next(w, 2), (std::vector<NodeId>{2, 0}));
}

TEST(Weighted, SlowNodesActivatedLess) {
  std::vector<double> speeds = {0.05, 1.0};
  WeightedScheduler s(std::move(speeds), 7);
  const auto w = working_set(2);
  int slow = 0;
  int fast = 0;
  for (int t = 1; t <= 500; ++t) {
    for (NodeId v : s.next(w, static_cast<std::uint64_t>(t)))
      (v == 0 ? slow : fast) += 1;
  }
  EXPECT_LT(slow, fast / 5);
  EXPECT_GT(slow, 0);
}

TEST(SoloRuns, AlwaysFirstWorking) {
  SoloRunsScheduler s;
  EXPECT_EQ(s.next(working_set(4), 1), std::vector<NodeId>{0});
  const std::vector<NodeId> later = {2, 3};
  EXPECT_EQ(s.next(later, 2), std::vector<NodeId>{2});
  EXPECT_TRUE(s.next({}, 3).empty());
}

TEST(Staggered, DelaysWakeups) {
  StaggeredScheduler s(3);
  const auto w = working_set(3);
  EXPECT_EQ(s.next(w, 1), std::vector<NodeId>{0});
  EXPECT_EQ(s.next(w, 3), std::vector<NodeId>{0});
  EXPECT_EQ(s.next(w, 4), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(s.next(w, 7), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Replay, PlaysBackThenFallsThrough) {
  const std::unique_ptr<Scheduler> s = std::make_unique<ReplayScheduler>(
      std::vector<std::vector<NodeId>>{{1}, {0, 2}, {}});
  const auto w = working_set(3);
  EXPECT_EQ(s->next(w, 1), std::vector<NodeId>{1});
  EXPECT_EQ(s->next(w, 2), (std::vector<NodeId>{0, 2}));
  EXPECT_TRUE(s->next(w, 3).empty());
  EXPECT_EQ(s->next(w, 4), w);  // past the recording: all working
}

TEST(Factory, AllNamesConstructible) {
  for (const auto& name : scheduler_names()) {
    auto s = make_scheduler(name, 8, 42);
    ASSERT_NE(s, nullptr) << name;
    const auto w = working_set(8);
    // Must return a subset of working nodes.
    for (NodeId v : s->next(w, 1)) EXPECT_LT(v, 8u) << name;
  }
}

TEST(FactoryDeathTest, UnknownNameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(make_scheduler("nope", 4, 1), "precondition");
}

}  // namespace
}  // namespace ftcc
