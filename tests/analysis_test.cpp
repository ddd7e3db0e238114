// The analysis layer itself: invariant monitors detect violations when fed
// deliberately broken algorithms, and the run harness packages outcomes
// consistently.
#include <gtest/gtest.h>

#include "analysis/harness.hpp"
#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/recovering.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {
namespace {

// Deliberately broken: publishes a constant identifier (violating the
// proper-X invariant) and keeps a > b (violating the candidate order).
// Register-codable, so it runs under Recovering<> too.
class Broken {
 public:
  struct Register {
    std::uint64_t x = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    friend bool operator==(const Register&, const Register&) = default;
    void encode(std::vector<std::uint64_t>& out) const {
      out.insert(out.end(), {x, a, b});
    }
  };
  struct State {
    std::uint64_t x = 7;  // everyone shares x = 7: improper by design
    std::uint64_t a = 5;
    std::uint64_t b = 1;  // a > b by design
    void encode(std::vector<std::uint64_t>& out) const {
      out.insert(out.end(), {x, a, b});
    }
  };
  using Output = std::uint64_t;
  static constexpr std::size_t kRegisterWords = 3;
  static Register decode_register(std::span<const std::uint64_t> words) {
    return {words[0], words[1], words[2]};
  }

  State init(NodeId, std::uint64_t, int) const { return {}; }
  Register publish(const State& s) const { return {s.x, s.a, s.b}; }
  std::optional<Output> step(State&, NeighborView<Register> view) const {
    // Terminate with a constant color once a neighbour is visible, so the
    // output-properness monitor can fire too.
    for (const auto& reg : view)
      if (reg) return 9;
    return std::nullopt;
  }
  static std::uint64_t color_code(const Output& o) { return o; }
};
static_assert(Algorithm<Broken>);
using WrappedBroken = Recovering<Broken>;

/// The violation `invariant` reports after the steps `sigmas` on C3 (ids
/// 1 2 3) under `plan`, or "" if it stayed quiet.
template <Algorithm A>
std::string violation_after(typename Executor<A>::Invariant invariant,
                            const std::vector<std::vector<NodeId>>& sigmas,
                            FaultPlan plan = {}) {
  const Graph g = make_cycle(3);
  Executor<A> ex(A{}, g, {1, 2, 3}, std::move(plan));
  ex.add_invariant(std::move(invariant));
  for (const auto& sigma : sigmas) ex.step(sigma);
  return ex.violation().value_or("");
}

TEST(Invariants, ProperIdentifierMonitorFires) {
  const Graph g = make_cycle(3);
  Executor<Broken> ex(Broken{}, g, {1, 2, 3});
  ex.add_invariant(proper_identifier_invariant<Broken>());
  const NodeId pair[] = {0, 1};
  ex.step(pair);
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("identifiers collide"), std::string::npos);
}

// The monitor must also fire on a *real* algorithm whose registers were
// hand-crafted into collision — here by violating the theorems'
// precondition that identifiers properly color the graph.  Nodes 0 and 1
// are adjacent with X = 7 on both; the instant both publish, the
// identifier invariant must trip (not merely report improper outputs
// later).
TEST(Invariants, ProperIdentifierMonitorFiresOnCollidingRealRegisters) {
  const Graph g = make_cycle(4);
  const IdAssignment colliding = {7, 7, 9, 11};
  Executor<SixColoring> ex(SixColoring{}, g, colliding);
  ex.add_invariant(proper_identifier_invariant<SixColoring>());
  const NodeId only_node2[] = {2};
  ex.step(only_node2);
  EXPECT_FALSE(ex.violation().has_value())
      << "no collision is visible while only node 2 has published";
  const NodeId both[] = {0, 1};
  ex.step(both);
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("identifiers collide on edge (0,1)"),
            std::string::npos)
      << *ex.violation();
  EXPECT_NE(ex.violation()->find("X=7"), std::string::npos);
}

// The private-vs-published form (X_p(t) != X̂_q(t), the stronger clause of
// Lemma 4.5) fires as soon as ONE side of a colliding pair publishes.
TEST(Invariants, ProperIdentifierMonitorFiresOnPrivateVsPublished) {
  const Graph g = make_cycle(4);
  const IdAssignment colliding = {7, 7, 9, 11};
  Executor<SixColoring> ex(SixColoring{}, g, colliding);
  ex.add_invariant(proper_identifier_invariant<SixColoring>());
  const NodeId only_node0[] = {0};
  ex.step(only_node0);  // node 1 never published, but its private x is 7
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("private X"), std::string::npos)
      << *ex.violation();
}

TEST(Invariants, CandidateOrderMonitorFires) {
  const Graph g = make_cycle(3);
  Executor<Broken> ex(Broken{}, g, {1, 2, 3});
  ex.add_invariant(candidates_ordered_invariant<Broken>());
  const NodeId one[] = {0};
  ex.step(one);
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("candidate order"), std::string::npos);
}

TEST(Invariants, CandidateBoundMonitorFires) {
  const Graph g = make_cycle(3);
  Executor<Broken> ex(Broken{}, g, {1, 2, 3});
  ex.add_invariant(candidates_bounded_invariant<Broken>(4));
  const NodeId one[] = {0};
  ex.step(one);
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("out of palette"), std::string::npos);
}

TEST(Invariants, OutputPropernessMonitorFires) {
  const Graph g = make_cycle(3);
  Executor<Broken> ex(Broken{}, g, {1, 2, 3});
  ex.add_invariant(output_properness_invariant<Broken>());
  // Everyone sees a neighbour, terminates with color 9 -> adjacent equal.
  const NodeId all[] = {0, 1, 2};
  ex.step(all);
  ex.step(all);
  ASSERT_TRUE(ex.violation().has_value());
  EXPECT_NE(ex.violation()->find("same color"), std::string::npos);
}

// Every monitor's exact message, bare and under Recovering<>.  Wrapped,
// step 1 is each activated node's veiled adoption round; Broken's
// candidates sit in the wrapper's inner state from init on.
TEST(Invariants, EveryMessageIsPinnedBareAndWrapped) {
  EXPECT_EQ(violation_after<Broken>(proper_identifier_invariant<Broken>(),
                                    {{0, 1}}),
            "published identifiers collide on edge (0,1): X=7 at step 1");
  EXPECT_EQ(
      violation_after<Broken>(proper_identifier_invariant<Broken>(), {{0}}),
      "private X of 1 equals published X of neighbour 0 (X=7) at step 1");
  EXPECT_EQ(
      violation_after<Broken>(proper_identifier_invariant<Broken>(), {{1}}),
      "private X of 0 equals published X of neighbour 1 (X=7) at step 1");
  EXPECT_EQ(
      violation_after<Broken>(candidates_ordered_invariant<Broken>(), {{0}}),
      "candidate order violated at node 0: a=5 > b=1 at step 1");
  EXPECT_EQ(
      violation_after<Broken>(candidates_bounded_invariant<Broken>(4), {{0}}),
      "candidate out of palette at node 0: a=5 b=1 bound=4 at step 1");
  EXPECT_EQ(violation_after<Broken>(output_properness_invariant<Broken>(),
                                    {{0, 1, 2}}),
            "terminated neighbours 0 and 1 output the same color at step 1");

  EXPECT_EQ(violation_after<WrappedBroken>(
                proper_identifier_invariant<WrappedBroken>(),
                {{0, 1}, {0, 1}}),
            "authentic published identifiers collide on edge (0,1): X=7 at "
            "step 2");
  EXPECT_EQ(violation_after<WrappedBroken>(
                candidates_ordered_invariant<WrappedBroken>(),
                {{0}}),
            "candidate order violated at node 0: a=5 > b=1 at step 1");
  EXPECT_EQ(violation_after<WrappedBroken>(
                candidates_bounded_invariant<WrappedBroken>(4),
                {{0}}),
            "candidate out of palette at node 0: a=5 b=1 bound=4 at step 1");
}

// Under Recovering<> the identifier monitor reads authentic registers
// only, and it has no private-vs-published form: a revived node's private
// state is a placeholder until its adoption round.  Nodes 0 and 1 hold
// X=7 throughout.
TEST(Invariants, WrappedIdentifierMonitorSkipsNonAuthenticRegisters) {
  const auto monitor = [] {
    return proper_identifier_invariant<WrappedBroken>();
  };
  // Step 2: node 1 publishes beside node 0's veiled register, which is
  // untainted and fails only its checksum; node 0's private X equals
  // node 1's published X.
  EXPECT_EQ(violation_after<WrappedBroken>(monitor(), {{0, 1}, {1}}), "");
  // Step 3 corrupts node 1's authentic register (bit 0 of its a) as node
  // 0 publishes beside it; at step 4 node 1 republishes and the collision
  // shows.
  FaultPlan plan(3);
  plan.corrupt(1, {3, CorruptionFault::Kind::bit_flip, 1, 0});
  EXPECT_EQ(violation_after<WrappedBroken>(monitor(), {{0, 1}, {1}, {0}},
                                           plan),
            "");
  EXPECT_EQ(violation_after<WrappedBroken>(monitor(),
                                           {{0, 1}, {1}, {0}, {1}}, plan),
            "authentic published identifiers collide on edge (0,1): X=7 at "
            "step 4");
}

// The candidate rule per algorithm type, and a wrapped algorithm keeps
// its inner one.
TEST(Invariants, CandidateRulesPerAlgorithm) {
  static_assert(kCandidateRule<SixColoring>.bound == 2 &&
                !kCandidateRule<SixColoring>.ordered);
  static_assert(kCandidateRule<FiveColoringLinear>.bound == 4 &&
                kCandidateRule<FiveColoringLinear>.ordered);
  static_assert(kCandidateRule<FiveColoringFast>.bound == 4 &&
                kCandidateRule<FiveColoringFast>.ordered);
  static_assert(kCandidateRule<DeltaSquaredColoring>.bound == 2 &&
                !kCandidateRule<DeltaSquaredColoring>.ordered);
  static_assert(kCandidateRule<SixColoringFast>.bound == 2 &&
                !kCandidateRule<SixColoringFast>.ordered);
  static_assert(kCandidateRule<Recovering<FiveColoringFast>>.bound == 4 &&
                kCandidateRule<Recovering<FiveColoringFast>>.ordered);
  SUCCEED();
}

TEST(Invariants, CleanAlgorithmsPassAllMonitors) {
  const Graph g = make_cycle(8);
  Executor<FiveColoringLinear> ex(FiveColoringLinear{}, g, random_ids(8, 1));
  ex.add_invariant(proper_identifier_invariant<FiveColoringLinear>());
  ex.add_invariant(candidates_ordered_invariant<FiveColoringLinear>());
  ex.add_invariant(candidates_bounded_invariant<FiveColoringLinear>(4));
  ex.add_invariant(output_properness_invariant<FiveColoringLinear>());
  RoundRobinScheduler sched(1);
  const auto result = ex.run(sched, 100000);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(ex.violation().has_value());
}

TEST(Harness, PackagesOutcomeAndViolation) {
  const Graph g = make_cycle(4);
  SynchronousScheduler sched;
  RunOptions options;
  options.max_steps = 10000;
  const auto outcome = run_simulation(FiveColoringLinear{}, g,
                                      random_ids(4, 2), sched, {}, options);
  EXPECT_TRUE(outcome.result.completed);
  EXPECT_TRUE(outcome.proper);
  EXPECT_FALSE(outcome.violation.has_value());
  EXPECT_EQ(outcome.colors.size(), 4u);
  for (const auto& c : outcome.colors) ASSERT_TRUE(c.has_value());
}

TEST(Harness, InvariantMonitoringCanBeDisabled) {
  // Broken would trip monitors; with monitoring off the run proceeds and
  // the post-run properness verdict still catches the bad coloring.
  const Graph g = make_cycle(4);
  SynchronousScheduler sched;
  RunOptions options;
  options.max_steps = 100;
  options.monitor_invariants = false;
  const auto outcome =
      run_simulation(Broken{}, g, {1, 2, 3, 4}, sched, {}, options);
  EXPECT_FALSE(outcome.violation.has_value());
  EXPECT_FALSE(outcome.proper);  // constant color 9 everywhere
}

TEST(Harness, StepBudgetsScaleSanely) {
  EXPECT_GT(linear_step_budget(100), linear_step_budget(10));
  EXPECT_GT(logstar_step_budget(1u << 20), logstar_step_budget(1u << 10));
  // The log* budget is vastly cheaper than the linear one at scale.
  EXPECT_LT(logstar_step_budget(1u << 16), linear_step_budget(1u << 16));
}

}  // namespace
}  // namespace ftcc
