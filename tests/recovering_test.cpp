// The Recovering<> self-healing wrapper: checksum authentication, the
// veil-then-adopt protocol, the bounded local reset, and end-to-end
// executions under corruption and crash-recovery faults with the
// invariant monitors armed (they see through the wrapper).
#include "core/recovering.hpp"

#include <gtest/gtest.h>

#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "core/algo1_six_coloring.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "graph/coloring.hpp"
#include "runtime/executor.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {
namespace {

using Wrapped = Recovering<SixColoring>;

/// An authentic register as some node's unveiled publish would emit it.
Wrapped::Register make_authentic(std::uint64_t x, std::uint64_t a,
                                 std::uint64_t b, std::uint64_t x0) {
  Wrapped::Register reg{{x, a, b}, x0, 0};
  reg.sum = Wrapped::checksum(reg.inner, reg.x0);
  return reg;
}

TEST(RecoveringChecksum, DetectsSingleBitFlips) {
  auto reg = make_authentic(10, 1, 2, 10);
  ASSERT_TRUE(Wrapped::authentic(reg));
  reg.inner.x ^= 1;
  EXPECT_FALSE(Wrapped::authentic(reg));
  reg.inner.x ^= 1;
  reg.x0 ^= std::uint64_t{1} << 40;
  EXPECT_FALSE(Wrapped::authentic(reg));
}

TEST(RecoveringChecksum, SameBitFlippedInTwoWordsDoesNotCancel) {
  // A plain XOR-fold checksum would pass this pair of flips; the chained
  // hash must not.
  auto reg = make_authentic(10, 1, 2, 10);
  reg.inner.x ^= std::uint64_t{1} << 7;
  reg.inner.a ^= std::uint64_t{1} << 7;
  EXPECT_FALSE(Wrapped::authentic(reg));
}

TEST(RecoveringChecksum, VeiledPublishReadsAsInvalid) {
  Wrapped w;
  const auto veiled_state = w.init(0, 10, 2);
  EXPECT_TRUE(veiled_state.veiled);
  EXPECT_FALSE(Wrapped::authentic(w.publish(veiled_state)));
}

TEST(RecoveringChecksum, AllZeroWordsAreInvalid) {
  // A zeroed (wiped-memory) register must never authenticate.
  const std::vector<std::uint64_t> zeros(Wrapped::kRegisterWords, 0);
  EXPECT_FALSE(Wrapped::authentic(Wrapped::decode_register(zeros)));
}

TEST(RecoveringChecksum, EncodeDecodeRoundTrips) {
  const auto reg = make_authentic(10, 1, 2, 10);
  std::vector<std::uint64_t> words;
  reg.encode(words);
  ASSERT_EQ(words.size(), Wrapped::kRegisterWords);
  EXPECT_EQ(Wrapped::decode_register(words), reg);
}

TEST(RecoveringAdopt, TakesOriginalIdWhenUncontested) {
  Wrapped w;
  auto s = w.init(1, 42, 2);
  std::vector<std::optional<Wrapped::Register>> view = {
      make_authentic(10, 0, 0, 10), std::nullopt};
  EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
  EXPECT_FALSE(s.veiled);
  EXPECT_EQ(s.inner.x, 42u);
}

TEST(RecoveringAdopt, DodgesACollidingNeighborId) {
  Wrapped w;
  auto s = w.init(1, 42, 2);
  std::vector<std::optional<Wrapped::Register>> view = {
      make_authentic(42, 0, 0, 42), std::nullopt};
  EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
  EXPECT_FALSE(s.veiled);
  EXPECT_NE(s.inner.x, 42u);  // dodged off the collision
}

TEST(RecoveringAdopt, CorruptedNeighborIsIndistinguishableFromAsleep) {
  Wrapped w;
  auto s = w.init(0, 10, 2);
  auto corrupted = make_authentic(10, 0, 0, 10);
  corrupted.inner.a ^= 4;  // breaks the checksum
  std::vector<std::optional<Wrapped::Register>> view = {corrupted,
                                                        std::nullopt};
  // Adoption round: the corrupted register is read as ⊥, so x0 = 10 is
  // free to adopt even though the garbage carries the same identifier.
  EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
  EXPECT_FALSE(s.veiled);
  EXPECT_EQ(s.inner.x, 10u);
  // Next activation: both neighbours read as ⊥ — Algorithm 1 returns
  // immediately, exactly as against sleeping neighbours.
  EXPECT_TRUE(w.step(s, NeighborView<Wrapped::Register>(view)).has_value());
}

TEST(RecoveringReset, OwnIdentifierInAValidNeighborTriggersReveil) {
  Wrapped w;
  auto s = w.init(0, 10, 2);
  std::vector<std::optional<Wrapped::Register>> empty_view = {std::nullopt,
                                                              std::nullopt};
  (void)w.step(s, NeighborView<Wrapped::Register>(empty_view));  // adopt 10
  ASSERT_FALSE(s.veiled);
  // A stale-snapshot replay resurrected our identifier next door.
  std::vector<std::optional<Wrapped::Register>> view = {
      make_authentic(10, 1, 0, 99), std::nullopt};
  EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
  EXPECT_TRUE(s.veiled);
  EXPECT_EQ(s.resets, 1u);
  // The re-adoption dodges to a fresh identifier.
  EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
  EXPECT_FALSE(s.veiled);
  EXPECT_NE(s.inner.x, 10u);
}

TEST(RecoveringReset, StaysVeiledForeverAfterMaxResets) {
  Wrapped w;
  auto s = w.init(0, 10, 2);
  s.resets = Wrapped::kMaxResets;
  std::vector<std::optional<Wrapped::Register>> view = {std::nullopt,
                                                        std::nullopt};
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(w.step(s, NeighborView<Wrapped::Register>(view)), std::nullopt);
    EXPECT_TRUE(s.veiled);  // silent: safety over liveness
  }
}

TEST(RecoveringExecutor, FaultFreeRunStillTerminatesProperly) {
  const Graph g = make_cycle(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Executor<Wrapped> ex(Wrapped{}, g, random_ids(8, seed));
    ex.add_invariant(proper_identifier_invariant<Wrapped>());
    ex.add_invariant(output_properness_invariant<Wrapped>());
    SynchronousScheduler sched;
    const auto result = ex.run(sched, linear_step_budget(8) * 2);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_FALSE(ex.violation().has_value());
    EXPECT_TRUE(
        is_proper_total(g, to_partial_coloring<Wrapped>(result.outputs)));
  }
}

TEST(RecoveringExecutor, SurvivesCorruptionWithInvariantsArmed) {
  const Graph g = make_cycle(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FaultPlan plan(8);
    // A barrage of early corruptions across half the ring.
    for (NodeId v = 0; v < 8; v += 2)
      plan.corrupt(v, {2 + v, CorruptionFault::Kind::overwrite, v % 5,
                       0x9e3779b97f4a7c15ULL * (seed + v + 1)});
    Executor<Wrapped> ex(Wrapped{}, g, random_ids(8, seed), plan);
    ex.add_invariant(proper_identifier_invariant<Wrapped>());
    ex.add_invariant(output_properness_invariant<Wrapped>());
    RandomSubsetScheduler sched(0.6, seed + 17);
    const auto result = ex.run(sched, linear_step_budget(8) * 4);
    EXPECT_FALSE(ex.violation().has_value()) << *ex.violation();
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(
        is_proper_total(g, to_partial_coloring<Wrapped>(result.outputs)));
  }
}

TEST(RecoveringExecutor, SurvivesCrashRecoveryWithStaleReplay) {
  const Graph g = make_cycle(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FaultPlan plan(8);
    plan.recover(1, {3, 4, RecoveredRegister::stale});
    plan.recover(4, {5, 2, RecoveredRegister::zero});
    plan.recover(6, {2, 6, RecoveredRegister::bottom});
    Executor<Wrapped> ex(Wrapped{}, g, random_ids(8, seed), plan);
    ex.add_invariant(proper_identifier_invariant<Wrapped>());
    ex.add_invariant(output_properness_invariant<Wrapped>());
    RandomSubsetScheduler sched(0.6, seed + 31);
    const auto result = ex.run(sched, linear_step_budget(8) * 4);
    EXPECT_FALSE(ex.violation().has_value()) << *ex.violation();
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(
        is_proper_total(g, to_partial_coloring<Wrapped>(result.outputs)));
  }
}

TEST(RecoveringExecutor, WrapsTheLogStarExtensionToo) {
  // The identifiers of SixColoringFast *evolve* (Algorithm 3's reduction),
  // the case the bounded local reset exists for.
  using WrappedFast = Recovering<SixColoringFast>;
  const Graph g = make_cycle(8);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FaultPlan plan(8);
    plan.recover(2, {4, 3, RecoveredRegister::stale});
    plan.corrupt(5, {3, CorruptionFault::Kind::bit_flip, 1, 13});
    Executor<WrappedFast> ex(WrappedFast{}, g, random_ids(8, seed), plan);
    ex.add_invariant(proper_identifier_invariant<WrappedFast>());
    ex.add_invariant(output_properness_invariant<WrappedFast>());
    RandomSubsetScheduler sched(0.6, seed + 71);
    const auto result = ex.run(sched, linear_step_budget(8) * 4);
    EXPECT_FALSE(ex.violation().has_value()) << *ex.violation();
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(
        is_proper_total(g, to_partial_coloring<WrappedFast>(result.outputs)));
  }
}

TEST(RecoveringTrait, DetectsWrapperInstantiations) {
  static_assert(is_recovering_v<Recovering<SixColoring>>);
  static_assert(!is_recovering_v<SixColoring>);
  SUCCEED();
}

}  // namespace
}  // namespace ftcc
