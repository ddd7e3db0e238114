// The real-concurrency executor: actual OS threads, seqlock registers,
// preemptive interleaving.  The atomicity ablation (E16) proves Algorithm
// 1 and SixColoringFast safe AND wait-free under exactly this split
// write/read regime, so their threaded runs must complete and color
// properly; the 5-coloring algorithms are safe (asserted) with
// probabilistic termination.
#include "runtime/threaded_executor.hpp"

#include <gtest/gtest.h>

#include "core/algo1_six_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/recovering.hpp"
#include "graph/coloring.hpp"
#include "runtime/hb_log.hpp"

namespace ftcc {
namespace {

// Decides on its first activation, colouring itself with its identifier:
// the smallest algorithm whose deciding round is also its first publish.
struct DecideAtOnce {
  struct Register {
    std::uint64_t id = 0;
    void encode(std::vector<std::uint64_t>& out) const { out.push_back(id); }
  };
  struct State {
    std::uint64_t id = 0;
  };
  using Output = std::uint64_t;
  static constexpr std::size_t kRegisterWords = 1;

  State init(NodeId, std::uint64_t id, int) const { return {id}; }
  Register publish(const State& s) const { return {s.id}; }
  std::optional<Output> step(State& s, NeighborView<Register>) const {
    return s.id;
  }
  static std::uint64_t color_code(const Output& o) { return o; }
  static Register decode_register(std::span<const std::uint64_t> words) {
    return {words[0]};
  }
};
static_assert(ThreadSafeAlgorithm<DecideAtOnce>);

TEST(Threaded, Algorithm1CompletesAndColorsProperly) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const NodeId n = 12;
    const Graph g = make_cycle(n);
    ThreadedExecutor<SixColoring> ex(SixColoring{}, g, random_ids(n, seed));
    const auto result = ex.run(1'000'000);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    const auto colors = to_partial_coloring<SixColoring>(result.outputs);
    EXPECT_TRUE(is_proper_total(g, colors)) << "seed " << seed;
    for (NodeId v = 0; v < n; ++v)
      EXPECT_LE(result.outputs[v]->a + result.outputs[v]->b, 2u);
  }
}

TEST(Threaded, Algorithm5CompletesOnSortedIds) {
  // The extension algorithm under real threads, on the adversarial input:
  // wait-free under split semantics per the checker, so it must finish.
  const NodeId n = 16;
  const Graph g = make_cycle(n);
  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    ThreadedExecutor<SixColoringFast> ex(SixColoringFast{}, g, sorted_ids(n));
    const auto result = ex.run(1'000'000);
    ASSERT_TRUE(result.completed) << "trial " << trial;
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<SixColoringFast>(result.outputs)));
  }
}

TEST(Threaded, Algorithm3SafeAndUsuallyCompletes) {
  // 5 colors under real threads: safety must hold in every run; the
  // theoretical livelock tail means completion is probabilistic, so only
  // properness of whatever terminated is asserted unconditionally.
  int completed = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const NodeId n = 12;
    const Graph g = make_cycle(n);
    ThreadedExecutor<FiveColoringFast> ex(FiveColoringFast{}, g,
                                          random_ids(n, seed));
    const auto result = ex.run(200'000);
    completed += result.completed;
    const auto colors = to_partial_coloring<FiveColoringFast>(result.outputs);
    EXPECT_TRUE(is_proper_partial(g, colors)) << "seed " << seed;
    for (const auto& c : colors) {
      if (c) {
        EXPECT_LE(*c, 4u);
      }
    }
  }
  // OS schedulers are nowhere near phase-locked adversaries: expect all
  // (or nearly all) runs to finish.
  EXPECT_GE(completed, 8);
}

TEST(Threaded, SingleWriterRegistersNeverTear) {
  // Stress the seqlock: Algorithm 5 on a larger cycle with many rounds;
  // a torn read would surface as an invariant break — an improper output
  // or an identifier collision — caught by the final checks.
  const NodeId n = 32;
  const Graph g = make_cycle(n);
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    ThreadedExecutor<SixColoringFast> ex(SixColoringFast{}, g,
                                         random_ids(n, trial + 40));
    const auto result = ex.run(1'000'000);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(is_proper_total(
        g, to_partial_coloring<SixColoringFast>(result.outputs)));
  }
}

TEST(Threaded, ActivationCountsArePlausible) {
  const NodeId n = 8;
  const Graph g = make_cycle(n);
  ThreadedExecutor<SixColoring> ex(SixColoring{}, g, random_ids(n, 1));
  const auto result = ex.run(1'000'000);
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_GE(result.activations[v], 1u);
    // Threads spin fast, but termination still bounds each node's rounds
    // well below the cutoff.
    EXPECT_LT(result.activations[v], 1'000'000u);
  }
}

TEST(Threaded, HealthyRunsNeverTimeOutARead) {
  // The bounded seqlock read must be invisible when every writer is alive:
  // zero degraded reads across a full run.
  const NodeId n = 16;
  const Graph g = make_cycle(n);
  ThreadedExecutor<SixColoring> ex(SixColoring{}, g, random_ids(n, 9));
  const auto result = ex.run(1'000'000);
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(ex.torn_read_timeouts(v), 0u);
  for (NodeId v = 0; v < n; ++v)
    EXPECT_EQ(result.fates[v], NodeFate::terminated);
}

TEST(Threaded, StallMidPublishDegradesToBottomNotLivelock) {
  // A writer dying with the seqlock version odd used to pin its readers in
  // an unbounded spin; now the read times out, degrades to ⊥ (a sleeping
  // neighbour), and the survivors terminate.  Whether a neighbour meets
  // the dead cell at all is the OS's choice: one whose first, deciding
  // activation reads node 0 before node 0's first publish only ever sees
  // ⊥.  So every run checks each neighbour read of node 0 in the event
  // log — ⊥ before the publish, the completed publish, or a timeout, never
  // the odd or torn cell — and each neighbour must take the timeout path
  // in some run.
  const NodeId n = 8;
  const Graph g = make_cycle(n);
  std::uint64_t timeouts_first = 0;
  std::uint64_t timeouts_last = 0;
  for (int run = 0; run < 5; ++run) {
    ThreadedOptions options;
    options.max_read_attempts = 20'000;  // small: force the timeout path fast
    options.faults.push_back(
        {0, ThreadedFault::Kind::stall_mid_publish, 0, 0});
    ThreadedExecutor<SixColoring> ex(SixColoring{}, g, random_ids(n, 3),
                                     options);
    HbLog log;
    ex.attach_hb_log(&log);
    const auto result = ex.run(200'000);
    ASSERT_TRUE(result.completed);  // the stalled node counts as crashed
    EXPECT_EQ(result.fates[0], NodeFate::crashed);
    EXPECT_TRUE(result.crashed[0]);
    EXPECT_FALSE(result.outputs[0].has_value());
    for (const NodeId u : {NodeId{1}, n - 1}) {
      std::uint64_t logged_timeouts = 0;
      for (const HbEvent& e : log.events(u)) {
        if (e.peer != 0) continue;
        if (e.kind == HbEventKind::read_timeout) ++logged_timeouts;
        if (e.kind == HbEventKind::read) {
          EXPECT_TRUE(e.version == 0 || e.version == 2)
              << "node " << u << " read version " << e.version;
        }
      }
      EXPECT_EQ(ex.torn_read_timeouts(u), logged_timeouts);
    }
    timeouts_first += ex.torn_read_timeouts(1);
    timeouts_last += ex.torn_read_timeouts(n - 1);
    const auto colors = to_partial_coloring<SixColoring>(result.outputs);
    EXPECT_TRUE(is_proper_partial(g, colors));
    for (NodeId v = 1; v < n; ++v)
      EXPECT_EQ(result.fates[v], NodeFate::terminated);
  }
  // Its neighbours hit the bounded-read timeout.
  EXPECT_GT(timeouts_first, 0u);
  EXPECT_GT(timeouts_last, 0u);
}

TEST(Threaded, PublishPointCorruptionIsHealedByTheWrapper) {
  // Corrupt a node's first published payload in place (through the full
  // seqlock protocol).  Under Recovering<> the mangled register fails its
  // checksum, readers see ⊥, and the next publish heals it — every run
  // completes with a proper coloring.
  using Wrapped = Recovering<SixColoring>;
  const NodeId n = 8;
  const Graph g = make_cycle(n);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    ThreadedOptions options;
    options.faults.push_back(
        {2, ThreadedFault::Kind::corrupt_words, 0, 0xdeadbeefULL});
    options.faults.push_back(
        {5, ThreadedFault::Kind::corrupt_words, 1, 0x40000001ULL});
    ThreadedExecutor<Wrapped> ex(Wrapped{}, g, random_ids(n, seed), options);
    const auto result = ex.run(1'000'000);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(
        is_proper_total(g, to_partial_coloring<Wrapped>(result.outputs)));
  }
}

TEST(Threaded, CorruptionDueAtTheDecidingPublishIsDropped) {
  // A terminated node's register is final (DESIGN.md §7): a corrupt_words
  // fault due at the publish of the node's deciding round must not land,
  // or its neighbours could only ever read the mangled value.  The node's
  // last register write is therefore its own publish.
  const NodeId n = 3;
  const Graph g = make_cycle(n);
  ThreadedOptions options;
  options.faults.push_back(
      {1, ThreadedFault::Kind::corrupt_words, 0, 0xdeadbeefULL});
  ThreadedExecutor<DecideAtOnce> ex(DecideAtOnce{}, g, {10, 20, 30}, options);
  HbLog log;
  ex.attach_hb_log(&log);
  const auto result = ex.run(16);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.outputs[1], 20u);
  std::optional<HbEvent> last_write;
  for (const HbEvent& e : log.events(1))
    if (e.kind == HbEventKind::publish || e.kind == HbEventKind::adversary)
      last_write = e;
  ASSERT_TRUE(last_write.has_value());
  EXPECT_EQ(last_write->kind, HbEventKind::publish);
  EXPECT_EQ(last_write->words, std::vector<std::uint64_t>{20});
}

}  // namespace
}  // namespace ftcc
