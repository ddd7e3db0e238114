// Differential harness for the reduced explorer (DESIGN.md §11): every
// on/off combination of the three reduction layers — compressed state
// store, cycle-symmetry quotient, commuting-activation reduction — is run
// against the unreduced DFS oracle run() on C4/C5, across all five paper
// algorithms and all fault modes.  The equality matrix:
//
//   all layers off            -> byte-identical to run()
//   compress only             -> byte-identical (pure storage change)
//   commute on (no symmetry)  -> identical except transitions and the
//                                identity of the livelock witness
//   symmetry on               -> identical verdicts, colors, translated
//                                worst-case DP and steps; configuration
//                                counts become per-orbit (checked against
//                                the census oracle)
//
// Plus: the connected-subset enumerator against brute force, witness
// validity under each reduction, and worker-count invariance.
#include "modelcheck/explorer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "expected_counts.hpp"
#include "graph/ids.hpp"
#include "modelcheck/reduction.hpp"
#include "runtime/executor.hpp"

namespace ftcc {
namespace {

using testalgo::expect_equal;
using testalgo::Forever;

/// Run the unreduced explorer once, then every 2³ layer combination
/// through run_reduced(), asserting the equality matrix above.
template <typename A>
void differential_matrix(A algo, NodeId n, ActivationMode mode,
                         McFaultMode fault_mode, const IdAssignment& ids) {
  ModelCheckOptions<A> base;
  base.mode = mode;
  base.fault_mode = fault_mode;
  ModelChecker<A> ref_mc(algo, make_cycle(n), ids, base);
  const auto ref = ref_mc.run();
  ASSERT_TRUE(ref.completed);

  for (int combo = 0; combo < 8; ++combo) {
    ModelCheckOptions<A> opt = base;
    opt.reductions.compress = (combo & 1) != 0;
    opt.reductions.symmetry = (combo & 2) != 0;
    opt.reductions.commute = (combo & 4) != 0;
    const bool sym = opt.reductions.symmetry;
    const bool commute =
        opt.reductions.commute && mode == ActivationMode::sets;
    ModelChecker<A> mc(algo, make_cycle(n), ids, opt);
    const auto red = mc.run_reduced(2);
    SCOPED_TRACE("combo=" + std::to_string(combo) +
                 " fault=" + std::to_string(static_cast<int>(fault_mode)));

    // Verdicts are invariant under every layer.
    EXPECT_EQ(red.completed, ref.completed);
    EXPECT_EQ(red.wait_free, ref.wait_free);
    EXPECT_EQ(red.outputs_proper, ref.outputs_proper);
    EXPECT_EQ(red.safety_violation.has_value(),
              ref.safety_violation.has_value());
    if (!ref.safety_violation) {
      // (On aborted runs the traversal order — hence the set of checked
      // configurations — legitimately differs under symmetry.)
      EXPECT_EQ(red.colors_used, ref.colors_used);
    }
    if (ref.wait_free) {
      EXPECT_EQ(red.worst_case_activations, ref.worst_case_activations);
      EXPECT_EQ(red.worst_case_steps, ref.worst_case_steps);
    }
    if (!sym) {
      EXPECT_EQ(red.safety_violation, ref.safety_violation);
      EXPECT_EQ(red.configs, ref.configs);
      EXPECT_EQ(red.terminal_configs, ref.terminal_configs);
    } else {
      EXPECT_LE(red.configs, ref.configs);  // a quotient never grows
    }
    if (!sym && !commute) {
      // Byte-identical contract (all-off and compress-only combos).
      expect_equal(ref, red);
      EXPECT_EQ(red.livelock_prefix, ref.livelock_prefix);
      EXPECT_EQ(red.livelock_loop, ref.livelock_loop);
    }
    if (commute) {
      EXPECT_LE(red.transitions, ref.transitions);
    }
    if (opt.reductions.compress) {
      EXPECT_GT(red.store_entries, 0u);
    }
  }
}

TEST(Differential, AllFiveAlgorithmsAllFaultModesC4) {
  const IdAssignment ids = random_ids(4, 2026);
  const IdAssignment ids3 = random_ids(3, 2026);
  for (auto fm : {McFaultMode::none, McFaultMode::crash_stop,
                  McFaultMode::crash_recovery}) {
    differential_matrix(SixColoring{}, 4, ActivationMode::sets, fm, ids);
    differential_matrix(FiveColoringLinear{}, 4, ActivationMode::sets, fm,
                        ids);
    // Algorithm 3's unreduced configuration graph already exceeds the 4M
    // budget fault-free on C4 (the whole reason the reductions exist); its
    // differential leg runs on C3 where exhaustion completes.
    differential_matrix(FiveColoringFast{}, 3, ActivationMode::sets, fm,
                        ids3);
    differential_matrix(DeltaSquaredColoring{}, 4, ActivationMode::sets, fm,
                        ids);
    differential_matrix(SixColoringFast{}, 4, ActivationMode::sets, fm, ids);
  }
}

TEST(Differential, SixColoringC5AllFaultModes) {
  const IdAssignment ids = random_ids(5, 7);
  for (auto fm : {McFaultMode::none, McFaultMode::crash_stop,
                  McFaultMode::crash_recovery})
    differential_matrix(SixColoring{}, 5, ActivationMode::sets, fm, ids);
}

TEST(Differential, SingletonAndSplitSemantics) {
  const IdAssignment ids = random_ids(5, 11);
  differential_matrix(SixColoring{}, 5, ActivationMode::singletons,
                      McFaultMode::none, ids);
  ModelCheckOptions<SixColoring> base;
  base.mode = ActivationMode::sets;
  base.atomicity = Atomicity::split;
  ModelChecker<SixColoring> ref_mc(SixColoring{}, make_cycle(4),
                                   random_ids(4, 3), base);
  const auto ref = ref_mc.run();
  for (int combo = 0; combo < 8; ++combo) {
    ModelCheckOptions<SixColoring> opt = base;
    opt.reductions.compress = (combo & 1) != 0;
    opt.reductions.symmetry = (combo & 2) != 0;
    opt.reductions.commute = (combo & 4) != 0;
    ModelChecker<SixColoring> mc(SixColoring{}, make_cycle(4),
                                 random_ids(4, 3), opt);
    const auto red = mc.run_reduced(2);
    EXPECT_EQ(red.wait_free, ref.wait_free);
    EXPECT_EQ(red.colors_used, ref.colors_used);
    if (ref.wait_free) {
      EXPECT_EQ(red.worst_case_activations, ref.worst_case_activations);
      EXPECT_EQ(red.worst_case_steps, ref.worst_case_steps);
    }
  }
}

TEST(Differential, SafetyViolationSurvivesEveryCombo) {
  const IdAssignment ids = {10, 20, 30, 40};
  for (int combo = 0; combo < 8; ++combo) {
    ModelCheckOptions<testalgo::ConstantColor> opt;
    opt.mode = ActivationMode::sets;
    opt.reductions.compress = (combo & 1) != 0;
    opt.reductions.symmetry = (combo & 2) != 0;
    opt.reductions.commute = (combo & 4) != 0;
    ModelChecker<testalgo::ConstantColor> mc(testalgo::ConstantColor{},
                                             make_cycle(4), ids, opt);
    const auto r = mc.run_reduced(2);
    EXPECT_FALSE(r.outputs_proper);
    ASSERT_TRUE(r.safety_violation.has_value());
    EXPECT_NE(r.safety_violation->find("improper"), std::string::npos);
  }
}

TEST(Differential, CensusOracleMatchesSymmetryQuotient) {
  // The number of D_n classes among the configurations of an UNREDUCED
  // exploration (census layer) must equal the number of configurations a
  // symmetry-quotient exploration stores — the two count the same orbits
  // from opposite directions.
  // A rotation-invariant id sequence (period 2): the instance has genuine
  // D_4 symmetry, so the quotient strictly shrinks the space.  Adjacent
  // ids stay distinct, which is all the algorithms' steps inspect.
  const IdAssignment ids = {5, 9, 5, 9};
  for (auto fm : {McFaultMode::none, McFaultMode::crash_stop,
                  McFaultMode::crash_recovery}) {
    ModelCheckOptions<SixColoring> census_opt;
    census_opt.mode = ActivationMode::sets;
    census_opt.fault_mode = fm;
    census_opt.reductions.census = true;
    ModelChecker<SixColoring> census_mc(SixColoring{}, make_cycle(4), ids,
                                        census_opt);
    const auto census = census_mc.run_reduced(2);

    ModelCheckOptions<SixColoring> sym_opt = census_opt;
    sym_opt.reductions.census = false;
    sym_opt.reductions.symmetry = true;
    ModelChecker<SixColoring> sym_mc(SixColoring{}, make_cycle(4), ids,
                                     sym_opt);
    const auto sym = sym_mc.run_reduced(2);

    EXPECT_EQ(sym.configs, census.canonical_classes);
    EXPECT_EQ(sym.canonical_classes, census.canonical_classes);
    // A symmetric instance actually quotients: fewer stored than raw.
    EXPECT_LT(sym.configs, census.configs);
    EXPECT_GT(sym.sym_hits, 0u);
  }
}

TEST(Differential, SymmetricForeverQuotientIsExact) {
  // Forever on C3 with equal ids: configurations are exactly the subsets
  // of published registers — 2³ = 8 raw, 4 orbits under D_3 (by subset
  // size).  A fully hand-checkable quotient.
  const IdAssignment ids = {5, 5, 5};
  ModelCheckOptions<Forever> opt;
  opt.mode = ActivationMode::sets;
  ModelChecker<Forever> raw_mc(Forever{}, make_cycle(3), ids, opt);
  const auto raw = raw_mc.run();
  EXPECT_EQ(raw.configs, 8u);

  opt.reductions.symmetry = true;
  ModelChecker<Forever> sym_mc(Forever{}, make_cycle(3), ids, opt);
  const auto sym = sym_mc.run_reduced(1);
  EXPECT_EQ(sym.configs, 4u);
  EXPECT_FALSE(sym.wait_free);
  EXPECT_EQ(sym.wait_free, raw.wait_free);
}

TEST(Differential, ReducedWorkerCountInvariance) {
  // Identical results — including the engine instrumentation fields — for
  // every worker count, with all layers on.
  ModelCheckOptions<SixColoring> opt;
  opt.mode = ActivationMode::sets;
  opt.fault_mode = McFaultMode::crash_stop;
  opt.reductions.compress = true;
  opt.reductions.symmetry = true;
  opt.reductions.commute = true;
  ModelChecker<SixColoring> mc(SixColoring{}, make_cycle(4),
                               alternating_ids(4), opt);
  const auto one = mc.run_reduced(1);
  const auto four = mc.run_reduced(4);
  expect_equal(one, four);
  EXPECT_EQ(one.store_entries, four.store_entries);
  EXPECT_EQ(one.sym_hits, four.sym_hits);
  EXPECT_EQ(one.commute_skipped, four.commute_skipped);
  EXPECT_EQ(one.canonical_classes, four.canonical_classes);
}

// ---- Connected-subset enumeration vs brute force. ----------------------

bool brute_connected(const std::vector<std::uint32_t>& adj,
                     std::uint32_t set) {
  if (set == 0) return false;
  std::uint32_t seen = 1u << std::countr_zero(set);
  bool grew = true;
  while (grew) {
    grew = false;
    for (NodeId v = 0; v < adj.size(); ++v) {
      if (!((set >> v) & 1u) || ((seen >> v) & 1u)) continue;
      if (adj[v] & seen) {
        seen |= 1u << v;
        grew = true;
      }
    }
  }
  return seen == set;
}

TEST(Differential, ConnectedEnumerationMatchesBruteForce) {
  for (NodeId n : {3u, 4u, 5u, 6u, 8u}) {
    const auto adj = adjacency_masks(make_cycle(n));
    const std::uint32_t all = (1u << n) - 1;
    for (std::uint32_t candidates : {all, all & ~1u, 0x5u & all}) {
      std::set<std::uint32_t> enumerated;
      std::uint64_t emitted = 0;
      for_each_connected_subset(adj, candidates, [&](std::uint32_t s) {
        ++emitted;
        enumerated.insert(s);
      });
      EXPECT_EQ(emitted, enumerated.size()) << "duplicate emission";
      std::set<std::uint32_t> expected;
      for (std::uint32_t s = 1; s <= candidates; ++s)
        if ((s & candidates) == s && brute_connected(adj, s))
          expected.insert(s);
      EXPECT_EQ(enumerated, expected)
          << "n=" << n << " candidates=" << candidates;
    }
    // On the full cycle the connected sets are the contiguous arcs:
    // n(n-1) proper arcs plus the full cycle — n² - n + 1.
    EXPECT_EQ(connected_subset_count(adj, all),
              static_cast<std::uint64_t>(n) * (n - 1) + 1);
  }
}

TEST(Differential, CommuteWitnessSetsAreConnected) {
  // The commuting-activation reduction must report witnesses built from
  // the reduced transition relation only: every non-fault entry is a
  // connected activation set.
  ModelCheckOptions<Forever> opt;
  opt.mode = ActivationMode::sets;
  opt.reductions.commute = true;
  ModelChecker<Forever> mc(Forever{}, make_cycle(5), random_ids(5, 1), opt);
  const auto r = mc.run_reduced(2);
  ASSERT_FALSE(r.wait_free);
  ASSERT_FALSE(r.livelock_loop.empty());
  const auto adj = adjacency_masks(make_cycle(5));
  for (const auto mask : r.livelock_prefix) {
    if (!(mask & kWitnessFaultFlag)) {
      EXPECT_TRUE(brute_connected(adj, mask));
    }
  }
  for (const auto mask : r.livelock_loop) {
    ASSERT_FALSE((mask & kWitnessFaultFlag) != 0u);
    EXPECT_TRUE(brute_connected(adj, mask));
  }
}

TEST(Differential, SymmetryWitnessReplaysThroughExecutor) {
  // Witness coordinates under the quotient are translated back into the
  // ORIGINAL instance via the per-edge permutations, with the loop
  // unrolled until its D_n automorphism closes.  Certify end-to-end: the
  // replayed loop leaves the real executor in an identical snapshot.
  const NodeId n = 3;
  const IdAssignment ids = {10, 20, 30};
  ModelCheckOptions<FiveColoringLinear> opt;
  opt.mode = ActivationMode::sets;
  opt.reductions.symmetry = true;
  opt.reductions.compress = true;
  ModelChecker<FiveColoringLinear> mc(FiveColoringLinear{}, make_cycle(n),
                                      ids, opt);
  const auto r = mc.run_reduced(2);
  ASSERT_FALSE(r.wait_free);
  ASSERT_FALSE(r.livelock_loop.empty());

  const Graph g = make_cycle(n);
  Executor<FiveColoringLinear> ex(FiveColoringLinear{}, g, ids);
  for (const auto& sigma : witness_to_schedule(r.livelock_prefix, n))
    ex.step(sigma);
  const auto loop = witness_to_schedule(r.livelock_loop, n);
  ASSERT_FALSE(loop.empty());

  auto snapshot = [&ex, n]() {
    std::vector<std::uint64_t> snap;
    for (NodeId v = 0; v < n; ++v) {
      ex.state(v).encode(snap);
      snap.push_back(ex.has_terminated(v));
      if (ex.published(v)) ex.published(v)->encode(snap);
    }
    return snap;
  };
  const auto before = snapshot();
  std::size_t loop_activations = 0;
  for (int lap = 0; lap < 20; ++lap) {
    for (const auto& sigma : loop) loop_activations += ex.step(sigma);
    ASSERT_EQ(snapshot(), before) << "lap " << lap;
  }
  EXPECT_GE(loop_activations, 20u * loop.size());
}

}  // namespace
}  // namespace ftcc
