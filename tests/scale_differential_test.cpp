// The batch engine's licence to exist: BatchExecutor must be field-for-
// field equal to the sequential Executor under a synchronous full-coverage
// scheduler — completed, steps, activations, outputs, crashed, fates —
// for every graph, identifier assignment, and crash-stop plan on their
// shared domain.  Direct comparisons here pin named topologies up to 10³
// nodes (cycle, torus, star, complete, random CSR, power-law) with and
// without crash plans and under tight budgets; the seeded campaign behind
// tools/fuzz --batched then sweeps the mixed space and must report zero
// mismatches with byte-identical text across reruns.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_plan.hpp"
#include "scale/batch_campaign.hpp"
#include "scale/batch_executor.hpp"
#include "scale/graph_gen.hpp"
#include "sched/schedulers.hpp"
#include "report_digest.hpp"

namespace ftcc {
namespace {

template <typename A>
void expect_equal(const Graph& g, const IdAssignment& ids,
                  const CrashPlan& plan, std::uint64_t max_steps) {
  Executor<A> seq(A{}, g, ids, FaultPlan(plan));
  // σ(t) = all working nodes: the schedule the batch engine specializes.
  SynchronousScheduler sched;
  const auto expected = seq.run(sched, max_steps);
  BatchExecutor<A> batch(g, ids, plan);
  const auto actual = batch.run(max_steps);

  EXPECT_EQ(expected.completed, actual.completed);
  EXPECT_EQ(expected.steps, actual.steps);
  ASSERT_EQ(expected.outputs.size(), actual.outputs.size());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(expected.activations[v], actual.activations[v]) << "node " << v;
    EXPECT_EQ(expected.outputs[v].has_value(), actual.outputs[v].has_value())
        << "node " << v;
    if (expected.outputs[v] && actual.outputs[v]) {
      EXPECT_EQ(*expected.outputs[v], *actual.outputs[v]) << "node " << v;
    }
    EXPECT_EQ(expected.crashed[v], actual.crashed[v]) << "node " << v;
    EXPECT_EQ(expected.fates[v], actual.fates[v])
        << "node " << v << ": seq=" << node_fate_name(expected.fates[v])
        << " batch=" << node_fate_name(actual.fates[v]);
  }
}

/// A deterministic crash plan touching early steps, late steps, and
/// activation counts (k = 0 included: the node never wakes up).
CrashPlan mixed_plan(NodeId n) {
  CrashPlan plan(n);
  plan.crash_at_step(0, 1);
  plan.crash_at_step(n / 2, 3);
  plan.crash_after_activations(1, 0);
  plan.crash_after_activations(n - 1, 2);
  return plan;
}

TEST(ScaleDifferential, CycleUpToAThousandNodes) {
  for (const NodeId n : {16u, 100u, 1000u}) {
    const Graph g = make_cycle(n);
    const IdAssignment ids = permutation_ids(n, n);
    expect_equal<DeltaSquaredColoring>(g, ids, CrashPlan{}, 1u << 12);
    expect_equal<SixColoringFast>(g, ids, CrashPlan{}, 1u << 12);
    expect_equal<DeltaSquaredColoring>(g, ids, mixed_plan(n), 1u << 12);
    expect_equal<SixColoringFast>(g, ids, mixed_plan(n), 1u << 12);
  }
}

TEST(ScaleDifferential, NamedTopologiesWithAndWithoutCrashes) {
  const struct {
    Graph graph;
    const char* name;
  } cases[] = {
      {make_torus(10, 10), "torus"},
      {make_star(48), "star"},
      {make_complete(24), "complete"},
      // Δ = 64, the admission cap that sizes the batch engine's one-byte
      // published components (K₆₅ drives them up to 32).
      {make_star(65), "star, degree 64"},
      {make_complete(65), "complete, degree 64"},
      {make_petersen(), "petersen"},
      {make_random_bounded_degree_csr(500, 6, 13), "random csr"},
      {make_power_law_csr(500, 2.5, 12, 13), "power-law csr"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const NodeId n = c.graph.node_count();
    const IdAssignment ids = permutation_ids(n, 21);
    expect_equal<DeltaSquaredColoring>(c.graph, ids, CrashPlan{}, 1u << 12);
    expect_equal<DeltaSquaredColoring>(c.graph, ids, mixed_plan(n), 1u << 12);
  }
}

TEST(ScaleDifferential, TightBudgetsTimeOutIdentically) {
  const NodeId n = 1000;
  const Graph g = make_cycle(n);
  // Sorted ids conflict everywhere early: small budgets leave a mix of
  // terminated and timed-out nodes, which both sides must agree on.
  for (const std::uint64_t budget : {0u, 1u, 2u, 5u}) {
    expect_equal<DeltaSquaredColoring>(g, sorted_ids(n), CrashPlan{}, budget);
    expect_equal<SixColoringFast>(g, sorted_ids(n), mixed_plan(n), budget);
  }
}

TEST(ScaleDifferential, CampaignFindsNoMismatches) {
  BatchCampaignOptions options;
  options.seed = 2026;
  options.trials = 120;
  const BatchCampaignReport report = run_batch_campaign(options);
  EXPECT_EQ(report.trials, options.trials);
  EXPECT_EQ(report.ok, options.trials);
  for (const auto& m : report.mismatches)
    ADD_FAILURE() << "trial " << m.trial << ": " << m.description;
}

TEST(ScaleDifferential, CampaignCoversGraphsUpToAThousandNodes) {
  BatchCampaignOptions options;
  options.seed = 7;
  options.trials = 20;
  options.n_min = 512;
  options.n_max = 1000;
  const BatchCampaignReport report = run_batch_campaign(options);
  EXPECT_EQ(report.ok, options.trials);
  EXPECT_TRUE(report.mismatches.empty());
}

TEST(ScaleDifferential, CampaignReportIsByteIdentical) {
  BatchCampaignOptions options;
  options.seed = 99;
  options.trials = 40;
  const std::string first = run_batch_campaign(options).text;
  const std::string second = run_batch_campaign(options).text;
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(ScaleDifferential, CampaignReportBytesArePinned) {
  // Golden FNV-1a digest of report.text, recorded before the campaign
  // moved onto the shared trial kernel, when it ran sequentially only.
  BatchCampaignOptions options;
  options.seed = 99;
  options.trials = 40;
  for (const unsigned jobs : {1u, 4u}) {
    options.jobs = jobs;
    EXPECT_EQ(report_digest(run_batch_campaign(options).text),
              0xaf76244f7882d254u)
        << "jobs=" << jobs;
  }
}

TEST(ScaleDifferential, AlgorithmRegistry) {
  const auto& algos = batch_algorithms();
  ASSERT_EQ(algos.size(), 2u);
  EXPECT_TRUE(known_batch_algorithm("delta2"));
  EXPECT_TRUE(known_batch_algorithm("fast6"));
  EXPECT_FALSE(known_batch_algorithm("algo1"));
}

}  // namespace
}  // namespace ftcc
