// Fault containment metrics (experiment E20).
//
// Given one schedule and one fault plan, run the execution twice — once
// fault-free (the reference), once with the plan — and measure how far the
// damage spread:
//
//   corruption radius — the maximum BFS distance (in hops) from any
//     faulted node to a node whose *decision* (output color, or whether it
//     decided at all) differs from the reference run.  Radius 0 means the
//     faults stayed confined to the faulted nodes themselves; -1 means no
//     decision changed anywhere.
//
//   recovery cost — the extra work the system performed to re-quiesce:
//     faulty-run total activations minus reference total (negative if the
//     faults removed work, e.g. a crashed node stops activating).
//
// Both executions replay the same σ prefix (ReplayScheduler) and then let
// every remaining working node run, so the comparison is schedule-for-
// schedule, not run-vs-run noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_plan.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {

struct ContainmentReport {
  /// Nodes whose decision differs from the fault-free reference run.
  std::vector<NodeId> changed;
  /// Nodes the plan targets (crash-stop, recovery, or corruption).
  std::vector<NodeId> faulted;
  /// max hops(faulted -> changed); 0 = confined to the faulted nodes,
  /// -1 = no decision changed (or nothing was faulted).
  int radius = -1;
  /// Faulty-run total activations minus reference total.
  std::int64_t extra_activations = 0;
  /// Faulty-run steps minus reference steps.
  std::int64_t extra_steps = 0;
  bool faulty_completed = false;
  bool reference_completed = false;
};

/// Nodes a FaultPlan can touch, for radius sources.
inline std::vector<NodeId> faulted_nodes(const FaultPlan& plan, NodeId n) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    const bool crash_stop = plan.crashes_at(v, ~std::uint64_t{0} - 1,
                                            ~std::uint64_t{0} - 1);
    if (crash_stop || plan.recovery(v) || !plan.corruptions(v).empty())
      out.push_back(v);
  }
  return out;
}

/// Multi-source BFS distance from `sources`; kUnreached where unreachable.
inline std::vector<std::uint64_t> hop_distances(
    const Graph& g, const std::vector<NodeId>& sources) {
  constexpr auto kUnreached = ~std::uint64_t{0};
  std::vector<std::uint64_t> dist(g.node_count(), kUnreached);
  std::queue<NodeId> frontier;
  for (NodeId s : sources) {
    dist[s] = 0;
    frontier.push(s);
  }
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] != kUnreached) continue;
      dist[u] = dist[v] + 1;
      frontier.push(u);
    }
  }
  return dist;
}

template <Algorithm A>
ContainmentReport measure_containment(
    A algo, const Graph& graph, const IdAssignment& ids, const FaultPlan& plan,
    const std::vector<std::vector<NodeId>>& sigmas, std::uint64_t max_steps) {
  const auto run_once = [&](FaultPlan p) {
    Executor<A> ex(algo, graph, ids, std::move(p));
    ReplayScheduler sched(sigmas);
    return ex.run(sched, max_steps);
  };
  const auto reference = run_once(FaultPlan{});
  const auto faulty = run_once(plan);

  ContainmentReport report;
  report.faulted = faulted_nodes(plan, graph.node_count());
  report.reference_completed = reference.completed;
  report.faulty_completed = faulty.completed;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto& a = reference.outputs[v];
    const auto& b = faulty.outputs[v];
    const bool same = (!a && !b) ||
                      (a && b && A::color_code(*a) == A::color_code(*b));
    if (!same) report.changed.push_back(v);
  }
  report.extra_activations =
      static_cast<std::int64_t>(faulty.total_activations()) -
      static_cast<std::int64_t>(reference.total_activations());
  report.extra_steps = static_cast<std::int64_t>(faulty.steps) -
                       static_cast<std::int64_t>(reference.steps);
  if (!report.changed.empty() && !report.faulted.empty()) {
    const auto dist = hop_distances(graph, report.faulted);
    std::uint64_t radius = 0;
    for (NodeId v : report.changed)
      if (dist[v] != ~std::uint64_t{0}) radius = std::max(radius, dist[v]);
    report.radius = static_cast<int>(radius);
  }
  return report;
}

}  // namespace ftcc
