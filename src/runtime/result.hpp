// The outcome of one simulated execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/coloring.hpp"
#include "graph/graph.hpp"

namespace ftcc {

/// Why a node stopped being (or never became) a source of further work.
enum class NodeFate : std::uint8_t {
  terminated,  ///< returned an output
  crashed,     ///< crash-stop: removed from all future activation sets
  down,        ///< crash-recovery fault still pending when the run ended
  timed_out,   ///< still working when the step budget ran out
};

[[nodiscard]] constexpr const char* node_fate_name(NodeFate f) noexcept {
  switch (f) {
    case NodeFate::terminated: return "terminated";
    case NodeFate::crashed: return "crashed";
    case NodeFate::down: return "down";
    case NodeFate::timed_out: return "timed-out";
  }
  return "?";
}

template <typename Output>
struct ExecutionResult {
  /// True iff every node terminated or crashed within the step budget.
  bool completed = false;
  /// Number of time steps consumed.
  std::uint64_t steps = 0;
  /// Per-node activation counts (activations while working; crashed nodes
  /// keep the count they reached).
  std::vector<std::uint64_t> activations;
  /// Per-node outputs; nullopt = crashed or still working at the budget.
  std::vector<std::optional<Output>> outputs;
  /// Which nodes crashed.
  std::vector<bool> crashed;
  /// Per-node termination reason (empty only for default-constructed
  /// results; the executor always fills it).
  std::vector<NodeFate> fates;

  [[nodiscard]] std::size_t fate_count(NodeFate f) const {
    std::size_t c = 0;
    for (auto x : fates) c += (x == f);
    return c;
  }

  /// Round complexity of the execution: max activations over all nodes.
  [[nodiscard]] std::uint64_t max_activations() const {
    std::uint64_t m = 0;
    for (auto a : activations) m = std::max(m, a);
    return m;
  }

  [[nodiscard]] std::uint64_t total_activations() const {
    std::uint64_t s = 0;
    for (auto a : activations) s += a;
    return s;
  }

  [[nodiscard]] std::size_t terminated_count() const {
    std::size_t c = 0;
    for (const auto& o : outputs) c += o.has_value();
    return c;
  }
};

/// Project outputs to color codes for the coloring checkers.
template <typename A>
PartialColoring to_partial_coloring(
    const std::vector<std::optional<typename A::Output>>& outputs) {
  PartialColoring colors(outputs.size());
  for (std::size_t i = 0; i < outputs.size(); ++i)
    if (outputs[i]) colors[i] = A::color_code(*outputs[i]);
  return colors;
}

}  // namespace ftcc
