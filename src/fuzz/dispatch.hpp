// Campaign algorithm dispatch: maps the campaign's algorithm names
// ("six", "five", "fast5", "delta2", "fast6" — see campaign_algorithms())
// to concrete algorithm instances, optionally wrapped in the Recovering<>
// self-healing layer, and draws the trial shape (graph/trial_shape.hpp:
// algorithm, graph, identifiers) every campaign trial starts from.
// Shared by the schedule-fuzzing campaign (fuzz/campaign.cpp), the
// threaded certify campaign (fuzz/certify_campaign.cpp), the
// multi-process campaign (dist/dist_campaign.cpp), tools/race and
// tools/mc.  What the monitors check per algorithm (its candidate rule)
// lives beside them, in analysis/invariants.hpp.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/recovering.hpp"
#include "graph/ids.hpp"
#include "graph/trial_shape.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

/// Dispatch on an algorithm name (one of campaign_algorithms()); f
/// receives the algorithm instance.
template <typename F>
auto with_algorithm(const std::string& name, F&& f) {
  if (name == "six") return f(SixColoring{});
  if (name == "five") return f(FiveColoringLinear{});
  if (name == "fast5") return f(FiveColoringFast{});
  if (name == "delta2") return f(DeltaSquaredColoring{});
  FTCC_EXPECTS(name == "fast6" && "unknown campaign algorithm");
  return f(SixColoringFast{});
}

/// Dispatch on a trial shape's algorithm name; f receives the algorithm
/// instance, wrapped in Recovering<> when shape.wrapped.
template <typename F>
auto with_campaign_algorithm(const TrialShape& shape, F&& f) {
  return with_algorithm(shape.algo, [&](auto algo) {
    if (shape.wrapped) return f(Recovering<decltype(algo)>{});
    return f(std::move(algo));
  });
}

/// Draw a trial's shape (all of it but `wrapped`, which is the caller's),
/// the first draws of its trial stream, and return the name of the
/// identifier family drawn, for the report line.  Every campaign's seed
/// contract (report bytes, decision digests) rests on this exact
/// consumption order, so it lives in one place.
inline std::string draw_trial_shape(const std::vector<std::string>& algos,
                                    NodeId n_min, NodeId n_max,
                                    Xoshiro256& rng, TrialShape& shape) {
  shape.algo = algos[rng.below(algos.size())];
  shape.n = n_min + static_cast<NodeId>(rng.below(n_max - n_min + 1u));
  // Algorithm 2 is the one specified for paths as well as cycles (§2.1).
  shape.graph_kind =
      (shape.algo == "five" && rng.chance(0.25)) ? "path" : "cycle";
  switch (rng.below(5)) {
    case 0:
      shape.ids = random_ids(shape.n, rng());
      return "random";
    case 1:
      shape.ids = sorted_ids(shape.n);
      return "sorted";
    case 2:
      shape.ids = alternating_ids(shape.n);
      return "alternating";
    case 3: {
      const NodeId run = 1 + static_cast<NodeId>(rng.below(shape.n - 1));
      shape.ids = zigzag_ids(shape.n, run);
      return "zigzag(" + std::to_string(run) + ")";
    }
    default:
      shape.ids = permutation_ids(shape.n, rng());
      return "perm";
  }
}

}  // namespace ftcc
