// Campaign algorithm dispatch: maps the campaign's algorithm names
// ("six", "five", "fast5", "delta2", "fast6" — see campaign_algorithms())
// to concrete algorithm instances, optionally wrapped in the Recovering<>
// self-healing layer, and draws the trial shape (algorithm, graph,
// identifiers) every campaign trial starts from.  Shared by the
// schedule-fuzzing campaign (fuzz/campaign.cpp), the threaded certify
// campaign (fuzz/certify_campaign.cpp), the multi-process campaign
// (dist/dist_campaign.cpp), and tools/race.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/recovering.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

/// Dispatch by campaign algorithm name; f receives the algorithm instance
/// (wrapped in Recovering<> when `wrapped`), its mid-run palette component
/// bound (each candidate's mex is over at most `bound` values), and
/// whether it maintains a_p <= b_p.
template <typename F>
auto with_campaign_algorithm(const std::string& name, bool wrapped, F&& f) {
  const auto dispatch = [&](auto algo, std::uint64_t bound, bool ordered) {
    if (wrapped) return f(Recovering<decltype(algo)>{}, bound, ordered);
    return f(std::move(algo), bound, ordered);
  };
  if (name == "six") return dispatch(SixColoring{}, std::uint64_t{2}, false);
  if (name == "five")
    return dispatch(FiveColoringLinear{}, std::uint64_t{4}, true);
  if (name == "fast5")
    return dispatch(FiveColoringFast{}, std::uint64_t{4}, true);
  if (name == "delta2")
    return dispatch(DeltaSquaredColoring{}, std::uint64_t{2}, false);
  FTCC_EXPECTS(name == "fast6" && "unknown campaign algorithm");
  return dispatch(SixColoringFast{}, std::uint64_t{2}, false);
}

/// What a campaign trial runs on, before any faults or scheduler.
struct TrialShape {
  std::string algo;
  std::string graph_kind;  ///< "cycle" or "path"
  NodeId n = 0;
  IdAssignment ids;
  std::string ids_family;

  [[nodiscard]] Graph graph() const {
    return graph_kind == "path" ? make_path(n) : make_cycle(n);
  }
};

/// Draw a trial's shape, the first draws of its trial stream.  Every
/// campaign's seed contract (report bytes, decision digests) rests on
/// this exact consumption order, so it lives in one place.
inline void draw_trial_shape(const std::vector<std::string>& algos,
                             NodeId n_min, NodeId n_max, Xoshiro256& rng,
                             TrialShape& shape) {
  shape.algo = algos[rng.below(algos.size())];
  shape.n = n_min + static_cast<NodeId>(rng.below(n_max - n_min + 1u));
  // Algorithm 2 is the one specified for paths as well as cycles (§2.1).
  shape.graph_kind =
      (shape.algo == "five" && rng.chance(0.25)) ? "path" : "cycle";
  switch (rng.below(5)) {
    case 0:
      shape.ids = random_ids(shape.n, rng());
      shape.ids_family = "random";
      break;
    case 1:
      shape.ids = sorted_ids(shape.n);
      shape.ids_family = "sorted";
      break;
    case 2:
      shape.ids = alternating_ids(shape.n);
      shape.ids_family = "alternating";
      break;
    case 3: {
      const NodeId run = 1 + static_cast<NodeId>(rng.below(shape.n - 1));
      shape.ids = zigzag_ids(shape.n, run);
      shape.ids_family = "zigzag(" + std::to_string(run) + ")";
      break;
    }
    default:
      shape.ids = permutation_ids(shape.n, rng());
      shape.ids_family = "perm";
      break;
  }
}

}  // namespace ftcc
