#include "fuzz/shrink.hpp"

#include <algorithm>

namespace ftcc {

namespace {

/// Bounded predicate wrapper: counts checks and hard-stops at the cap.
class Checker {
 public:
  Checker(const FailurePredicate& predicate, std::uint64_t max_checks)
      : predicate_(&predicate), max_checks_(max_checks) {}

  bool fails(const ScheduleArtifact& candidate) {
    if (checks_ >= max_checks_) return false;
    ++checks_;
    return (*predicate_)(candidate);
  }

  [[nodiscard]] bool exhausted() const { return checks_ >= max_checks_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  const FailurePredicate* predicate_;
  std::uint64_t max_checks_;
  std::uint64_t checks_ = 0;
};

/// Truncate to the shortest failing prefix by binary search: replay past
/// the recorded prefix continues synchronously, so failing prefixes are
/// not necessarily monotone — the search is a heuristic first cut, and the
/// chunk pass below cleans up whatever it misses.
void truncate_pass(ScheduleArtifact& best, Checker& check,
                   std::uint64_t& steps_removed) {
  std::size_t lo = 0, hi = best.sigmas.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ScheduleArtifact candidate = best;
    candidate.sigmas.resize(mid);
    if (check.fails(candidate)) {
      steps_removed += best.sigmas.size() - mid;
      best = std::move(candidate);
      hi = mid;
    } else {
      lo = mid + 1;
    }
    hi = std::min(hi, best.sigmas.size());
  }
}

/// ddmin over steps: try deleting chunks of halving size.
bool chunk_pass(ScheduleArtifact& best, Checker& check,
                std::uint64_t& steps_removed) {
  bool changed = false;
  for (std::size_t chunk = std::max<std::size_t>(best.sigmas.size() / 2, 1);
       chunk >= 1; chunk /= 2) {
    for (std::size_t start = 0; start + chunk <= best.sigmas.size();) {
      ScheduleArtifact candidate = best;
      candidate.sigmas.erase(
          candidate.sigmas.begin() + static_cast<std::ptrdiff_t>(start),
          candidate.sigmas.begin() + static_cast<std::ptrdiff_t>(start + chunk));
      if (check.fails(candidate)) {
        steps_removed += chunk;
        best = std::move(candidate);
        changed = true;  // retry same start: the next chunk slid into place
      } else {
        ++start;
      }
      if (check.exhausted()) return changed;
    }
    if (chunk == 1) break;
  }
  return changed;
}

/// Thin activation sets one node at a time.
bool thin_pass(ScheduleArtifact& best, Checker& check,
               std::uint64_t& activations_removed) {
  bool changed = false;
  for (std::size_t t = 0; t < best.sigmas.size(); ++t) {
    for (std::size_t i = 0; i < best.sigmas[t].size();) {
      ScheduleArtifact candidate = best;
      candidate.sigmas[t].erase(candidate.sigmas[t].begin() +
                                static_cast<std::ptrdiff_t>(i));
      if (check.fails(candidate)) {
        ++activations_removed;
        best = std::move(candidate);
        changed = true;
      } else {
        ++i;
      }
      if (check.exhausted()) return changed;
    }
  }
  return changed;
}

/// Drop the entries of one crash or fault list one at a time, so the
/// minimized artifact carries exactly the entries the failure needs.
template <typename List>
bool drop_pass(ScheduleArtifact& best, Checker& check,
               List ScheduleArtifact::*list, std::uint64_t& removed) {
  bool changed = false;
  for (std::size_t i = 0; i < (best.*list).size();) {
    ScheduleArtifact candidate = best;
    (candidate.*list)
        .erase((candidate.*list).begin() + static_cast<std::ptrdiff_t>(i));
    if (check.fails(candidate)) {
      ++removed;
      best = std::move(candidate);
      changed = true;
    } else {
      ++i;
    }
    if (check.exhausted()) return changed;
  }
  return changed;
}

/// Splice single nodes out of the graph, highest index first (so earlier
/// indices — and the artifact's small-id structure — survive).
bool splice_pass(ScheduleArtifact& best, Checker& check, NodeId min_nodes,
                 std::uint64_t& nodes_removed) {
  bool changed = false;
  NodeId v = best.n;
  while (v > 0) {
    --v;
    if (best.n <= min_nodes) break;
    if (v >= best.n) v = best.n - 1;
    ScheduleArtifact candidate = splice_node(best, v);
    if (check.fails(candidate)) {
      ++nodes_removed;
      best = std::move(candidate);
      changed = true;
    }
    if (check.exhausted()) return changed;
  }
  return changed;
}

}  // namespace

ScheduleArtifact splice_node(const ScheduleArtifact& artifact, NodeId v) {
  ScheduleArtifact out = artifact;
  out.n = artifact.n - 1;
  out.ids.erase(out.ids.begin() + static_cast<std::ptrdiff_t>(v));
  const auto remap = [v](NodeId u) { return u > v ? u - 1 : u; };
  out.crash_at_step.clear();
  for (const auto& [u, t] : artifact.crash_at_step)
    if (u != v) out.crash_at_step.emplace_back(remap(u), t);
  out.crash_after_acts.clear();
  for (const auto& [u, k] : artifact.crash_after_acts)
    if (u != v) out.crash_after_acts.emplace_back(remap(u), k);
  out.recoveries.clear();
  for (const auto& r : artifact.recoveries)
    if (r.node != v) out.recoveries.push_back({remap(r.node), r.fault});
  out.corruptions.clear();
  for (const auto& c : artifact.corruptions)
    if (c.node != v) out.corruptions.push_back({remap(c.node), c.fault});
  for (auto& sigma : out.sigmas) {
    std::erase(sigma, v);
    for (NodeId& u : sigma) u = remap(u);
  }
  return out;
}

ShrinkResult shrink_artifact(const ScheduleArtifact& failing,
                             const FailurePredicate& still_fails,
                             const ShrinkOptions& options) {
  ShrinkResult result;
  result.artifact = failing;
  Checker check(still_fails, options.max_checks);
  if (!check.fails(failing)) {
    result.checks = check.checks();
    return result;
  }
  truncate_pass(result.artifact, check, result.steps_removed);
  // Interleave the passes to a fixpoint: shrinking n can unlock step
  // removals and vice versa.
  bool changed = true;
  while (changed && !check.exhausted()) {
    changed = false;
    changed |= chunk_pass(result.artifact, check, result.steps_removed);
    changed |= thin_pass(result.artifact, check, result.activations_removed);
    changed |= drop_pass(result.artifact, check,
                         &ScheduleArtifact::crash_at_step,
                         result.crashes_removed);
    changed |= drop_pass(result.artifact, check,
                         &ScheduleArtifact::crash_after_acts,
                         result.crashes_removed);
    changed |= drop_pass(result.artifact, check,
                         &ScheduleArtifact::recoveries, result.faults_removed);
    changed |= drop_pass(result.artifact, check,
                         &ScheduleArtifact::corruptions, result.faults_removed);
    changed |= splice_pass(result.artifact, check, options.min_nodes,
                           result.nodes_removed);
  }
  result.checks = check.checks();
  return result;
}

}  // namespace ftcc
