// Runtime invariant monitors, installed into an Executor and checked after
// every time step of every execution they are attached to.
//
// Each monitor is written once and sees through the Recovering<> wrapper
// (core/recovering.hpp): under it a register may be *veiled* (deliberately
// invalid checksum — semantically ⊥), *tainted* (the adversary's bytes,
// not the algorithm's), or authentic, and only the authentic untainted
// ones carry a Lemma 4.5 claim.  The monitors apply the filtering a
// Recovering reader applies and read the wrapped algorithm's inner state,
// so they check precisely the registers the wrapped algorithms act on.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>

#include "core/algo1_six_coloring.hpp"
#include "core/algo2_five_coloring.hpp"
#include "core/algo3_fast_five_coloring.hpp"
#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/recovering.hpp"
#include "runtime/executor.hpp"

namespace ftcc {

/// The palette rule the candidate monitors check: each candidate's mex is
/// over at most `bound` values, and `ordered` algorithms keep a_p <= b_p.
struct CandidateRule {
  std::uint64_t bound = 0;
  bool ordered = false;
};

/// The rule per algorithm type; a wrapped algorithm keeps its inner one
/// (a wipe re-inits the candidates, so no veiled exemption is needed).
/// The primary template names a member no algorithm has, so an algorithm
/// without a declared rule does not compile.
template <typename A>
inline constexpr CandidateRule kCandidateRule = A::kNoCandidateRuleDeclared;
template <>
inline constexpr CandidateRule kCandidateRule<SixColoring> = {2, false};
template <>
inline constexpr CandidateRule kCandidateRule<FiveColoringLinear> = {4, true};
template <>
inline constexpr CandidateRule kCandidateRule<FiveColoringFast> = {4, true};
template <>
inline constexpr CandidateRule kCandidateRule<DeltaSquaredColoring> = {
    2, false};
template <>
inline constexpr CandidateRule kCandidateRule<SixColoringFast> = {2, false};
template <typename A>
inline constexpr CandidateRule kCandidateRule<Recovering<A>> =
    kCandidateRule<A>;

/// The identifier a register carries for Lemma 4.5: nullopt for ⊥ and,
/// under Recovering<>, for a register that fails its checksum.
template <Algorithm A>
std::optional<std::uint64_t> monitored_x(
    const std::optional<typename A::Register>& reg) {
  if (!reg) return std::nullopt;
  if constexpr (is_recovering_v<A>) {
    if (!A::authentic(*reg)) return std::nullopt;
    return reg->inner.x;
  } else {
    return reg->x;
  }
}

/// The algorithm state the candidate monitors read: the inner state under
/// Recovering<>.
template <Algorithm A>
const auto& monitored_state(const Executor<A>& ex, NodeId v) {
  if constexpr (is_recovering_v<A>)
    return ex.state(v).inner;
  else
    return ex.state(v);
}

/// Lemma 4.5 (and trivially for fixed-identifier algorithms): the published
/// identifiers X̂ always properly color the graph — two adjacent non-⊥
/// registers never hold equal x.  Also checks a node's private x against
/// its neighbours' published x, the stronger form the proof establishes.
///
/// Registers the fault adversary wrote (register_tainted) are skipped: the
/// lemma is a statement about what the *algorithm* publishes, and a tainted
/// register holds the adversary's bytes until its owner republishes.  In
/// fault-free runs nothing is ever tainted, so this is the original check.
///
/// Under Recovering<> only authentic registers count, and the
/// private-vs-published form is deliberately absent: after a crash-recovery
/// wipe the private inner state is a placeholder until the adoption round
/// runs, so comparing it against neighbours' published identifiers is
/// transiently meaningless.
template <Algorithm A>
typename Executor<A>::Invariant proper_identifier_invariant() {
  return [](const Executor<A>& ex) -> std::optional<std::string> {
    const Graph& g = ex.graph();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (ex.register_tainted(v)) continue;
      for (NodeId u : g.neighbors(v)) {
        if (u < v || ex.register_tainted(u)) continue;
        const auto xv = monitored_x<A>(ex.published(v));
        const auto xu = monitored_x<A>(ex.published(u));
        if (xv && xu && *xv == *xu) {
          std::ostringstream os;
          os << (is_recovering_v<A> ? "authentic " : "")
             << "published identifiers collide on edge (" << v << "," << u
             << "): X=" << *xv << " at step " << ex.now();
          return os.str();
        }
        if constexpr (!is_recovering_v<A>) {
          // Private-vs-published form: X_p(t) != X̂_q(t).
          if (xu && ex.state(v).x == *xu) {
            std::ostringstream os;
            os << "private X of " << v << " equals published X of neighbour "
               << u << " (X=" << *xu << ") at step " << ex.now();
            return os.str();
          }
          if (xv && ex.state(u).x == *xv) {
            std::ostringstream os;
            os << "private X of " << u << " equals published X of neighbour "
               << v << " (X=" << *xv << ") at step " << ex.now();
            return os.str();
          }
        }
      }
    }
    return std::nullopt;
  };
}

/// Algorithms 2/3 maintain a_p <= b_p (C+ ⊆ C implies mex(C+) <= mex(C)) —
/// the ordering Lemma 3.13's parity argument relies on.  Mex monotonicity
/// survives a crash-recovery wipe: init restores a = b = 0.
template <Algorithm A>
typename Executor<A>::Invariant candidates_ordered_invariant() {
  return [](const Executor<A>& ex) -> std::optional<std::string> {
    for (NodeId v = 0; v < ex.graph().node_count(); ++v) {
      const auto& s = monitored_state(ex, v);
      if (s.a > s.b) {
        std::ostringstream os;
        os << "candidate order violated at node " << v << ": a=" << s.a
           << " > b=" << s.b << " at step " << ex.now();
        return os.str();
      }
    }
    return std::nullopt;
  };
}

/// Color candidates stay within {0, ..., bound} (palette boundedness while
/// running, not just at output time).
template <Algorithm A>
typename Executor<A>::Invariant candidates_bounded_invariant(
    std::uint64_t bound) {
  return [bound](const Executor<A>& ex) -> std::optional<std::string> {
    for (NodeId v = 0; v < ex.graph().node_count(); ++v) {
      const auto& s = monitored_state(ex, v);
      if (s.a > bound || s.b > bound) {
        std::ostringstream os;
        os << "candidate out of palette at node " << v << ": a=" << s.a
           << " b=" << s.b << " bound=" << bound << " at step " << ex.now();
        return os.str();
      }
    }
    return std::nullopt;
  };
}

/// Outputs of already-terminated neighbours never collide — the paper's
/// correctness condition, enforced continuously rather than post-hoc.
template <Algorithm A>
typename Executor<A>::Invariant output_properness_invariant() {
  return [](const Executor<A>& ex) -> std::optional<std::string> {
    const Graph& g = ex.graph();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!ex.output(v)) continue;
      for (NodeId u : g.neighbors(v)) {
        if (u < v || !ex.output(u)) continue;
        if (A::color_code(*ex.output(v)) == A::color_code(*ex.output(u))) {
          std::ostringstream os;
          os << "terminated neighbours " << v << " and " << u
             << " output the same color at step " << ex.now();
          return os.str();
        }
      }
    }
    return std::nullopt;
  };
}

}  // namespace ftcc
