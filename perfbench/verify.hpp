// The per-request verdict of the colouring workloads.  A colouring is
// accepted only if every node terminated, every output pair lies in
// Algorithm 4's palette {(a, b) : a + b <= Δ}, and no edge is
// monochromatic — so a faster but wrong change to the batch engine loses
// on the failure share instead of winning on latency.
#pragma once

#include <cstdint>

#include "core/color.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "runtime/result.hpp"

namespace perfbench {

enum class Verdict { ok, incomplete, out_of_palette, improper };

[[nodiscard]] inline const char* verdict_name(Verdict v) noexcept {
  switch (v) {
    case Verdict::ok: return "ok";
    case Verdict::incomplete: return "incomplete";
    case Verdict::out_of_palette: return "out-of-palette";
    case Verdict::improper: return "improper";
  }
  return "?";
}

[[nodiscard]] inline Verdict check_colouring(
    const ftcc::Graph& g, const ftcc::ExecutionResult<ftcc::PairColor>& r) {
  const ftcc::NodeId n = g.node_count();
  if (!r.completed || r.outputs.size() != n) return Verdict::incomplete;
  const auto delta = static_cast<std::uint64_t>(g.max_degree());
  ftcc::PartialColoring codes(n);
  for (ftcc::NodeId v = 0; v < n; ++v) {
    const auto& out = r.outputs[v];
    if (!out) return Verdict::incomplete;
    // a + b <= Δ without overflow; it also bounds both components far
    // below the 2^20 that PairColor::code() needs to stay injective.
    if (out->a > delta || out->b > delta - out->a)
      return Verdict::out_of_palette;
    codes[v] = out->code();
  }
  return ftcc::is_proper_total(g, codes) ? Verdict::ok : Verdict::improper;
}

}  // namespace perfbench
