#include "scale/graph_gen.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

/// True iff {u, v} (u < v) is an edge of the cycle backbone 0-1-...-(n-1)-0.
bool ring_adjacent(NodeId u, NodeId v, NodeId n) {
  return v == u + 1 || (u == 0 && v == n - 1);
}

/// A chord {u, v} of the backbone, stored as drawn (duplicates included).
using Chord = std::pair<NodeId, NodeId>;

/// Assemble the CSR pair from the backbone plus accepted chords.  `deg`
/// is the sampler's eager count (2 + chords drawn at the node, duplicates
/// included), so it sizes every row's bucket exactly: one prefix sum, one
/// cursor fill.  Each row is then its two backbone entries followed by its
/// chord neighbours sorted and deduplicated in place (at most Δ−2 entries,
/// so the sort is a few compares), and a compaction pass closes the gaps
/// that duplicates left.  A duplicate only ever *lowers* a degree below
/// what the sampler accounted for, so the cap survives dedup.
Graph csr_from_ring_and_chords(NodeId n, const std::vector<std::uint8_t>& deg,
                               const std::vector<Chord>& chords) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + deg[v];
  std::vector<NodeId> adjacency(offsets[n]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId u = (v + 1) % n;
    adjacency[cursor[v]++] = u;
    adjacency[cursor[u]++] = v;
  }
  for (const auto& [u, v] : chords) {
    adjacency[cursor[u]++] = v;
    adjacency[cursor[v]++] = u;
  }
  std::size_t out = 0;
  for (NodeId v = 0; v < n; ++v) {
    NodeId* const row = adjacency.data() + offsets[v];
    NodeId* const row_end = adjacency.data() + offsets[v + 1];
    std::sort(row + 2, row_end);
    NodeId* const kept = std::unique(row + 2, row_end);
    if (out != offsets[v]) std::copy(row, kept, adjacency.data() + out);
    offsets[v] = out;
    out += static_cast<std::size_t>(kept - row);
  }
  offsets[n] = out;
  adjacency.resize(out);
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency));
}

}  // namespace

Graph make_random_bounded_degree_csr(NodeId n, int max_degree,
                                     std::uint64_t seed) {
  FTCC_EXPECTS(n >= 3);
  FTCC_EXPECTS(max_degree >= 2 && max_degree <= 64);
  Xoshiro256 rng(seed);
  // Eager degree accounting: a draw is charged against the cap the moment
  // it is accepted, so the cap holds even before dedup (duplicates can
  // only waste budget, never exceed it).
  std::vector<std::uint8_t> deg(n, 2);
  std::vector<Chord> chords;
  const std::size_t budget = static_cast<std::size_t>(n) *
                             static_cast<std::size_t>(max_degree - 2) / 2;
  chords.reserve(budget);
  // 4x oversampling of the chord budget bounds construction at
  // O(n * max_degree) draws, mirroring make_random_bounded_degree.
  const std::size_t attempts = budget * 4;
  for (std::size_t i = 0; i < attempts; ++i) {
    const NodeId a = static_cast<NodeId>(rng.below(n));
    const NodeId b = static_cast<NodeId>(rng.below(n));
    if (a == b) continue;
    const NodeId u = std::min(a, b);
    const NodeId v = std::max(a, b);
    if (ring_adjacent(u, v, n)) continue;
    if (deg[u] >= max_degree || deg[v] >= max_degree) continue;
    ++deg[u];
    ++deg[v];
    chords.emplace_back(u, v);
  }
  return csr_from_ring_and_chords(n, deg, chords);
}

Graph make_torus_csr(NodeId rows, NodeId cols) {
  FTCC_EXPECTS(rows >= 3 && cols >= 3);
  FTCC_EXPECTS(static_cast<std::uint64_t>(rows) * cols <=
               ~static_cast<NodeId>(0));
  const NodeId n = rows * cols;
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v <= n; ++v) offsets[v] = 4 * v;
  std::vector<NodeId> adjacency(static_cast<std::size_t>(n) * 4);
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const std::size_t base = 4 * (static_cast<std::size_t>(r) * cols + c);
      adjacency[base + 0] = r * cols + (c + 1) % cols;           // right
      adjacency[base + 1] = r * cols + (c + cols - 1) % cols;    // left
      adjacency[base + 2] = ((r + 1) % rows) * cols + c;         // down
      adjacency[base + 3] = ((r + rows - 1) % rows) * cols + c;  // up
    }
  }
  return Graph::from_csr(n, std::move(offsets), std::move(adjacency));
}

Graph make_power_law_csr(NodeId n, double exponent, int max_degree,
                         std::uint64_t seed) {
  FTCC_EXPECTS(n >= 3);
  FTCC_EXPECTS(exponent > 2.0);
  FTCC_EXPECTS(max_degree >= 3 && max_degree <= 64);
  Xoshiro256 rng(seed);
  // Chung-Lu weights w_i ~ (i+1)^(-1/(exponent-1)), scaled so the largest
  // expected chord degree matches the cap's headroom above the backbone.
  const double gamma = 1.0 / (exponent - 1.0);
  std::vector<double> w(n);
  double total = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    w[i] = static_cast<double>(max_degree - 2) *
           std::pow(static_cast<double>(i) + 1.0, -gamma);
    total += w[i];
  }
  std::vector<std::uint8_t> deg(n, 2);
  std::vector<Chord> chords;
  chords.reserve(static_cast<std::size_t>(total / 2.0) + 16);
  // Miller-Hagberg geometric skipping over the descending weight order:
  // for each u, walk v upward jumping Geometric(p) positions where p is a
  // running upper bound on the edge probability, then thin with q/p.
  // Expected work O(n + accepted chords), no n^2 pair scan.
  for (NodeId u = 0; u + 1 < n; ++u) {
    if (deg[u] >= max_degree) continue;
    NodeId v = u + 1;
    double p = std::min(1.0, w[u] * w[v] / total);
    while (v < n && p > 0.0) {
      if (p < 1.0) {
        const double skip =
            std::floor(std::log1p(-rng.real()) / std::log1p(-p));
        if (skip >= static_cast<double>(n - v)) break;
        v += static_cast<NodeId>(skip);
      }
      const double q = std::min(1.0, w[u] * w[v] / total);
      if (rng.real() < q / p && !ring_adjacent(u, v, n) &&
          deg[u] < max_degree && deg[v] < max_degree) {
        ++deg[u];
        ++deg[v];
        chords.emplace_back(u, v);
      }
      p = q;
      ++v;
    }
  }
  return csr_from_ring_and_chords(n, deg, chords);
}

}  // namespace ftcc
