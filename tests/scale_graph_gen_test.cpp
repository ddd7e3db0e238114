// Property tests for the CSR-direct scale builders (src/scale/graph_gen):
// every graph they emit must be a well-formed simple undirected CSR
// (offsets monotone, arcs mirrored, no self-loops, no duplicate arcs),
// satisfy the advertised degree bounds, be connected (the cycle backbone's
// contract), and be a pure function of its arguments — same seed,
// byte-identical adjacency.  Checks run at n = 10⁵, the scale the builders
// exist for, using aggregated violation counts so the suite stays fast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "scale/graph_gen.hpp"

namespace ftcc {
namespace {

constexpr NodeId kBig = 100'000;

/// Offsets monotone from 0 to |adjacency|; every row free of self-loops
/// and duplicates; every arc mirrored.  Returns the number of violations
/// (0 = well-formed) so tests make one assertion over 10⁵ nodes.
std::size_t csr_violations(const Graph& g) {
  const NodeId n = g.node_count();
  const auto offsets = g.offsets();
  std::size_t bad = 0;
  if (offsets.size() != static_cast<std::size_t>(n) + 1) return 1;
  if (offsets[0] != 0) ++bad;
  for (NodeId v = 0; v < n; ++v)
    if (offsets[v] > offsets[v + 1]) ++bad;
  if (offsets[n] != 2 * g.edge_count()) ++bad;

  // Self-loops and intra-row duplicates.
  std::vector<NodeId> row;
  for (NodeId v = 0; v < n; ++v) {
    const auto neigh = g.neighbors(v);
    row.assign(neigh.begin(), neigh.end());
    std::sort(row.begin(), row.end());
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i] == v) ++bad;
      if (i > 0 && row[i] == row[i - 1]) ++bad;
    }
  }

  // Symmetry: collect all arcs as u*n+v keys, then binary-search each
  // arc's mirror (O(m log m), fine at 10⁵ nodes).
  std::vector<std::uint64_t> arcs;
  arcs.reserve(offsets[n]);
  for (NodeId v = 0; v < n; ++v)
    for (const NodeId u : g.neighbors(v))
      arcs.push_back(static_cast<std::uint64_t>(v) * n + u);
  std::sort(arcs.begin(), arcs.end());
  for (NodeId v = 0; v < n; ++v)
    for (const NodeId u : g.neighbors(v))
      if (!std::binary_search(arcs.begin(), arcs.end(),
                              static_cast<std::uint64_t>(u) * n + v))
        ++bad;
  return bad;
}

bool connected(const Graph& g) {
  const NodeId n = g.node_count();
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const NodeId u : g.neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        ++reached;
        stack.push_back(u);
      }
    }
  }
  return reached == n;
}

std::size_t degree_violations(const Graph& g, int lo, int hi) {
  std::size_t bad = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (g.degree(v) < lo || g.degree(v) > hi) ++bad;
  return bad;
}

/// FNV-1a 64 over offsets() and then every row in node order, each value
/// as eight little-endian bytes: a fingerprint of the exact CSR contents,
/// neighbour order included.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325u;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3u;
    }
  };
  for (const std::size_t o : g.offsets()) mix(o);
  for (NodeId v = 0; v < g.node_count(); ++v)
    for (const NodeId u : g.neighbors(v)) mix(u);
  return h;
}

bool same_adjacency(const Graph& a, const Graph& b) {
  if (a.node_count() != b.node_count()) return false;
  const auto ao = a.offsets();
  const auto bo = b.offsets();
  if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end())) return false;
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    if (!std::equal(an.begin(), an.end(), bn.begin(), bn.end())) return false;
  }
  return true;
}

TEST(ScaleGraphGen, RandomCsrIsWellFormedBoundedAndConnected) {
  const Graph g = make_random_bounded_degree_csr(kBig, 8, 42);
  EXPECT_EQ(csr_violations(g), 0u);
  // Cycle backbone: degree never below 2, cap never exceeded.
  EXPECT_EQ(degree_violations(g, 2, 8), 0u);
  EXPECT_LE(g.max_degree(), 8);
  EXPECT_TRUE(connected(g));
  // Chords were actually added — this is not just the bare cycle.
  EXPECT_GT(g.edge_count(), static_cast<std::size_t>(kBig));
}

TEST(ScaleGraphGen, RandomCsrIsDeterministicInTheSeed) {
  const Graph a = make_random_bounded_degree_csr(kBig, 8, 7);
  const Graph b = make_random_bounded_degree_csr(kBig, 8, 7);
  EXPECT_TRUE(same_adjacency(a, b));
  const Graph c = make_random_bounded_degree_csr(kBig, 8, 8);
  EXPECT_FALSE(same_adjacency(a, c));
}

// Byte pins on the generators' exact output.  A change to how the CSR is
// assembled, as opposed to what is sampled, must keep every row's contents
// and order; the determinism tests above compare two calls of the same
// code and cannot catch a reordered or dropped chord.  Both generators
// give K₄ and K₅ at n = 4 and 5; the random sampler gets there through
// many duplicate draws, which the assembly must remove.
TEST(ScaleGraphGen, RandomCsrBytesArePinned) {
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(kBig, 8, 1)),
            0x3cf20881b9db046eu);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(kBig, 8, 2)),
            0x5614f93844ec2554u);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(kBig, 8, 3)),
            0x7ece0075fc1510bbu);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(1u << 18, 8, 1)),
            0x807c11583063ab78u);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(3, 8, 1)),
            0xa80cbc5e296e9165u);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(4, 8, 1)),
            0xb877bdb93d462005u);
  EXPECT_EQ(csr_digest(make_random_bounded_degree_csr(5, 8, 1)),
            0x3b2f232cd3e91141u);
}

TEST(ScaleGraphGen, PowerLawCsrBytesArePinned) {
  EXPECT_EQ(csr_digest(make_power_law_csr(kBig, 2.5, 12, 13)),
            0x2c690587d98d7555u);
  EXPECT_EQ(csr_digest(make_power_law_csr(3, 2.5, 12, 13)),
            0xa80cbc5e296e9165u);
  EXPECT_EQ(csr_digest(make_power_law_csr(4, 2.5, 12, 13)),
            0xb877bdb93d462005u);
  EXPECT_EQ(csr_digest(make_power_law_csr(5, 2.5, 12, 13)),
            0x3b2f232cd3e91141u);
}

TEST(ScaleGraphGen, RandomCsrCapTwoIsThePureCycle) {
  const Graph g = make_random_bounded_degree_csr(kBig, 2, 123);
  EXPECT_EQ(csr_violations(g), 0u);
  EXPECT_EQ(degree_violations(g, 2, 2), 0u);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(kBig));
  EXPECT_TRUE(connected(g));
}

TEST(ScaleGraphGen, TorusCsrIsFourRegularAndMatchesTheEdgeListBuilder) {
  // ~10⁵ nodes: every node exactly {left, right, up, down}.
  const Graph g = make_torus_csr(320, 313);
  EXPECT_EQ(g.node_count(), 320u * 313u);
  EXPECT_EQ(csr_violations(g), 0u);
  EXPECT_EQ(degree_violations(g, 4, 4), 0u);
  EXPECT_TRUE(connected(g));
  // Same graph family as make_torus: identical edge sets on a small
  // instance (rows compared as sets — neighbour order is arbitrary).
  const Graph fast = make_torus_csr(12, 9);
  const Graph slow = make_torus(12, 9);
  ASSERT_EQ(fast.node_count(), slow.node_count());
  for (NodeId v = 0; v < fast.node_count(); ++v) {
    std::vector<NodeId> a(fast.neighbors(v).begin(), fast.neighbors(v).end());
    std::vector<NodeId> b(slow.neighbors(v).begin(), slow.neighbors(v).end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "torus row " << v;
  }
}

TEST(ScaleGraphGen, PowerLawCsrRespectsCapBackboneAndSkew) {
  const Graph g = make_power_law_csr(kBig, 2.5, 64, 42);
  EXPECT_EQ(csr_violations(g), 0u);
  EXPECT_EQ(degree_violations(g, 2, 64), 0u);
  EXPECT_TRUE(connected(g));
  // Chung–Lu weights descend in the node index, so chord degree (above
  // the cycle backbone's floor of 2) must concentrate at the head of the
  // id range (deterministic build — this pins the distribution, not a
  // statistical hope).
  std::uint64_t head = 0, tail = 0;
  for (NodeId v = 0; v < 1000; ++v)
    head += static_cast<std::uint64_t>(g.degree(v) - 2);
  for (NodeId v = kBig - 1000; v < kBig; ++v)
    tail += static_cast<std::uint64_t>(g.degree(v) - 2);
  EXPECT_GT(head, 10 * tail);
}

TEST(ScaleGraphGen, PowerLawCsrIsDeterministicInTheSeed) {
  const Graph a = make_power_law_csr(kBig, 2.5, 16, 1);
  const Graph b = make_power_law_csr(kBig, 2.5, 16, 1);
  EXPECT_TRUE(same_adjacency(a, b));
  const Graph c = make_power_law_csr(kBig, 2.5, 16, 2);
  EXPECT_FALSE(same_adjacency(a, c));
}

}  // namespace
}  // namespace ftcc
