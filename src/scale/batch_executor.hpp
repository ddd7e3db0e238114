// The million-node campaign engine (DESIGN.md §15, ROADMAP item 2).
//
// BatchExecutor is a structure-of-arrays re-implementation of the
// synchronous special case of Executor<A>: every sweep activates exactly
// the working set, i.e. it replays Executor::run driven by a scheduler
// whose σ(t) is always "all working nodes".  That special case is the one
// that matters at scale — a full-coverage schedule finishes Algorithm 4 in
// O(chain length) sweeps — and restricting to it is what makes the
// per-node bookkeeping collapse into flat arrays:
//
//   - registers and private state live in parallel columns keyed by
//     NodeId (the arena idea of runtime/register_file.hpp taken to its
//     limit: no slots, no optionals, one cache line holds eight
//     neighbours' worth of one std::uint64_t field, or 32 of Algorithm 4's
//     packed 2-byte published pair);
//   - termination, crash, and register-presence are one bit per node in
//     packed word bitmaps; the frontier bitmap (= working set) drives the
//     sweep in ascending index order, so the columns are walked
//     sequentially and the prefetcher does the scheduling;
//   - the mex/palette inner loop is branchless: neighbour colours are
//     deposited into a 128-bit ColorBitset with arithmetic masks (no
//     compare-and-branch per neighbour) and mex() is two countr_one
//     instructions.  Colour components are mex results over ≤ Δ ≤ 64
//     values, hence ≤ 64 < 128 — the bitset never overflows.
//
// Semantics are pinned, not approximated: for every graph, id assignment,
// and crash-stop plan, run() must produce an ExecutionResult that is
// field-for-field equal (outputs, fates, crashed, activations, steps,
// completed) to Executor<A>::run under a synchronous scheduler.
// tests/scale_differential_test.cpp enforces this across seeds, topologies
// and crash plans; every ordering subtlety of Executor::step — the crash
// phase at step start skipped entirely for empty plans, terminated nodes
// still acquiring the crashed bit, the post-activation crashes_at probe —
// is replicated here on purpose.  Crash-stop is the only fault model the
// batch path supports (the paper's adversary); crash-recovery and
// corruption stay with the sequential executor.
//
// Like Executor, a BatchExecutor is reusable: reset() re-arms it for a new
// trial while keeping every column and bitmap it ever grew, and a
// steady-state sweep performs zero heap allocations (asserted by
// tests/executor_alloc_test.cpp).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/algo4_general_graph.hpp"
#include "core/algo5_fast_six_coloring.hpp"
#include "core/id_reduction.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/crash.hpp"
#include "runtime/result.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace ftcc {

/// Fixed-size colour set for the branchless mex loops.  set_if deposits a
/// colour under an arithmetic mask — cond must be 0 or 1 — so the neighbour
/// loop compiles to straight-line ALU code.  Callers guarantee c < 128;
/// the batch kernels only ever insert colour components, which are mex
/// results over at most Δ ≤ 64 values and therefore at most 64.
class ColorBitset {
 public:
  void clear() noexcept { w_[0] = w_[1] = 0; }
  void set_if(std::uint64_t c, std::uint64_t cond) noexcept {
    w_[(c >> 6) & 1] |= cond << (c & 63);
  }
  /// Smallest colour not in the set.
  [[nodiscard]] std::uint64_t mex() const noexcept {
    const int low = std::countr_one(w_[0]);
    return low < 64 ? static_cast<std::uint64_t>(low)
                    : 64u + static_cast<std::uint64_t>(std::countr_one(w_[1]));
  }

 private:
  std::uint64_t w_[2] = {0, 0};
};

/// Per-algorithm column sets.  A specialization provides the SoA layout
/// plus publish/step kernels that mirror the algorithm's publish()/step()
/// exactly (same conflict test, same mex pools, same update order).  Only
/// specialized algorithms run on the batch path — instantiating the
/// primary template is a compile error.
template <typename A>
struct BatchColumns;

/// Algorithm 4 (DeltaSquaredColoring): state columns x/a/b, published
/// register column ab.  x is the immutable identifier — step() never writes
/// it after init — so a published x always equals x[u] and is not copied;
/// the mex loop reads x[u] under the same presence mask.  The published
/// (a, b) pair is one 2-byte record per node: components are mex results
/// over at most Δ values, so a random neighbour's conflict test costs one
/// cache line of a 2n-byte array instead of one per 8n-byte column.
template <>
struct BatchColumns<DeltaSquaredColoring> {
  using Output = DeltaSquaredColoring::Output;

  struct PublishedPair {
    std::uint8_t a, b;
  };
  static_assert(DeltaSquaredColoring::kMaxDegree <=
                    std::numeric_limits<std::uint8_t>::max(),
                "a published colour component must fit in one byte");

  std::vector<std::uint64_t> x, a, b;  // private state
  std::vector<PublishedPair> ab;       // published register

  void reset(const Graph& g, const IdAssignment& ids) {
    const NodeId n = g.node_count();
    // Same admission check as DeltaSquaredColoring::init.
    for (NodeId v = 0; v < n; ++v)
      FTCC_EXPECTS(g.degree(v) >= 1 &&
                   g.degree(v) <= DeltaSquaredColoring::kMaxDegree);
    x.assign(ids.begin(), ids.end());
    a.assign(n, 0);
    b.assign(n, 0);
    ab.assign(n, PublishedPair{0, 0});
  }

  void publish(NodeId v) noexcept {
    ab[v] = PublishedPair{static_cast<std::uint8_t>(a[v]),
                          static_cast<std::uint8_t>(b[v])};
  }

  /// One activation of v against published neighbour columns; `present`
  /// is the register-presence bitmap (bit u set iff u ever published).
  /// Returns true on termination, filling `out`.
  bool step(NodeId v, std::span<const NodeId> neigh,
            const std::uint64_t* present, Output& out) noexcept {
    const std::uint64_t sx = x[v], sa = a[v], sb = b[v];
    std::uint64_t conflict = 0;
    for (const NodeId u : neigh) {
      const std::uint64_t pres = (present[u >> 6] >> (u & 63)) & 1u;
      conflict |= pres & static_cast<std::uint64_t>(ab[u].a == sa) &
                  static_cast<std::uint64_t>(ab[u].b == sb);
    }
    if (!conflict) {
      out = Output{sa, sb};
      return true;
    }
    ColorBitset higher_a, lower_b;
    higher_a.clear();
    lower_b.clear();
    for (const NodeId u : neigh) {
      const std::uint64_t pres = (present[u >> 6] >> (u & 63)) & 1u;
      higher_a.set_if(ab[u].a, pres & static_cast<std::uint64_t>(x[u] > sx));
      lower_b.set_if(ab[u].b, pres & static_cast<std::uint64_t>(x[u] < sx));
    }
    a[v] = higher_a.mex();
    b[v] = lower_b.mex();
    return false;
  }

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return (x.capacity() + a.capacity() + b.capacity()) *
               sizeof(std::uint64_t) +
           ab.capacity() * sizeof(PublishedPair);
  }
};

/// SixColoringFast: Algorithm 1's pair colouring plus the Cole–Vishkin
/// identifier reduction, so x and r are mutable columns alongside a/b.
/// Cycle-only (degree exactly 2), like the sequential init.
template <>
struct BatchColumns<SixColoringFast> {
  using Output = SixColoringFast::Output;

  std::vector<std::uint64_t> x, r, a, b;
  std::vector<std::uint64_t> px, pr, pa, pb;

  void reset(const Graph& g, const IdAssignment& ids) {
    const NodeId n = g.node_count();
    for (NodeId v = 0; v < n; ++v)
      FTCC_EXPECTS(g.degree(v) == 2);  // a cycle algorithm
    x.assign(ids.begin(), ids.end());
    r.assign(n, 0);
    a.assign(n, 0);
    b.assign(n, 0);
    px.assign(n, 0);
    pr.assign(n, 0);
    pa.assign(n, 0);
    pb.assign(n, 0);
  }

  void publish(NodeId v) noexcept {
    px[v] = x[v];
    pr[v] = r[v];
    pa[v] = a[v];
    pb[v] = b[v];
  }

  bool step(NodeId v, std::span<const NodeId> neigh,
            const std::uint64_t* present, Output& out) noexcept {
    const NodeId u0 = neigh[0], u1 = neigh[1];
    const std::uint64_t p0 = (present[u0 >> 6] >> (u0 & 63)) & 1u;
    const std::uint64_t p1 = (present[u1 >> 6] >> (u1 & 63)) & 1u;
    const std::uint64_t sx = x[v], sa = a[v], sb = b[v];
    const std::uint64_t conflict =
        (p0 & static_cast<std::uint64_t>(pa[u0] == sa) &
         static_cast<std::uint64_t>(pb[u0] == sb)) |
        (p1 & static_cast<std::uint64_t>(pa[u1] == sa) &
         static_cast<std::uint64_t>(pb[u1] == sb));
    if (!conflict) {
      out = Output{sa, sb};
      return true;
    }
    ColorBitset higher_a, lower_b;
    higher_a.set_if(pa[u0], p0 & static_cast<std::uint64_t>(px[u0] > sx));
    higher_a.set_if(pa[u1], p1 & static_cast<std::uint64_t>(px[u1] > sx));
    lower_b.set_if(pb[u0], p0 & static_cast<std::uint64_t>(px[u0] < sx));
    lower_b.set_if(pb[u1], p1 & static_cast<std::uint64_t>(px[u1] < sx));
    a[v] = higher_a.mex();
    b[v] = lower_b.mex();
    // Identifier reduction, gated like the sequential step on both
    // neighbour registers being non-⊥.
    if (p0 & p1)
      cv_identifier_update(x[v], r[v], px[u0], pr[u0], px[u1], pr[u1]);
    return false;
  }

  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return (x.capacity() + r.capacity() + a.capacity() + b.capacity() +
            px.capacity() + pr.capacity() + pa.capacity() + pb.capacity()) *
           sizeof(std::uint64_t);
  }
};

template <typename A>
class BatchExecutor {
 public:
  using Output = typename BatchColumns<A>::Output;

  BatchExecutor() = default;
  explicit BatchExecutor(const Graph& graph, const IdAssignment& ids,
                         CrashPlan crashes = {}) {
    reset(graph, ids, std::move(crashes));
  }

  /// Re-arm for a fresh trial, reusing every column and bitmap this
  /// executor ever grew.  `graph` must outlive the next run.
  void reset(const Graph& graph, const IdAssignment& ids,
             CrashPlan crashes = {}) {
    FTCC_EXPECTS(ids.size() == graph.node_count());
    graph_ = &graph;
    crashes_ = std::move(crashes);
    const NodeId n = graph.node_count();
    const std::size_t words = word_count(n);
    cols_.reset(graph, ids);
    frontier_.assign(words, ~std::uint64_t{0});
    if (n % 64 != 0 && words > 0)
      frontier_.back() = (std::uint64_t{1} << (n % 64)) - 1;
    present_.assign(words, 0);
    terminated_.assign(words, 0);
    crashed_.assign(words, 0);
    activations_.assign(n, 0);
    out_a_.assign(n, 0);
    out_b_.assign(n, 0);
    metrics_ = nullptr;
    pending_ = PendingMetrics{};
    now_ = 0;
  }

  /// Attach an obs::BatchMetrics bundle; the cells must outlive the
  /// executor.  Events accumulate in plain per-executor integers and reach
  /// the shared atomic cells in one flush_metrics() pass at the end of
  /// run() — the same batching discipline as the sequential executor.
  void attach_metrics(const obs::BatchMetrics* metrics) { metrics_ = metrics; }

  void flush_metrics() {
    if (!metrics_) return;
    if (pending_.activations) metrics_->activations->inc(pending_.activations);
    if (pending_.sweeps) {
      metrics_->sweeps->inc(pending_.sweeps);
      metrics_->frontier_size->merge_buckets(pending_.frontier_buckets,
                                             pending_.frontier_sum);
    }
    if (pending_.crashes) metrics_->crashes->inc(pending_.crashes);
    if (pending_.terminations)
      metrics_->terminations->inc(pending_.terminations);
    pending_ = PendingMetrics{};
  }

  /// One synchronous time step: activate every node in the frontier, in
  /// ascending index order.  Mirrors Executor::step with σ = the working
  /// set — crash phase first (skipped entirely when the plan is empty,
  /// matching apply_step_faults), then all simultaneous writes, then all
  /// reads + transitions with the post-activation crash probe.  Returns
  /// the number of nodes activated.  Zero heap allocations.
  std::size_t sweep() {
    const NodeId n = graph_->node_count();
    ++now_;
    if (!crashes_.empty()) {
      for (NodeId v = 0; v < n; ++v) {
        if (!test(crashed_, v) &&
            crashes_.crashes_at(v, now_, activations_[v])) {
          set_bit(crashed_, v);
          clear_bit(frontier_, v);
          if (metrics_ && !test(terminated_, v)) ++pending_.crashes;
        }
      }
    }
    // Phase 1: all simultaneous writes.  Presence is a word-wise OR; the
    // column stores walk the frontier in index order.
    std::size_t activated = 0;
    for (std::size_t w = 0; w < frontier_.size(); ++w) {
      std::uint64_t bits = frontier_[w];
      present_[w] |= bits;
      activated += static_cast<std::size_t>(std::popcount(bits));
      while (bits != 0) {
        const NodeId v = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        cols_.publish(v);
      }
    }
    // Phases 2+3: reads and private transitions.  Registers were all
    // published above, so the columns already hold the simultaneous
    // snapshot.  Terminating or crashing only clears the node's own
    // frontier bit, so the per-word snapshot `bits` stays valid.
    for (std::size_t w = 0; w < frontier_.size(); ++w) {
      std::uint64_t bits = frontier_[w];
      while (bits != 0) {
        const NodeId v = static_cast<NodeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        ++activations_[v];
        Output out;
        if (cols_.step(v, graph_->neighbors(v), present_.data(), out)) {
          out_a_[v] = out.a;
          out_b_[v] = out.b;
          set_bit(terminated_, v);
          clear_bit(frontier_, v);
          if (metrics_) ++pending_.terminations;
        }
        if (crashes_.crashes_at(v, now_, activations_[v])) {
          set_bit(crashed_, v);
          clear_bit(frontier_, v);
          if (metrics_) ++pending_.crashes;
        }
      }
    }
    if (metrics_) {
      pending_.activations += activated;
      ++pending_.sweeps;
      ++pending_.frontier_buckets[log2_bucket_index(activated)];
      pending_.frontier_sum += activated;
    }
    return activated;
  }

  /// Sweep until the frontier drains or the step budget is exhausted,
  /// then materialize the result.  Field-for-field equal to
  /// Executor::run under a synchronous full-coverage scheduler.
  ExecutionResult<Output> run(std::uint64_t max_steps) {
    while (now_ < max_steps && !frontier_empty()) sweep();
    ExecutionResult<Output> result;
    const NodeId n = graph_->node_count();
    result.completed = frontier_empty();
    result.steps = now_;
    result.activations = activations_;
    result.outputs.assign(n, std::nullopt);
    result.crashed.assign(n, false);
    result.fates.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      if (test(terminated_, v)) {
        result.outputs[v] = Output{out_a_[v], out_b_[v]};
      }
      if (test(crashed_, v)) result.crashed[v] = true;
      result.fates[v] = test(terminated_, v) ? NodeFate::terminated
                        : test(crashed_, v) ? NodeFate::crashed
                                            : NodeFate::timed_out;
    }
    flush_metrics();
    return result;
  }

  // --- Introspection (tests, benches) ---------------------------------
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  [[nodiscard]] bool is_working(NodeId v) const { return test(frontier_, v); }
  [[nodiscard]] bool has_terminated(NodeId v) const {
    return test(terminated_, v);
  }
  [[nodiscard]] bool has_crashed(NodeId v) const { return test(crashed_, v); }
  [[nodiscard]] std::uint64_t activation_count(NodeId v) const {
    return activations_[v];
  }
  /// Live frontier population (popcount scan; not part of the hot path).
  [[nodiscard]] std::size_t frontier_size() const noexcept {
    std::size_t c = 0;
    for (const std::uint64_t w : frontier_)
      c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }
  [[nodiscard]] bool frontier_empty() const noexcept {
    for (const std::uint64_t w : frontier_)
      if (w != 0) return false;
    return true;
  }
  /// Heap bytes held by the executor's columns and bitmaps (capacity, not
  /// size) — the numerator of bench_scale's bytes/node.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return cols_.heap_bytes() +
           (frontier_.capacity() + present_.capacity() +
            terminated_.capacity() + crashed_.capacity()) *
               sizeof(std::uint64_t) +
           (activations_.capacity() + out_a_.capacity() + out_b_.capacity()) *
               sizeof(std::uint64_t);
  }

 private:
  [[nodiscard]] static std::size_t word_count(NodeId n) noexcept {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }
  [[nodiscard]] static bool test(const std::vector<std::uint64_t>& bm,
                                 NodeId v) noexcept {
    return ((bm[v >> 6] >> (v & 63)) & 1u) != 0;
  }
  static void set_bit(std::vector<std::uint64_t>& bm, NodeId v) noexcept {
    bm[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& bm, NodeId v) noexcept {
    bm[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
  }

  const Graph* graph_ = nullptr;
  CrashPlan crashes_;
  BatchColumns<A> cols_;
  std::vector<std::uint64_t> frontier_;    // = the working set
  std::vector<std::uint64_t> present_;     // register ever published
  std::vector<std::uint64_t> terminated_;
  std::vector<std::uint64_t> crashed_;
  std::vector<std::uint64_t> activations_;
  std::vector<std::uint64_t> out_a_, out_b_;
  const obs::BatchMetrics* metrics_ = nullptr;
  /// Locally batched metric events (see attach_metrics / flush_metrics).
  struct PendingMetrics {
    std::uint64_t activations = 0;
    std::uint64_t sweeps = 0;
    std::uint64_t crashes = 0;
    std::uint64_t terminations = 0;
    std::array<std::uint64_t, obs::Histogram::kBuckets> frontier_buckets{};
    std::uint64_t frontier_sum = 0;
  };
  PendingMetrics pending_;
  std::uint64_t now_ = 0;
};

}  // namespace ftcc
