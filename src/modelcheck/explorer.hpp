// Exhaustive model checker for the state model: explores *every* execution
// of an Algorithm on a (small) graph by enumerating, at every reachable
// configuration, all possible activation sets, with memoisation of
// configurations.  Verifies:
//
//   Safety      — a user predicate plus built-in output properness, checked
//                 at every reachable configuration;
//   Wait-freedom — the configuration graph restricted to non-terminal
//                 configurations must be acyclic: a cycle is an infinite
//                 execution that activates some working node infinitely
//                 often, i.e. an unbounded round complexity;
//   Exact bounds — if wait-free, a longest-path DP over the configuration
//                 DAG computes, per node, the exact worst-case number of
//                 activations over ALL schedules — the paper's "running
//                 time" for this instance, computed rather than estimated.
//
// Two transition semantics:
//   singletons — one node per step (atomic interleaving, the classical
//                shared-memory semantics);
//   sets       — arbitrary non-empty subsets per step (the paper's σ(t)).
// Crash failures need no extra branching: a crash is a schedule that never
// activates the node again, and both semantics quantify over all such
// schedules (safety at *every* reachable configuration covers every crash
// prefix, and partial-output properness is checked everywhere).  The
// optional McFaultMode layers make that quantification EXPLICIT (crash
// marks in the state, so the differential harness can assert crash-stop
// verdicts match fault-free ones) and add the one fault the schedule
// cannot express: crash-RECOVERY, which wipes a node back to its initial
// state with a ⊥ register (core/recovering.hpp's bottom semantics).
//
// Three individually-switchable reduction layers (ReductionOptions,
// DESIGN.md §11) push exhaustive certification from C₅ to C₈:
// tree-compressed visited keys (state_store.hpp), the cycle-symmetry
// quotient (symmetry.hpp), and the commuting-activation reduction
// (reduction.hpp) — each differentially tested against the unreduced
// explorer before being trusted at scale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "modelcheck/reduction.hpp"
#include "modelcheck/state_store.hpp"
#include "modelcheck/symmetry.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/algorithm.hpp"
#include "runtime/worker_pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

enum class ActivationMode {
  singletons,  ///< one node per time step
  sets,        ///< any non-empty subset per time step (the paper's model)
};

/// Atomicity ablation (experiment E16): the paper's activation is an
/// ATOMIC write-then-read round.  `split` semantics breaks it into two
/// separately-schedulable micro-steps — a node may write, sit stale for
/// arbitrarily long while neighbours run full rounds, and only then read —
/// strictly more adversarial than any σ(t) block schedule.  A full round
/// (for activation counting) completes at the read micro-step.
enum class Atomicity {
  atomic,  ///< write+read+update in one indivisible activation
  split,   ///< write and read+update scheduled independently
};

/// Explicit fault events in the configuration graph.  Distinct from the
/// executor-side ftcc::FaultMode (register corruption campaigns): these
/// are checker-level branch points, budgeted by max_fault_events so the
/// graph stays finite.
enum class McFaultMode {
  none,            ///< fault-free (crash prefixes are still quantified)
  crash_stop,      ///< a working node may crash and never run again
  crash_recovery,  ///< a working node may crash and restart from init()
                   ///< with a ⊥ register (Recovering<>'s bottom read)
};

/// The three reduction layers of DESIGN.md §11, each independently
/// switchable so the differential harness can test all 2³ combinations.
struct ReductionOptions {
  /// Layer 1: intern visited keys into the tree-compressed StateStore and
  /// key the visited map by 64-bit handles.
  bool compress = false;
  /// Layer 2: store one canonical representative per D_n orbit
  /// (rotations/reflections of C_n applied jointly to node state and
  /// identifier sequence).  Requires the standard cycle labelling and a
  /// symmetry-invariant safety predicate.
  bool symmetry = false;
  /// Layer 3: explore only activation sets that are connected in the
  /// induced subgraph (non-adjacent activations commute); set semantics
  /// only — singletons are trivially connected.
  bool commute = false;
  /// Also count canonical D_n classes among interned configurations
  /// (result.canonical_classes) even when `symmetry` is off — the
  /// differential harness's quotient-consistency oracle.
  bool census = false;
};

template <Algorithm A>
struct ModelCheckOptions {
  ActivationMode mode = ActivationMode::sets;
  Atomicity atomicity = Atomicity::atomic;
  McFaultMode fault_mode = McFaultMode::none;
  /// Fault-event budget per execution (fault modes only): every
  /// configuration carries its remaining budget, keeping the graph finite.
  std::uint32_t max_fault_events = 1;
  ReductionOptions reductions;
  /// Exploration budget; exceeded => result.completed = false.
  std::uint64_t max_configs = 4'000'000;
  /// Check that terminated neighbours never share an output color.  On for
  /// coloring algorithms; off for tasks with different specs (e.g. MIS).
  bool check_output_properness = true;
  /// Extra per-configuration safety predicate over (states, registers,
  /// outputs); return a description to report a violation.
  std::function<std::optional<std::string>(
      const std::vector<typename A::State>&,
      const std::vector<std::optional<typename A::Register>>&,
      const std::vector<std::optional<typename A::Output>>&)>
      safety;
};

struct ModelCheckResult {
  bool completed = false;      ///< exploration finished within budget
  bool wait_free = false;      ///< no cycle among working configurations
  bool outputs_proper = true;  ///< properness held in every configuration
  std::optional<std::string> safety_violation;
  std::uint64_t configs = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal_configs = 0;
  /// Exact worst-case activations per node over all schedules (valid only
  /// when wait_free && completed && no safety violation).
  std::vector<std::uint64_t> worst_case_activations;
  /// Exact maximum number of time steps any execution can take before all
  /// nodes terminate (same validity conditions).
  std::uint64_t worst_case_steps = 0;
  [[nodiscard]] std::uint64_t worst_case_rounds() const {
    std::uint64_t m = 0;
    for (auto a : worst_case_activations) m = std::max(m, a);
    return m;
  }
  /// Every color any node ever output, across all executions.
  std::vector<std::uint64_t> colors_used;
  /// When a livelock was found: a concrete witness schedule.  Each entry is
  /// an activation bitmask over node ids; playing `livelock_prefix` from
  /// the initial configuration reaches the cycle, and every repetition of
  /// `livelock_loop` returns to the same configuration — an explicit
  /// infinite execution.  Empty when wait_free.
  std::vector<std::uint32_t> livelock_prefix;
  std::vector<std::uint32_t> livelock_loop;
  // ---- run_reduced() instrumentation (zero from run()). ----
  std::uint64_t store_entries = 0;  ///< word+pair entries in the StateStore
  std::uint64_t store_bytes = 0;    ///< approximate visited-set footprint
  std::uint64_t sym_hits = 0;       ///< children landing on a rotated rep
  std::uint64_t commute_skipped = 0;  ///< disconnected activation sets cut
  /// D_n classes among interned configurations (census or symmetry runs;
  /// under symmetry every stored configuration is its class).
  std::uint64_t canonical_classes = 0;
};

/// Witness entries with this bit set are fault events, not activation
/// sets: bits [16..19] carry the faulted node, bit 30 distinguishes
/// recovery (set) from crash-stop (clear).
inline constexpr std::uint32_t kWitnessFaultFlag = 0x8000'0000u;
inline constexpr std::uint32_t kWitnessRecoveryFlag = 0x4000'0000u;

[[nodiscard]] inline std::uint32_t fault_witness_mark(NodeId v,
                                                      bool recovery) {
  return kWitnessFaultFlag | (recovery ? kWitnessRecoveryFlag : 0u) |
         (static_cast<std::uint32_t>(v) << 16);
}

[[nodiscard]] inline NodeId fault_witness_node(std::uint32_t mark) {
  return static_cast<NodeId>((mark >> 16) & 0xFu);
}

/// Convert a witness bitmask sequence into explicit activation sets (for
/// ReplayScheduler or Executor::step).  Fault-event entries
/// (kWitnessFaultFlag) are skipped: the executor expresses crashes as
/// never-again-scheduled nodes, and recovery replay needs a fault plan,
/// not a schedule.
[[nodiscard]] inline std::vector<std::vector<NodeId>> witness_to_schedule(
    const std::vector<std::uint32_t>& bitmasks, NodeId n) {
  std::vector<std::vector<NodeId>> schedule;
  schedule.reserve(bitmasks.size());
  for (std::uint32_t bits : bitmasks) {
    if (bits & kWitnessFaultFlag) continue;
    std::vector<NodeId> sigma;
    for (NodeId v = 0; v < n; ++v)
      if (bits & (1u << v)) sigma.push_back(v);
    schedule.push_back(std::move(sigma));
  }
  return schedule;
}

namespace detail {

struct VecHash {
  std::size_t operator()(const std::vector<std::uint64_t>& v) const noexcept {
    // Full splitmix64 avalanche per element, seeded by the length: config
    // keys are low-entropy (mostly-zero words, tiny enum values), so every
    // word must reach every bit before unordered_map takes its bucket.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
    h = splitmix64(h);
    for (std::uint64_t x : v) {
      std::uint64_t s = h ^ x;
      h = splitmix64(s);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace detail

template <Algorithm A>
class ModelChecker {
 public:
  using Register = typename A::Register;
  using State = typename A::State;
  using Output = typename A::Output;

  /// The graph is stored by value: model-checked instances are tiny, and
  /// callers routinely pass temporaries (make_cycle(3)).
  ModelChecker(A algo, Graph graph, const IdAssignment& ids,
               ModelCheckOptions<A> options = {})
      : algo_(std::move(algo)),
        graph_(std::move(graph)),
        ids_(ids),
        options_(std::move(options)) {
    FTCC_EXPECTS(ids.size() == graph_.node_count());
    FTCC_EXPECTS(graph_.node_count() <= 16);  // activation bitmasks
    initial_.states.reserve(graph_.node_count());
    for (NodeId v = 0; v < graph_.node_count(); ++v)
      initial_.states.push_back(algo_.init(v, ids[v], graph_.degree(v)));
    initial_.registers.resize(graph_.node_count());
    initial_.outputs.resize(graph_.node_count());
    initial_.mid_round.assign(graph_.node_count(), 0);
    initial_.faults_left = options_.fault_mode == McFaultMode::none
                               ? 0
                               : options_.max_fault_events;
    initial_.node_ids.assign(ids_.begin(), ids_.end());
  }

  /// Resolved obs handles (obs::McMetrics::create); must outlive the
  /// checker.  Updated once per completed run — never from workers.
  void attach_metrics(const obs::McMetrics* metrics) { metrics_ = metrics; }

  /// The sequential DFS oracle: the small, independent engine that the
  /// differential harness pins run_reduced() against.
  [[nodiscard]] ModelCheckResult run();

  /// The BFS engine (DESIGN.md §10–§11), deterministic for any jobs.
  ///
  /// A level-synchronised BFS discovers the configuration graph: workers
  /// expand the frontier in parallel (pure apply() calls plus read-only
  /// probes of the visited index), then a single-threaded merge interns
  /// new configurations in (frontier, successor) order, so indices and
  /// per-config edge lists come out identical for every worker count.  A
  /// sequential DFS replay over the stored edges then walks exactly the
  /// traversal run() performs — same check order, same first-livelock
  /// witness, same finish-order DP — so with all layers off every field
  /// of a completed result equals run()'s (modelcheck_parallel_test and
  /// the differential harness pin this).  Budget-exceeded runs are
  /// deterministic for any jobs, but their partial tallies may differ
  /// from run()'s; both report completed = false.
  ///
  /// The reduction layers of options_.reductions apply on top: compress
  /// changes only the visited-set representation (still byte-identical
  /// results); commute preserves everything except the transition count
  /// and the identity of the livelock witness; symmetry reports per-orbit
  /// configuration counts while verdicts, colors, per-node worst cases,
  /// and worst-case steps still match the unreduced run exactly
  /// (witnesses and DP values are translated through the stored per-edge
  /// permutations).
  [[nodiscard]] ModelCheckResult run_reduced(unsigned jobs);

  /// Run one explicit schedule through the checker's own transition
  /// function and return the outputs.  This is a second, independent
  /// implementation of the model — used for differential testing against
  /// the Executor.
  [[nodiscard]] std::vector<std::optional<Output>> simulate(
      const std::vector<std::vector<NodeId>>& schedule) const {
    Config c = initial_;
    for (const auto& raw_sigma : schedule) {
      std::vector<NodeId> sigma;
      for (NodeId v : raw_sigma)
        if (!c.outputs[v]) sigma.push_back(v);
      c = apply(c, sigma);
    }
    return c.outputs;
  }

 private:
  struct Config {
    std::vector<State> states;
    std::vector<std::optional<Register>> registers;
    std::vector<std::optional<Output>> outputs;
    /// split semantics only: true = the node wrote and has a read pending.
    std::vector<std::uint8_t> mid_round;
    /// crash_stop only: bitmask of crashed nodes (excluded from working()).
    std::uint32_t crashed = 0;
    /// Remaining fault-event budget (0 whenever fault_mode == none, so
    /// fault-free runs key and dedup exactly as before).
    std::uint32_t faults_left = 0;
    /// The identifier each node recovers with.  In concrete coordinates
    /// this is just ids_ (a per-instance constant, so including it in
    /// keys changes no dedup decision); under the symmetry quotient it is
    /// permuted along with the node blocks, which is what makes the
    /// crash_recovery transition D_n-equivariant: recovery re-initialises
    /// from the identifier that TRAVELLED with the node's block, not from
    /// the identifier of its canonical position.
    std::vector<std::uint64_t> node_ids;

    [[nodiscard]] std::vector<std::uint64_t> key() const {
      std::vector<std::uint64_t> k;
      k.reserve(states.size() * 8);
      for (const auto& s : states) s.encode(k);
      for (const auto& r : registers) {
        k.push_back(r.has_value());
        if (r) r->encode(k);
      }
      for (const auto& o : outputs) {
        k.push_back(o.has_value());
        if (o) k.push_back(A::color_code(*o));
      }
      for (const auto m : mid_round) k.push_back(m);
      k.push_back(crashed);
      k.push_back(faults_left);
      for (const auto id : node_ids) k.push_back(id);
      return k;
    }

    [[nodiscard]] std::vector<NodeId> working() const {
      std::vector<NodeId> w;
      for (NodeId v = 0; v < states.size(); ++v)
        if (!outputs[v] && !((crashed >> v) & 1u)) w.push_back(v);
      return w;
    }
  };

  /// One time step activating `sigma` (all working).  Atomic semantics:
  /// all write, then all read-and-update — the executor's semantics in
  /// miniature.  Split semantics: each chosen node performs its NEXT
  /// micro-step (write if idle, read+update if mid-round); writes land
  /// before reads within the step.
  [[nodiscard]] Config apply(const Config& c,
                             const std::vector<NodeId>& sigma) const {
    Config next = c;
    const bool split = options_.atomicity == Atomicity::split;
    for (NodeId v : sigma) {
      if (split && next.mid_round[v]) continue;  // read turn, not write
      next.registers[v] = algo_.publish(next.states[v]);
      if (split) next.mid_round[v] = 1;
    }
    std::vector<std::optional<Register>> view;
    for (NodeId v : sigma) {
      if (split) {
        // A node chosen while idle only wrote this step; its read comes at
        // a later scheduling of the same node.
        if (!c.mid_round[v]) continue;
        next.mid_round[v] = 0;
      }
      view.clear();
      for (NodeId u : graph_.neighbors(v)) view.push_back(next.registers[u]);
      auto out = algo_.step(next.states[v], NeighborView<Register>(view));
      if (out) next.outputs[v] = std::move(*out);
    }
    return next;
  }

  /// One budgeted fault event hitting working node v.  crash_stop marks
  /// the node crashed (its register stays visible — a crashed node's last
  /// write persists in shared memory); crash_recovery wipes the node back
  /// to init() with a ⊥ register, the bottom semantics of
  /// core/recovering.hpp's RecoveredRegister::bottom.
  [[nodiscard]] Config fault_successor(const Config& c, NodeId v) const {
    FTCC_EXPECTS(c.faults_left > 0);
    Config next = c;
    if (options_.fault_mode == McFaultMode::crash_stop) {
      next.crashed |= 1u << v;
    } else {
      // Re-initialise from the identifier carried in the configuration
      // (== ids_[v] in concrete coordinates; the permuted one under the
      // symmetry quotient).  init() ignores the node index, so passing
      // the canonical position is equivalent to the concrete one.
      next.states[v] = algo_.init(v, c.node_ids[v], graph_.degree(v));
      next.registers[v].reset();
      next.mid_round[v] = 0;
    }
    --next.faults_left;
    return next;
  }

  // ---- run_reduced() plumbing: per-node blocks and D_n actions. -------

  /// Append node v's block — everything the configuration knows about v —
  /// to `words`.  Block-concatenated keys (reduced_key) are an injective
  /// re-ordering of Config::key()'s fields: block lengths are
  /// self-delimiting (presence flags precede optional payloads, state and
  /// register encodings have fixed arity per algorithm), so equal keys
  /// still mean equal configurations.
  void node_block(const Config& c, NodeId v,
                  std::vector<std::uint64_t>& words) const {
    c.states[v].encode(words);
    words.push_back(c.registers[v].has_value());
    if (c.registers[v]) c.registers[v]->encode(words);
    words.push_back(c.outputs[v].has_value());
    if (c.outputs[v]) words.push_back(A::color_code(*c.outputs[v]));
    words.push_back(c.mid_round[v]);
    words.push_back((c.crashed >> v) & 1u);
    words.push_back(c.node_ids[v]);
  }

  /// Block layout of `c`: concatenated blocks plus n+1 offsets.
  void encode_blocks(const Config& c, std::vector<std::uint64_t>& words,
                     std::vector<std::uint32_t>& offsets) const {
    const NodeId n = graph_.node_count();
    words.clear();
    offsets.clear();
    offsets.push_back(0);
    for (NodeId v = 0; v < n; ++v) {
      node_block(c, v, words);
      offsets.push_back(static_cast<std::uint32_t>(words.size()));
    }
  }

  /// Apply an orig->target position map to a configuration.
  [[nodiscard]] Config permute_config(const Config& c,
                                      std::uint64_t perm) const {
    const NodeId n = graph_.node_count();
    Config out;
    out.states.resize(n, c.states[0]);
    out.registers.resize(n);
    out.outputs.resize(n);
    out.mid_round.assign(n, 0);
    out.faults_left = c.faults_left;
    out.node_ids.resize(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      const auto t = static_cast<NodeId>(perm_at(perm, v));
      out.states[t] = c.states[v];
      out.registers[t] = c.registers[v];
      out.outputs[t] = c.outputs[v];
      out.mid_round[t] = c.mid_round[v];
      out.node_ids[t] = c.node_ids[v];
      if ((c.crashed >> v) & 1u) out.crashed |= 1u << t;
    }
    return out;
  }

  A algo_;
  Graph graph_;
  IdAssignment ids_;
  ModelCheckOptions<A> options_;
  Config initial_;
  const obs::McMetrics* metrics_ = nullptr;
};

template <Algorithm A>
ModelCheckResult ModelChecker<A>::run() {
  ModelCheckResult result;
  const NodeId n = graph_.node_count();

  std::vector<Config> configs;
  std::unordered_map<std::vector<std::uint64_t>, std::uint32_t,
                     detail::VecHash>
      index_of;
  // Pre-size for the typical exploration (capped well below max_configs,
  // which defaults to millions): one up-front allocation instead of a
  // rehash cascade as the reachable set grows.
  const auto reserve_hint = static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.max_configs, 65'536));
  index_of.reserve(reserve_hint);
  configs.reserve(reserve_hint);
  std::vector<std::uint8_t> color;  // 0 white, 1 gray (on stack), 2 black
  // Out-edges per configuration: (child index, activation bitmask over
  // node ids).  Needed only for the longest-path DP.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> out_edges;
  // worst[i*n + v]: max future activations of node v from configuration i.
  std::vector<std::uint64_t> worst;
  // steps[i]: longest path (in transitions) from configuration i.
  std::vector<std::uint64_t> steps;
  std::vector<std::uint64_t> colors_used;

  auto intern = [&](Config&& c) -> std::optional<std::uint32_t> {
    auto key = c.key();
    auto it = index_of.find(key);
    if (it != index_of.end()) return it->second;
    if (configs.size() >= options_.max_configs) return std::nullopt;
    const auto idx = static_cast<std::uint32_t>(configs.size());
    index_of.emplace(std::move(key), idx);
    configs.push_back(std::move(c));
    color.push_back(0);
    out_edges.emplace_back();
    worst.resize(worst.size() + n, 0);
    steps.push_back(0);
    return idx;
  };

  auto check_config = [&](const Config& c) -> bool {
    for (NodeId v = 0; v < n; ++v) {
      if (!c.outputs[v]) continue;
      const auto code = A::color_code(*c.outputs[v]);
      if (options_.check_output_properness) {
        for (NodeId u : graph_.neighbors(v)) {
          if (u < v || !c.outputs[u]) continue;
          if (code == A::color_code(*c.outputs[u])) {
            result.outputs_proper = false;
            if (!result.safety_violation)
              result.safety_violation = "improper outputs on edge (" +
                                        std::to_string(v) + "," +
                                        std::to_string(u) + ")";
          }
        }
      }
      bool known = false;
      for (auto x : colors_used) known |= (x == code);
      if (!known) colors_used.push_back(code);
    }
    if (options_.safety && !result.safety_violation) {
      if (auto err = options_.safety(c.states, c.registers, c.outputs))
        result.safety_violation = std::move(err);
    }
    return !result.safety_violation.has_value();
  };

  const auto root = intern(Config(initial_));
  FTCC_EXPECTS(root.has_value());
  bool ok = check_config(configs[*root]);

  struct Frame {
    std::uint32_t config;
    std::vector<NodeId> working;
    std::uint32_t next_mask;
    std::uint32_t incoming_bits;  // activation that entered this frame
    std::uint32_t next_fault = 0;  // fault stage cursor (after all masks)
  };
  bool cycle_found = false;
  bool budget_exceeded = false;
  std::vector<std::uint32_t> finish_order;
  std::vector<Frame> stack;
  if (ok) {
    stack.push_back({*root, configs[*root].working(), 1, 0});
    color[*root] = 1;
  }

  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto wsize = static_cast<std::uint32_t>(f.working.size());
    const std::uint32_t limit = 1u << wsize;
    // After the activation masks, one budgeted fault edge per working
    // node (fault modes only; fault-free runs never see this stage).
    const bool faults_pending = options_.fault_mode != McFaultMode::none &&
                                configs[f.config].faults_left > 0 &&
                                f.next_fault < wsize;

    if (f.working.empty() || (f.next_mask >= limit && !faults_pending) ||
        budget_exceeded || result.safety_violation) {
      if (f.working.empty()) ++result.terminal_configs;
      color[f.config] = 2;
      finish_order.push_back(f.config);
      stack.pop_back();
      continue;
    }

    std::uint32_t bits = 0;        // DP accounting: completed rounds only
    std::uint32_t sigma_bits = 0;  // witness replay: the full chosen set
    const std::uint32_t fi = f.config;  // f may dangle after push_back
    std::optional<std::uint32_t> child;
    if (f.next_mask < limit) {
      const std::uint32_t mask = f.next_mask;
      f.next_mask = options_.mode == ActivationMode::sets
                        ? f.next_mask + 1
                        : f.next_mask << 1;

      std::vector<NodeId> sigma;
      for (std::uint32_t b = 0; b < wsize; ++b)
        if (mask & (1u << b)) {
          const NodeId v = f.working[b];
          sigma.push_back(v);
          sigma_bits |= 1u << v;
          // Activation accounting: in split semantics a round completes
          // at the read micro-step, so only read turns contribute.
          if (options_.atomicity == Atomicity::atomic ||
              configs[f.config].mid_round[v])
            bits |= 1u << v;
        }
      if (sigma.empty()) continue;

      ++result.transitions;
      child = intern(apply(configs[fi], sigma));
    } else {
      const NodeId v = f.working[f.next_fault];
      ++f.next_fault;
      ++result.transitions;
      sigma_bits = fault_witness_mark(
          v, options_.fault_mode == McFaultMode::crash_recovery);
      child = intern(fault_successor(configs[fi], v));
    }
    if (!child) {
      budget_exceeded = true;
      continue;
    }
    const std::uint32_t ci = *child;
    out_edges[fi].emplace_back(ci, bits);
    if (color[ci] == 0) {
      if (!check_config(configs[ci])) continue;
      color[ci] = 1;
      stack.push_back({ci, configs[ci].working(), 1, sigma_bits});
    } else if (color[ci] == 1) {
      if (!cycle_found) {
        // First livelock: extract the witness from the DFS stack.  The
        // stack spells root -> ... -> fi; the gray child ci sits somewhere
        // on it, so prefix = activations reaching ci, loop = activations
        // from ci back around through fi plus this closing edge.
        std::size_t ci_pos = 0;
        while (stack[ci_pos].config != ci) ++ci_pos;
        for (std::size_t i = 1; i <= ci_pos; ++i)
          result.livelock_prefix.push_back(stack[i].incoming_bits);
        for (std::size_t i = ci_pos + 1; i < stack.size(); ++i)
          result.livelock_loop.push_back(stack[i].incoming_bits);
        result.livelock_loop.push_back(sigma_bits);
      }
      cycle_found = true;  // keep exploring to finish counting
    }
  }

  result.completed = !budget_exceeded;
  result.wait_free = !cycle_found && result.completed &&
                     !result.safety_violation.has_value();
  result.configs = configs.size();
  std::sort(colors_used.begin(), colors_used.end());
  result.colors_used = std::move(colors_used);

  if (result.wait_free) {
    // DFS finish order is a reverse topological order of the DAG: every
    // descendant finishes before its ancestors, so children's DP values
    // are final when a node is processed.
    for (const std::uint32_t u : finish_order) {
      for (const auto& [child, bits] : out_edges[u]) {
        for (NodeId v = 0; v < n; ++v) {
          const std::uint64_t cand =
              worst[static_cast<std::size_t>(child) * n + v] +
              ((bits >> v) & 1u);
          auto& slot = worst[static_cast<std::size_t>(u) * n + v];
          slot = std::max(slot, cand);
        }
        steps[u] = std::max(steps[u], steps[child] + 1);
      }
    }
    result.worst_case_activations.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
      result.worst_case_activations[v] =
          worst[static_cast<std::size_t>(*root) * n + v];
    result.worst_case_steps = steps[*root];
  }
  return result;
}

template <Algorithm A>
ModelCheckResult ModelChecker<A>::run_reduced(unsigned jobs) {
  ModelCheckResult result;
  const NodeId n = graph_.node_count();
  const bool compress = options_.reductions.compress;
  const bool sym = options_.reductions.symmetry;
  const bool commute =
      options_.reductions.commute && options_.mode == ActivationMode::sets;
  const bool census = options_.reductions.census || sym;
  if (sym || census) FTCC_EXPECTS(is_standard_cycle(graph_));
  const std::uint64_t ident = identity_perm(n);
  const std::vector<std::uint32_t> adj = adjacency_masks(graph_);

  // Per-configuration metadata.  Interior configurations are NOT
  // retained — only the live frontier is materialised (that, plus the
  // tree-compressed keys, is the memory win over run(), which keeps every
  // configuration).  Check results are computed once at intern time so
  // Phase 2 can replay run()'s abort semantics without the payloads.
  struct REdge {
    std::uint32_t child;
    std::uint32_t bits;        // completed rounds (DP accounting)
    std::uint32_t sigma_bits;  // chosen set / fault mark (witness replay)
    std::uint64_t perm;        // parent-coord -> child-canonical position
  };
  struct Violation {
    std::string message;
    bool properness;
  };
  std::vector<std::vector<REdge>> edges;
  std::vector<std::uint8_t> terminal;
  std::vector<std::uint64_t> colors_flat;  // codes, per-config slices
  std::vector<std::uint32_t> colors_off{0};
  std::unordered_map<std::uint32_t, Violation> violation_at;

  // Visited index: StateStore handle -> config index under compress, the
  // full key -> config index otherwise.  Phase discipline, not locks: the
  // parallel expansion only calls const find(); every insert happens in
  // the single-threaded merge between the WorkerPool's fork/join edges.
  StateStore store;
  std::unordered_map<std::uint64_t, std::uint32_t> handle_index;
  std::unordered_map<std::vector<std::uint64_t>, std::uint32_t,
                     detail::VecHash>
      key_index;
  std::unordered_set<std::vector<std::uint64_t>, detail::VecHash> census_set;
  const auto reserve_hint = static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.max_configs, 65'536));
  if (compress) {
    store.reserve(reserve_hint);
    handle_index.reserve(reserve_hint);
  } else {
    key_index.reserve(reserve_hint);
  }

  struct KeyScratch {
    std::vector<std::uint64_t> words, canon;
    std::vector<std::uint32_t> offsets, probes;
  };

  // Engine key of a configuration: block-concatenated words (canonical
  // block order when sym) plus the global fault budget; returns the
  // orig->canonical position map (identity when !sym).
  const auto build_key = [&](const Config& c, KeyScratch& s,
                             std::vector<std::uint64_t>& key_out)
      -> std::uint64_t {
    encode_blocks(c, s.words, s.offsets);
    std::uint64_t perm = ident;
    if (sym) {
      const CycleCanon canon =
          canonicalize_cycle_blocks(s.words, s.offsets, n, s.canon);
      perm = pack_perm(canon.perm, n);
#ifndef NDEBUG
      // Certificate of canonicity: every D_n image of this configuration
      // canonicalises to the same representative (debug builds only; the
      // property tests exercise the same certificate in every build).
      FTCC_EXPECTS(certify_canonical(s.words, s.offsets, n, s.canon));
#endif
      key_out = s.canon;
    } else {
      key_out = s.words;
    }
    key_out.push_back(c.faults_left);
    return perm;
  };

  // Census key (canonical regardless of sym) — the differential
  // harness's quotient-consistency oracle.  With sym on, every stored
  // key IS canonical, so the census is just the interned count.
  const auto build_census_key = [&](KeyScratch& s, std::uint64_t faults)
      -> std::vector<std::uint64_t> {
    (void)canonicalize_cycle_blocks(s.words, s.offsets, n, s.canon);
    std::vector<std::uint64_t> k = s.canon;
    k.push_back(faults);
    return k;
  };

  const auto find_in = [](const auto& index, const auto& key)
      -> std::optional<std::uint32_t> {
    const auto it = index.find(key);
    if (it == index.end()) return std::nullopt;
    return it->second;
  };
  const auto probe = [&](const std::vector<std::uint64_t>& key,
                         std::vector<std::uint32_t>& scratch)
      -> std::optional<std::uint32_t> {
    if (!compress) return find_in(key_index, key);
    const auto h = store.lookup(key, scratch);
    if (!h) return std::nullopt;
    return find_in(handle_index, *h);
  };

  const auto intern_key = [&](std::vector<std::uint64_t>&& key,
                              std::uint32_t idx) {
    if (compress)
      handle_index.emplace(store.intern(key), idx);
    else
      key_index.emplace(std::move(key), idx);
  };

  // Reproduces run()'s check_config field for field, but records into
  // per-config slots consumed by the Phase 2 replay.
  const auto record_checks = [&](const Config& c, std::uint32_t idx) {
    for (NodeId v = 0; v < n; ++v) {
      if (!c.outputs[v]) continue;
      const auto code = A::color_code(*c.outputs[v]);
      colors_flat.push_back(code);
      if (options_.check_output_properness) {
        for (const NodeId u : graph_.neighbors(v)) {
          if (u < v || !c.outputs[u]) continue;
          if (code == A::color_code(*c.outputs[u]) &&
              violation_at.find(idx) == violation_at.end())
            violation_at.emplace(
                idx, Violation{"improper outputs on edge (" +
                                   std::to_string(v) + "," +
                                   std::to_string(u) + ")",
                               true});
        }
      }
    }
    if (options_.safety && violation_at.find(idx) == violation_at.end()) {
      if (auto err = options_.safety(c.states, c.registers, c.outputs))
        violation_at.emplace(idx, Violation{std::move(*err), false});
    }
    colors_off.push_back(static_cast<std::uint32_t>(colors_flat.size()));
  };

  // ---- Root: canonicalise the initial configuration; perm0 translates
  // results back into original coordinates.
  std::vector<Config> frontier_cfg;
  std::vector<std::uint32_t> frontier_idx;
  std::uint64_t perm0 = ident;
  {
    KeyScratch s;
    std::vector<std::uint64_t> root_key;
    perm0 = build_key(initial_, s, root_key);
    Config root_cfg = (sym && perm0 != ident)
                          ? permute_config(initial_, perm0)
                          : initial_;
    if (sym && perm0 != ident) ++result.sym_hits;
    if (census && !sym)
      census_set.insert(build_census_key(s, initial_.faults_left));
    intern_key(std::move(root_key), 0);
    edges.emplace_back();
    terminal.push_back(root_cfg.working().empty() ? 1 : 0);
    record_checks(root_cfg, 0);
    frontier_idx.push_back(0);
    frontier_cfg.push_back(std::move(root_cfg));
  }

  // ---- Phase 1: level-synchronised BFS discovery of the configuration
  // graph.  Workers expand the frontier in parallel — pure transitions,
  // the reduction layers, and read-only probes of the visited index —
  // then a sequential merge interns in (frontier item, successor) order,
  // so indices, edge lists and the budget cut-off are worker-count
  // independent.
  struct RPending {
    std::optional<std::uint32_t> existing;
    Config child;  // parent-coordinate payload; permuted at intern if sym
    std::vector<std::uint64_t> key;
    std::vector<std::uint64_t> census_key;  // census && !sym only
    std::uint32_t bits = 0;
    std::uint32_t sigma_bits = 0;
    std::uint64_t perm = 0;
  };
  struct RExpansion {
    std::vector<RPending> out;
    std::uint64_t skipped = 0;  // disconnected activation sets cut
  };

  WorkerPool pool(jobs == 0 ? 1 : jobs);
  std::vector<KeyScratch> scratch(pool.jobs());
  bool budget_exceeded = false;
  while (!frontier_cfg.empty() && !budget_exceeded) {
    std::vector<RExpansion> expanded(frontier_cfg.size());
    pool.run(frontier_cfg.size(), [&](std::size_t item, unsigned worker) {
      const Config& c = frontier_cfg[item];
      const std::vector<NodeId> working = c.working();
      const auto wsize = static_cast<std::uint32_t>(working.size());
      KeyScratch& s = scratch[worker];
      RExpansion& ex = expanded[item];

      const auto emit = [&](Config&& child, std::uint32_t bits,
                            std::uint32_t sigma_bits) {
        RPending p;
        p.bits = bits;
        p.sigma_bits = sigma_bits;
        p.child = std::move(child);
        p.perm = build_key(p.child, s, p.key);
        if (census && !sym)
          p.census_key = build_census_key(s, p.child.faults_left);
        p.existing = probe(p.key, s.probes);
        if (p.existing) p.child = Config{};
        ex.out.push_back(std::move(p));
      };

      std::vector<NodeId> sigma;
      if (commute) {
        // Commuting-activation reduction: only activation sets connected
        // in the induced subgraph (reduction.hpp); the enumeration order
        // is a pure function of the working set, so the merge stays
        // deterministic.  skipped counts the pruned subsets.
        std::uint32_t candidates = 0;
        for (const NodeId v : working) candidates |= 1u << v;
        std::uint64_t emitted = 0;
        for_each_connected_subset(adj, candidates, [&](std::uint32_t set) {
          ++emitted;
          sigma.clear();
          std::uint32_t bits = 0;
          for (std::uint32_t rest = set; rest != 0; rest &= rest - 1) {
            const auto v = static_cast<NodeId>(std::countr_zero(rest));
            sigma.push_back(v);
            if (options_.atomicity == Atomicity::atomic || c.mid_round[v])
              bits |= 1u << v;
          }
          emit(apply(c, sigma), bits, set);
        });
        if (wsize > 0)
          ex.skipped = ((std::uint64_t{1} << wsize) - 1) - emitted;
      } else {
        const std::uint32_t limit = 1u << wsize;
        for (std::uint32_t mask = 1; mask < limit;
             mask = options_.mode == ActivationMode::sets ? mask + 1
                                                          : mask << 1) {
          sigma.clear();
          std::uint32_t bits = 0;
          std::uint32_t sigma_bits = 0;
          for (std::uint32_t b = 0; b < wsize; ++b)
            if (mask & (1u << b)) {
              const NodeId v = working[b];
              sigma.push_back(v);
              sigma_bits |= 1u << v;
              if (options_.atomicity == Atomicity::atomic ||
                  c.mid_round[v])
                bits |= 1u << v;
            }
          emit(apply(c, sigma), bits, sigma_bits);
        }
      }
      // Fault stage, mirroring run(): after the activation sets, one
      // budgeted fault event per working node, in working order.
      if (options_.fault_mode != McFaultMode::none && c.faults_left > 0) {
        const bool recovery =
            options_.fault_mode == McFaultMode::crash_recovery;
        for (const NodeId v : working)
          emit(fault_successor(c, v), 0, fault_witness_mark(v, recovery));
      }
    });

    // Merge (sequential, deterministic order).
    std::vector<Config> next_cfg;
    std::vector<std::uint32_t> next_idx;
    KeyScratch merge_scratch;
    for (std::size_t item = 0;
         item < expanded.size() && !budget_exceeded; ++item) {
      const std::uint32_t parent = frontier_idx[item];
      result.commute_skipped += expanded[item].skipped;
      for (RPending& p : expanded[item].out) {
        if (sym && p.perm != ident) ++result.sym_hits;
        std::optional<std::uint32_t> idx = p.existing;
        if (!idx) idx = probe(p.key, merge_scratch.probes);
        if (!idx) {
          if (terminal.size() >= options_.max_configs) {
            budget_exceeded = true;
            break;
          }
          idx = static_cast<std::uint32_t>(terminal.size());
          Config stored = (sym && p.perm != ident)
                              ? permute_config(p.child, p.perm)
                              : std::move(p.child);
          intern_key(std::move(p.key), *idx);
          edges.emplace_back();
          terminal.push_back(stored.working().empty() ? 1 : 0);
          record_checks(stored, *idx);
          if (census && !sym) census_set.insert(std::move(p.census_key));
          next_idx.push_back(*idx);
          next_cfg.push_back(std::move(stored));
        }
        edges[parent].push_back({*idx, p.bits, p.sigma_bits, p.perm});
      }
    }
    frontier_cfg = std::move(next_cfg);
    frontier_idx = std::move(next_idx);
  }

  const std::uint64_t stored_total = terminal.size();
  result.store_entries = compress ? store.entries() : 0;
  result.store_bytes = compress ? store.bytes() : 0;
  result.canonical_classes =
      sym ? stored_total : (census ? census_set.size() : 0);

  // ---- Phase 2: sequential DFS replay over the stored edges.  Without
  // commute, edge lists are in exactly the order run() enumerates
  // successors, so this walk visits, checks, and finishes configurations
  // in run()'s order — reproducing its first-livelock witness, tallies,
  // and reverse-topological DP — with check data read from the
  // per-config slots and (under sym) activation sets and DP values
  // translated through the per-edge permutations.
  std::vector<std::uint64_t> colors_used;
  const auto check_at = [&](std::uint32_t idx) -> bool {
    for (std::uint32_t w = colors_off[idx]; w < colors_off[idx + 1]; ++w) {
      const std::uint64_t code = colors_flat[w];
      bool known = false;
      for (const auto x : colors_used) known |= (x == code);
      if (!known) colors_used.push_back(code);
    }
    const auto it = violation_at.find(idx);
    if (it != violation_at.end()) {
      if (it->second.properness) result.outputs_proper = false;
      if (!result.safety_violation)
        result.safety_violation = it->second.message;
    }
    return !result.safety_violation.has_value();
  };

  // Translate an edge's sigma_bits (frame coordinates) into original
  // coordinates through the orig->frame map (fault marks carry a node
  // index instead of a bitmask).
  const auto to_orig = [&](std::uint32_t sigma_bits,
                           std::uint64_t map) -> std::uint32_t {
    if (sigma_bits & kWitnessFaultFlag) {
      const NodeId frame_v = fault_witness_node(sigma_bits);
      const auto orig_v =
          static_cast<NodeId>(perm_at(invert_perm(map, n), frame_v));
      return (sigma_bits & ~(0xFu << 16)) |
             (static_cast<std::uint32_t>(orig_v) << 16);
    }
    return unpermute_bits(sigma_bits, map, n);
  };

  struct RFrame {
    std::uint32_t config;
    std::size_t next_edge;
    std::uint32_t incoming_orig;  // incoming activation, original coords
    std::uint64_t map;            // orig position -> frame position
  };
  std::vector<std::uint8_t> color(stored_total, 0);
  std::vector<std::uint8_t> touched(stored_total, 0);
  std::uint64_t interned = 1;  // the root
  touched[0] = 1;
  bool cycle_found = false;
  std::vector<std::uint32_t> finish_order;
  std::vector<RFrame> stack;
  if (check_at(0)) {
    color[0] = 1;
    stack.push_back({0, 0, 0, perm0});
  }
  while (!stack.empty()) {
    RFrame& f = stack.back();
    const std::vector<REdge>& out = edges[f.config];
    if (f.next_edge >= out.size() || result.safety_violation) {
      if (terminal[f.config]) ++result.terminal_configs;
      color[f.config] = 2;
      finish_order.push_back(f.config);
      stack.pop_back();
      continue;
    }
    const REdge e = out[f.next_edge];
    ++f.next_edge;
    ++result.transitions;
    if (!touched[e.child]) {
      touched[e.child] = 1;
      ++interned;
    }
    if (color[e.child] == 0) {
      if (!check_at(e.child)) continue;
      color[e.child] = 1;
      const std::uint64_t fmap = f.map;  // f may dangle after push_back
      stack.push_back({e.child, 0, to_orig(e.sigma_bits, fmap),
                       compose_perm(e.perm, fmap, n)});
    } else if (color[e.child] == 1) {
      if (!cycle_found) {
        std::size_t ci_pos = 0;
        while (stack[ci_pos].config != e.child) ++ci_pos;
        for (std::size_t i = 1; i <= ci_pos; ++i)
          result.livelock_prefix.push_back(stack[i].incoming_orig);
        // The loop closes in the QUOTIENT: one lap returns to the same
        // class, transformed by a D_n automorphism.  Unroll laps —
        // translating each step's frame-coordinate activation through
        // the evolving orig->frame map — until the automorphism returns
        // to the identity (its order divides 2n), which yields a
        // concrete loop of the original instance.
        const std::uint64_t m_start = stack[ci_pos].map;
        // Frame-coordinate sigma and per-edge perm of every loop step:
        // steps entering frames ci_pos+1..top, then the closing edge.
        std::vector<std::pair<std::uint32_t, std::uint64_t>> loop_steps;
        for (std::size_t i = ci_pos + 1; i < stack.size(); ++i) {
          const std::uint64_t prev_map = stack[i - 1].map;
          const std::uint32_t frame_sigma =
              (stack[i].incoming_orig & kWitnessFaultFlag)
                  ? to_orig(stack[i].incoming_orig,
                            invert_perm(prev_map, n))
                  : permute_bits(stack[i].incoming_orig, prev_map, n);
          loop_steps.emplace_back(
              frame_sigma,
              compose_perm(stack[i].map, invert_perm(prev_map, n), n));
        }
        loop_steps.emplace_back(e.sigma_bits, e.perm);
        std::uint64_t m = m_start;
        const std::size_t max_laps = 2 * static_cast<std::size_t>(n);
        for (std::size_t lap = 0; lap < max_laps; ++lap) {
          for (const auto& [frame_sigma, q] : loop_steps) {
            result.livelock_loop.push_back(to_orig(frame_sigma, m));
            m = compose_perm(q, m, n);
          }
          if (m == m_start) break;
        }
        FTCC_EXPECTS(m == m_start);
      }
      cycle_found = true;  // keep walking to finish counting
    }
  }

  result.completed = !budget_exceeded;
  result.wait_free = !cycle_found && result.completed &&
                     !result.safety_violation.has_value();
  result.configs = interned;
  std::sort(colors_used.begin(), colors_used.end());
  result.colors_used = std::move(colors_used);

  if (result.wait_free) {
    std::vector<std::uint64_t> worst(stored_total * n, 0);
    std::vector<std::uint64_t> steps(stored_total, 0);
    for (const std::uint32_t u : finish_order) {
      for (const REdge& e : edges[u]) {
        for (NodeId v = 0; v < n; ++v) {
          const std::uint64_t cand =
              worst[static_cast<std::size_t>(e.child) * n +
                    perm_at(e.perm, v)] +
              ((e.bits >> v) & 1u);
          auto& slot = worst[static_cast<std::size_t>(u) * n + v];
          slot = std::max(slot, cand);
        }
        steps[u] = std::max(steps[u], steps[e.child] + 1);
      }
    }
    result.worst_case_activations.assign(n, 0);
    for (NodeId v = 0; v < n; ++v)
      result.worst_case_activations[v] =
          worst[perm_at(perm0, v)];  // root is index 0, root coords perm0
    result.worst_case_steps = steps[0];
  }

  if (metrics_ != nullptr) {
    if (metrics_->states != nullptr) metrics_->states->inc(stored_total);
    if (metrics_->transitions != nullptr)
      metrics_->transitions->inc(result.transitions);
    if (metrics_->store_entries != nullptr && compress)
      metrics_->store_entries->inc(result.store_entries);
    if (metrics_->store_bytes != nullptr && compress) {
      metrics_->store_bytes->set(static_cast<double>(result.store_bytes));
      if (metrics_->bytes_per_state != nullptr && stored_total > 0)
        metrics_->bytes_per_state->set(
            static_cast<double>(result.store_bytes) /
            static_cast<double>(stored_total));
    }
    if (metrics_->quotient_hits != nullptr)
      metrics_->quotient_hits->inc(result.sym_hits);
    if (metrics_->commute_skips != nullptr)
      metrics_->commute_skips->inc(result.commute_skipped);
  }
  return result;
}

}  // namespace ftcc
