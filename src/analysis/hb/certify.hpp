// The race/atomicity certifier (DESIGN.md §8).  Given the happens-before
// event log of a ThreadedExecutor run, certify that the run linearizes to
// a legal execution of the paper's state model and that every decision
// the threads made is reproduced by a sequential re-execution.
//
// The certified target is *split* semantics with per-register reads —
// every seqlock publish and every neighbour read is its own atomic point.
// That is the semantics the threaded executor actually provides (its
// header derives its guarantees from the E16 atomicity ablation): real
// threads are preempted between their write and their reads, and between
// the two neighbour reads of one round, so demanding the paper's atomic
// write-read round of the raw hardware would reject healthy runs.  The
// pipeline is:
//
//   1. *Well-formedness + direct race checks* — seqlock version protocol
//      (strictly increasing even versions), torn reads (observed words
//      differ from what that version's publish stored), stale reads
//      (a reader's observed versions of one neighbour decrease), publish–
//      read overlaps (odd observed version), phantom versions, degraded
//      reads without a dead writer.  Any hit is a certification failure
//      with the offending events named.
//   2. *Happens-before graph + vector clocks* — program order per node,
//      plus write→read edges (a read observing version 2j comes after the
//      j-th write and before the (j+1)-th write of that cell).  A cycle
//      means the run is not linearizable; vector clocks computed over the
//      acyclic graph power the diagnostics (two events are racing iff
//      their clocks are incomparable).
//   3. *Linearization + re-execution* — a deterministic topological order
//      is replayed sequentially against the state model: every publish
//      must equal publish(state), every read must deliver exactly the
//      linearized register contents, every termination must match.  This
//      is the decision-equivalence proof obligation: the concurrent run
//      IS a state-model execution, activation for activation.
//   4. *Atomic collapse (bonus, fault-free runs)* — when every round's
//      micro-events can be made contiguous, the run collapses to a
//      σ-schedule of the paper's ATOMIC model and is re-executed on the
//      sequential Executor as an end-to-end cross-check.  Failure to
//      collapse is not a violation (split semantics is the guarantee);
//      the report records which level was reached.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/span.hpp"
#include "runtime/executor.hpp"
#include "runtime/hb_log.hpp"
#include "runtime/threaded_executor.hpp"
#include "sched/schedulers.hpp"
#include "util/assert.hpp"

namespace ftcc {

struct CertifyViolation {
  /// Machine-readable kind: "torn-read", "stale-read", "overlap",
  /// "phantom-version", "version-protocol", "degraded-read", "malformed",
  /// "cycle", "divergence", "atomic-divergence".
  std::string kind;
  std::string message;
};

/// One micro-event address: (node, index into log.events(node)).
struct HbRef {
  NodeId node = 0;
  std::uint32_t index = 0;
  friend bool operator==(const HbRef&, const HbRef&) = default;
};

/// The algorithm-agnostic happens-before analysis: direct race checks,
/// the HB graph, vector clocks, and a deterministic linearization.
struct HbAnalysis {
  bool ok = false;
  std::vector<CertifyViolation> violations;
  /// Linearized micro-events (valid iff ok).
  std::vector<HbRef> order;
  /// Vector clock per event, addressed clocks[node][index][other_node]
  /// (valid iff ok).  clock(e)[u] = number of u's events HB-before-or-at e.
  std::vector<std::vector<std::vector<std::uint32_t>>> clocks;
  /// Stage wall times in µs: [0] direct checks, [1] HB graph,
  /// [2] linearization + vector clocks.  Diagnostics only — never fed back
  /// into any decision.
  std::array<std::uint64_t, 3> stage_us{};

  /// True iff neither event happens-before the other (they raced).
  [[nodiscard]] bool concurrent(const HbRef& a, const HbRef& b) const {
    const auto& ca = clocks[a.node][a.index];
    const auto& cb = clocks[b.node][b.index];
    const bool a_before_b = ca[a.node] <= cb[a.node];
    const bool b_before_a = cb[b.node] <= ca[b.node];
    return !a_before_b && !b_before_a;
  }
};

/// Run well-formedness checks, build the HB graph, compute vector clocks,
/// and linearize.  Pure function of the log and the topology (stage_us and
/// the optional trace spans record wall time but influence nothing).
[[nodiscard]] HbAnalysis analyze_hb(const HbLog& log, const Graph& graph,
                                    obs::TraceSink* trace = nullptr);

/// Try to collapse a linearizable, fault-free log to a σ-schedule of the
/// ATOMIC model (one singleton activation per completed round).  Returns
/// nullopt when rounds cannot be made contiguous (split-only run) or when
/// the log contains adversary/stall/degraded events.
[[nodiscard]] std::optional<std::vector<std::vector<NodeId>>> collapse_atomic(
    const HbLog& log, const Graph& graph);

struct CertifyReport {
  bool linearizable = false;  ///< stages 1–2 passed
  bool equivalent = false;    ///< stage 3 passed (decision equivalence)
  bool atomic = false;        ///< stage 4 collapsed and matched Executor
  std::size_t events = 0;
  std::uint64_t rounds = 0;  ///< completed rounds across all nodes
  std::vector<CertifyViolation> violations;
  /// The σ-schedule of the atomic collapse (valid iff atomic).
  std::vector<std::vector<NodeId>> atomic_schedule;
  /// Stage wall times in µs: [0] direct checks, [1] HB graph,
  /// [2] linearization, [3] sequential re-execution, [4] atomic collapse.
  /// Stages that never ran (earlier failure) stay 0.
  std::array<std::uint64_t, 5> stage_us{};

  [[nodiscard]] bool ok() const { return linearizable && equivalent; }
  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    if (ok()) {
      os << "certified (" << (atomic ? "atomic" : "split") << ", " << events
         << " events, " << rounds << " rounds)";
    } else {
      os << "FAILED:";
      for (const auto& v : violations)
        os << " [" << v.kind << "] " << v.message << ";";
    }
    return os.str();
  }
};

namespace hb_detail {

/// Per-node replay cursor for the sequential re-execution (stage 3).
template <typename A>
struct ReplayNode {
  typename A::State state;
  std::vector<std::optional<typename A::Register>> view;
  std::size_t reads_this_round = 0;
  std::uint64_t rounds_done = 0;
  std::optional<std::uint64_t> output_code;
  bool finished_seen = false;  ///< the log's finish event was consumed
  bool dead = false;           ///< stalled: no further events legal
};

inline std::string ref_name(NodeId node, std::uint64_t round,
                            const char* what) {
  std::ostringstream os;
  os << "node " << node << " round " << round << " " << what;
  return os.str();
}

}  // namespace hb_detail

/// Stage 3: re-execute the linearized order sequentially against the state
/// model and check decision equivalence.  Appends violations on mismatch;
/// returns the number of completed rounds.
template <ThreadSafeAlgorithm A>
std::uint64_t replay_linearization(const A& algo, const Graph& graph,
                                   const IdAssignment& ids, const HbLog& log,
                                   const std::vector<HbRef>& order,
                                   std::vector<CertifyViolation>& violations) {
  using Register = typename A::Register;
  const NodeId n = graph.node_count();
  std::vector<std::optional<Register>> registers(n);
  std::vector<hb_detail::ReplayNode<A>> nodes;
  nodes.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back({algo.init(v, ids[v], graph.degree(v)),
                     std::vector<std::optional<Register>>(
                         graph.neighbors(v).size()),
                     0, 0, std::nullopt, false, false});
  }
  std::uint64_t rounds = 0;
  const auto diverge = [&](NodeId v, std::uint64_t round, const char* what,
                           const std::string& detail) {
    violations.push_back(
        {"divergence", hb_detail::ref_name(v, round, what) + ": " + detail});
  };
  for (const HbRef& ref : order) {
    if (!violations.empty()) break;  // first divergence is the witness
    const HbEvent& e = log.events(ref.node)[ref.index];
    const NodeId v = ref.node;
    auto& rn = nodes[v];
    if (rn.dead && e.kind != HbEventKind::revive) {
      diverge(v, e.round, "event", "events after a mid-publish stall");
      break;
    }
    if (rn.finished_seen ||
        (rn.output_code && e.kind != HbEventKind::finish)) {
      diverge(v, e.round, "event", "events after termination");
      break;
    }
    switch (e.kind) {
      case HbEventKind::publish: {
        std::vector<std::uint64_t> expected;
        expected.reserve(A::kRegisterWords);
        algo.publish(rn.state).encode(expected);
        if (expected != e.words) {
          diverge(v, e.round, "publish",
                  "published words differ from publish(state)");
          break;
        }
        registers[v] = A::decode_register(e.words);
        break;
      }
      case HbEventKind::adversary:
        registers[v] = A::decode_register(e.words);
        break;
      case HbEventKind::stall:
        // The trashed cell reads as ⊥ from here on (timed-out readers),
        // until a revival's first publish heals the odd version.
        registers[v] = std::nullopt;
        rn.dead = true;
        break;
      case HbEventKind::revive:
        // Restart-with-revival (src/dist/): the process is re-forked with
        // its private state wiped back to init().  The register keeps
        // whatever the crash left — ⊥ after a torn publish (stall), the
        // adversary's value after a zeroed recovery — until the revived
        // node publishes.
        rn.dead = false;
        rn.state = algo.init(v, ids[v], graph.degree(v));
        rn.reads_this_round = 0;
        std::fill(rn.view.begin(), rn.view.end(), std::nullopt);
        break;
      case HbEventKind::read:
      case HbEventKind::read_timeout: {
        const auto neighbors = graph.neighbors(v);
        if (rn.reads_this_round >= neighbors.size()) {
          diverge(v, e.round, "read", "more reads than neighbours");
          break;
        }
        const NodeId expect_peer = neighbors[rn.reads_this_round];
        if (e.peer != expect_peer) {
          diverge(v, e.round, "read",
                  "out of neighbour order (saw " + std::to_string(e.peer) +
                      ", expected " + std::to_string(expect_peer) + ")");
          break;
        }
        // What the linearized state model delivers at this point:
        const std::optional<Register>& model_value = registers[e.peer];
        if (e.kind == HbEventKind::read_timeout || e.version == 0) {
          if (model_value.has_value()) {
            diverge(v, e.round, "read",
                    "thread saw ⊥ but the linearized register has a value");
            break;
          }
        } else {
          if (!model_value.has_value()) {
            diverge(v, e.round, "read",
                    "thread saw a value but the linearized register is ⊥");
            break;
          }
          std::vector<std::uint64_t> model_words;
          model_words.reserve(A::kRegisterWords);
          model_value->encode(model_words);
          if (model_words != e.words) {
            diverge(v, e.round, "read",
                    "observed words differ from the linearized register");
            break;
          }
        }
        rn.view[rn.reads_this_round++] = model_value;
        if (rn.reads_this_round == neighbors.size()) {
          // The round's reads are complete: run the private transition.
          rn.reads_this_round = 0;
          ++rn.rounds_done;
          ++rounds;
          auto out =
              algo.step(rn.state, NeighborView<Register>(rn.view));
          if (out) rn.output_code = A::color_code(*out);
        }
        break;
      }
      case HbEventKind::finish:
        // finish is recorded by the thread right after its deciding step;
        // in replay the step already ran when the round's last read landed.
        rn.finished_seen = true;
        if (!rn.output_code) {
          diverge(v, e.round, "finish",
                  "thread terminated but the re-executed step did not");
        } else if (*rn.output_code != e.version) {
          diverge(v, e.round, "finish",
                  "color " + std::to_string(e.version) +
                      " but the re-executed step chose " +
                      std::to_string(*rn.output_code));
        }
        break;
    }
  }
  if (violations.empty()) {
    // A thread that terminated must have been replayed to the same output;
    // conversely replay must not terminate nodes the thread left working.
    for (NodeId v = 0; v < n; ++v) {
      const auto& events = log.events(v);
      const bool thread_finished =
          !events.empty() && events.back().kind == HbEventKind::finish;
      if (thread_finished != nodes[v].output_code.has_value())
        violations.push_back(
            {"divergence",
             hb_detail::ref_name(v, nodes[v].rounds_done, "termination") +
                 ": thread and re-execution disagree"});
    }
  }
  return rounds;
}

/// Stage 4: replay an atomic σ-schedule on the sequential Executor and
/// check outputs and activation counts against the log.
template <ThreadSafeAlgorithm A>
bool replay_atomic(const A& algo, const Graph& graph, const IdAssignment& ids,
                   const HbLog& log,
                   const std::vector<std::vector<NodeId>>& sigmas,
                   std::vector<CertifyViolation>& violations) {
  Executor<A> ex(algo, graph, ids);
  ReplayScheduler sched(sigmas);
  const auto result = ex.run(sched, sigmas.size());
  bool ok = true;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const auto& events = log.events(v);
    std::optional<std::uint64_t> logged_code;
    std::uint64_t logged_rounds = 0;
    for (const HbEvent& e : events) {
      if (e.kind == HbEventKind::finish) logged_code = e.version;
      if (e.kind == HbEventKind::read || e.kind == HbEventKind::read_timeout)
        ++logged_rounds;
    }
    logged_rounds /= std::max<std::size_t>(graph.neighbors(v).size(), 1);
    const auto& out = result.outputs[v];
    const bool match_output =
        out.has_value() == logged_code.has_value() &&
        (!out || A::color_code(*out) == *logged_code);
    if (!match_output || result.activations[v] != logged_rounds) {
      violations.push_back(
          {"atomic-divergence",
           hb_detail::ref_name(v, logged_rounds, "atomic replay") +
               ": Executor run of the collapsed schedule disagrees"});
      ok = false;
    }
  }
  return ok;
}

/// The full pipeline over a recorded log.  When `trace` is non-null each
/// stage lands as a complete event in the Chrome-trace sink; stage_us is
/// filled either way.
template <ThreadSafeAlgorithm A>
CertifyReport certify_log(const A& algo, const Graph& graph,
                          const IdAssignment& ids, const HbLog& log,
                          obs::TraceSink* trace = nullptr) {
  FTCC_EXPECTS(ids.size() == graph.node_count());
  FTCC_EXPECTS(log.node_count() == graph.node_count());
  CertifyReport report;
  report.events = log.total_events();
  HbAnalysis analysis = analyze_hb(log, graph, trace);
  report.violations = std::move(analysis.violations);
  report.linearizable = analysis.ok;
  report.stage_us[0] = analysis.stage_us[0];
  report.stage_us[1] = analysis.stage_us[1];
  report.stage_us[2] = analysis.stage_us[2];
  if (!report.linearizable) return report;
  {
    obs::Span span(trace, "certify.reexecute", "certify");
    report.rounds = replay_linearization(algo, graph, ids, log,
                                         analysis.order, report.violations);
    report.stage_us[3] = span.end();
  }
  report.equivalent = report.violations.empty();
  if (!report.equivalent) return report;
  obs::Span span(trace, "certify.collapse", "certify");
  if (auto sigmas = collapse_atomic(log, graph)) {
    if (replay_atomic(algo, graph, ids, log, *sigmas, report.violations)) {
      report.atomic = true;
      report.atomic_schedule = std::move(*sigmas);
    } else {
      // An atomic-collapse mismatch is a real certification failure: the
      // schedule satisfied every version constraint yet the Executor
      // disagreed with the threads.
      report.equivalent = false;
    }
  }
  report.stage_us[4] = span.end();
  return report;
}

}  // namespace ftcc
