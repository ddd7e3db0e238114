// The DECOUPLED model of the paper's closest related work ([13] Castañeda
// et al., [18] Delporte-Gallet et al., §1.4): asynchronous crash-prone
// processes on top of a SYNCHRONOUS, RELIABLE network.  Messages travel at
// speed 1 and are buffered — a process that wakes late still finds
// everything that passed through it.  The model is strictly stronger than
// the paper's fully-asynchronous state model: 3-coloring the cycle is
// possible here, while Property 2.3 shows fewer than 5 colors is
// impossible there.
//
// This substrate implements the *generic transfer* of [18] for 1-hop LOCAL
// cycle algorithms: a process computes its LOCAL round k as soon as the
// buffered round-(k-1) states of both neighbours have been delivered.
// With failure-free (if arbitrarily scheduled) processes, any LOCAL
// algorithm — here classical Cole–Vishkin 3-coloring — transfers with
// constant dilation.  The transfer is deliberately naive about crashes:
// a crashed process stops producing round messages and its neighbours
// stall, which is exactly the gap [13] closes with bespoke algorithms and
// the motivation for this paper's even weaker model (see
// tests/decoupled_test.cpp and bench_decoupled).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "localmodel/sync_local.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace ftcc {

template <typename Output>
struct DecoupledResult {
  bool completed = false;  ///< every non-crashed process finished
  std::uint64_t steps = 0;
  std::vector<std::uint64_t> activations;
  std::vector<std::optional<Output>> outputs;
  std::vector<bool> crashed;
  std::vector<bool> stalled;  ///< unfinished at the budget (blocked)

  [[nodiscard]] std::uint64_t max_activations() const {
    std::uint64_t m = 0;
    for (auto a : activations) m = std::max(m, a);
    return m;
  }
};

/// Runs a synchronous-cycle LOCAL algorithm in the DECOUPLED model.
template <SyncCycleAlgorithm A>
class DecoupledExecutor {
 public:
  using Output = std::uint64_t;

  DecoupledExecutor(A algo, const IdAssignment& ids, CrashPlan crashes = {})
      : algo_(std::move(algo)),
        n_(static_cast<NodeId>(ids.size())),
        crash_plan_(std::move(crashes)),
        histories_(n_),
        publish_steps_(n_),
        activations_(n_, 0),
        finished_(n_, false),
        crashed_(n_, false) {
    FTCC_EXPECTS(n_ >= 3);
    for (NodeId v = 0; v < n_; ++v)
      histories_[v].push_back(algo_.init(v, ids[v]));
    // publish_steps_[v][k]: network step at which v's round-k state was
    // sent; round 0 (the input) goes out at the node's first activation.
  }

  /// One network step with activation set sigma.  Each activated working
  /// process: (1) sends any yet-unsent computed states (including its
  /// input, at its first activation); (2) if both neighbours' states for
  /// its current round were delivered (sent at an earlier step), computes
  /// the next round.  The network itself needs no activation: delivery is
  /// implicit in the publish-step stamps.
  void step(std::span<const NodeId> sigma) {
    ++now_;
    apply_crashes();
    for (NodeId v : sigma) {
      FTCC_EXPECTS(v < n_);
      if (crashed_[v] || finished_[v]) continue;
      ++activations_[v];
      // Send everything computed but not yet sent.
      while (publish_steps_[v].size() < histories_[v].size())
        publish_steps_[v].push_back(now_);
      // Compute the next round if the dependencies were delivered.
      const std::size_t round = histories_[v].size() - 1;
      const NodeId pred = v == 0 ? n_ - 1 : v - 1;
      const NodeId succ = v + 1 == n_ ? 0 : v + 1;
      if (delivered(pred, round) && delivered(succ, round)) {
        typename A::State next = histories_[v][round];
        algo_.round(next, histories_[pred][round], histories_[succ][round]);
        histories_[v].push_back(std::move(next));
        if (algo_.finished(histories_[v].back())) finished_[v] = true;
      }
    }
  }

  DecoupledResult<Output> run(Scheduler& sched, std::uint64_t max_steps) {
    std::vector<NodeId> working;
    while (now_ < max_steps) {
      working.clear();
      for (NodeId v = 0; v < n_; ++v)
        if (!crashed_[v] && !finished_[v]) working.push_back(v);
      if (working.empty()) break;
      const auto sigma = sched.next(working, now_ + 1);
      step(sigma);
    }
    DecoupledResult<Output> result;
    result.steps = now_;
    result.activations = activations_;
    result.outputs.resize(n_);
    result.crashed.assign(crashed_.begin(), crashed_.end());
    result.stalled.assign(n_, false);
    result.completed = true;
    for (NodeId v = 0; v < n_; ++v) {
      if (finished_[v]) {
        result.outputs[v] = algo_.output(histories_[v].back());
      } else if (!crashed_[v]) {
        result.stalled[v] = true;
        result.completed = false;
      }
    }
    return result;
  }

  [[nodiscard]] std::size_t rounds_computed(NodeId v) const {
    return histories_[v].size() - 1;
  }
  [[nodiscard]] bool is_finished(NodeId v) const { return finished_[v]; }

 private:
  /// Was u's round-k state sent strictly before the current step (i.e. is
  /// it delivered to its neighbours now)?
  [[nodiscard]] bool delivered(NodeId u, std::size_t k) const {
    return publish_steps_[u].size() > k && publish_steps_[u][k] < now_;
  }

  void apply_crashes() {
    if (crash_plan_.empty()) return;
    for (NodeId v = 0; v < n_; ++v)
      if (!crashed_[v] && crash_plan_.crashes_at(v, now_, activations_[v]))
        crashed_[v] = true;
  }

  A algo_;
  NodeId n_;
  CrashPlan crash_plan_;
  std::vector<std::vector<typename A::State>> histories_;
  std::vector<std::vector<std::uint64_t>> publish_steps_;
  std::vector<std::uint64_t> activations_;
  std::vector<bool> finished_;
  std::vector<bool> crashed_;
  std::uint64_t now_ = 0;
};

}  // namespace ftcc
