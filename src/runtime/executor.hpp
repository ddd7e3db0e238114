// The asynchronous state-model executor (paper, Section 2).
//
// Time is discrete.  At each step t the scheduler hands over σ(t), a set of
// nodes to activate.  An activation of a *working* node p (not terminated,
// not crashed) is the atomic write-read-update round of the paper:
//
//   1. every activated node writes publish(state) into its register;
//   2. every activated node reads its neighbours' registers — after ALL
//      simultaneous writes, matching "the system behaves as if each of
//      these processes first wrote a value in its own register, then all
//      processes read all registers" (Section 2.1);
//   3. every activated node runs its private transition, possibly
//      returning an output (termination).
//
// A node that returns has already written in the same activation (the
// pseudo-code's write precedes the return test), and its register stays
// frozen forever after.  A crashed node simply never appears in σ again.
//
// Beyond the paper's crash-stop adversary, the executor applies FaultPlan
// events at activation boundaries (start of each step, before any write):
// crash-recovery takes a node out of the working set for a fixed number of
// steps and revives it with its private state wiped back to init() and its
// register ⊥ / zeroed / rolled back to a stale snapshot; corruption mutates
// the published words of a working node's register in place.  Registers the
// adversary touched are *tainted* until their owner republishes, so monitors
// can tell adversary writes from algorithm writes.  Faults never target a
// terminated node's frozen register: no terminating algorithm can survive
// that (nobody will ever rewrite it), so it is outside every fault model
// we implement — see DESIGN.md "Fault model".
//
// The executor is deliberately sequential and deterministic: the paper's
// model *is* an interleaving semantics, so simulating it with threads
// would only add nondeterminism we would then have to remove.  Campaign
// parallelism runs *whole executors* on worker threads (DESIGN.md §10);
// to make that cheap, the executor is reusable: reset() re-arms it for a
// new trial while keeping every heap block it ever grew — registers live
// in flat RegisterFile arenas (contiguous slots + presence bitmaps), the
// neighbour-view scratch is pre-sized to the graph's maximum degree, and
// a steady-state activation performs zero heap allocations (asserted by
// tests/executor_alloc_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/runtime_metrics.hpp"
#include "graph/ids.hpp"
#include "runtime/algorithm.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/register_file.hpp"
#include "runtime/result.hpp"
#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace ftcc {

template <Algorithm A>
class Executor {
 public:
  using Register = typename A::Register;
  using State = typename A::State;
  using Output = typename A::Output;

  /// An invariant is checked after every time step; it returns an error
  /// description on violation, which aborts the run and is surfaced in the
  /// result of run() via violation().
  using Invariant =
      std::function<std::optional<std::string>(const Executor&)>;

  Executor(A algo, const Graph& graph, const IdAssignment& ids,
           FaultPlan fault_plan = {})
      : algo_(std::move(algo)) {
    rearm(graph, ids, std::move(fault_plan));
  }

  /// Re-arm for a fresh trial, reusing every buffer this executor ever
  /// grew (the per-worker reuse path of the parallel campaigns).  The
  /// result is indistinguishable from a newly constructed executor:
  /// invariants are cleared and metrics are detached, exactly like a
  /// fresh build.  `graph` must outlive the next run, as always.
  void reset(A algo, const Graph& graph, const IdAssignment& ids,
             FaultPlan fault_plan = {}) {
    algo_ = std::move(algo);
    rearm(graph, ids, std::move(fault_plan));
  }

 private:
  void rearm(const Graph& graph, const IdAssignment& ids,
             FaultPlan fault_plan) {
    FTCC_EXPECTS(ids.size() == graph.node_count());
    graph_ = &graph;
    ids_.assign(ids.begin(), ids.end());
    fault_plan_ = std::move(fault_plan);
    const NodeId n = graph.node_count();
    registers_.reset(n);
    prev_registers_.reset(n);
    terminated_.assign(n, false);
    crashed_.assign(n, false);
    down_.assign(n, false);
    tainted_.assign(n, false);
    activations_.assign(n, 0);
    recoveries_.assign(n, 0);
    outputs_.assign(n, std::nullopt);
    invariants_.clear();
    metrics_ = nullptr;
    pending_ = PendingMetrics{};
    violation_.reset();
    now_ = 0;
    down_count_ = 0;
    states_.clear();
    states_.reserve(n);
    for (NodeId v = 0; v < n; ++v)
      states_.push_back(algo_.init(v, ids[v], graph.degree(v)));
    working_.clear();
    working_.reserve(n);
    scratch_sigma_.clear();
    scratch_sigma_.reserve(n);
    in_sigma_.assign(n, false);
    if (scratch_view_.size() < static_cast<std::size_t>(graph.max_degree()))
      scratch_view_.resize(static_cast<std::size_t>(graph.max_degree()));
  }

 public:
  void add_invariant(Invariant inv) { invariants_.push_back(std::move(inv)); }

  /// Attach a metric bundle (obs::ExecutorMetrics::create); the cells
  /// must outlive the executor.  Detached (the default), instrumentation
  /// costs one branch per event.  Events accumulate in plain per-executor
  /// integers and reach the shared atomic cells in one flush_metrics()
  /// pass at the end of each run() (the batching that keeps the attached
  /// overhead inside the <=5% budget of bench_obs).
  void attach_metrics(const obs::ExecutorMetrics* metrics) {
    metrics_ = metrics;
  }

  /// Publish the locally accumulated counts into the attached cells and
  /// reset them.  run() calls this on exit; tests that drive step() by
  /// hand call it before reading the registry.
  void flush_metrics() {
    if (!metrics_) return;
    if (pending_.publishes) metrics_->publishes->inc(pending_.publishes);
    if (pending_.activations) metrics_->activations->inc(pending_.activations);
    if (pending_.crashes) metrics_->crashes->inc(pending_.crashes);
    if (pending_.recoveries) metrics_->recoveries->inc(pending_.recoveries);
    if (pending_.corruptions) metrics_->corruptions->inc(pending_.corruptions);
    if (pending_.terminations) {
      metrics_->terminations->inc(pending_.terminations);
      metrics_->termination_step->merge_buckets(pending_.term_step_buckets,
                                               pending_.term_step_sum);
    }
    pending_ = PendingMetrics{};
  }

  /// Execute one time step with activation set sigma (non-working nodes are
  /// ignored).  Returns the number of nodes actually activated.
  std::size_t step(std::span<const NodeId> sigma) {
    ++now_;
    apply_step_faults();
    scratch_sigma_.clear();
    if (in_sigma_.size() < graph_->node_count())
      in_sigma_.assign(graph_->node_count(), false);
    for (NodeId v : sigma) {
      FTCC_EXPECTS(v < graph_->node_count());
      // σ(t) is a set: a node activates at most once per time step, even
      // if the scheduler lists it twice.
      if (is_working(v) && !in_sigma_[v]) {
        in_sigma_[v] = true;
        scratch_sigma_.push_back(v);
      }
    }
    for (NodeId v : scratch_sigma_) in_sigma_[v] = false;
    // Phase 1: all simultaneous writes.  The previous register value is
    // kept as the stale snapshot a crash-recovery fault may replay.
    for (NodeId v : scratch_sigma_) {
      prev_registers_.copy_from(registers_, v);
      registers_.store(v, algo_.publish(states_[v]));
      tainted_[v] = false;  // the owner's own write heals any taint
    }
    if (metrics_) {
      pending_.publishes += scratch_sigma_.size();
      pending_.activations += scratch_sigma_.size();
    }
    // Phases 2+3: reads and private transitions.  Registers are only
    // mutated in phase 1, so reading them lazily here is equivalent to a
    // separate snapshot phase.
    for (NodeId v : scratch_sigma_) {
      ++activations_[v];
      auto out = algo_.step(states_[v], gather_view(v));
      if (out) {
        outputs_[v] = std::move(*out);
        terminated_[v] = true;
        if (metrics_) {
          ++pending_.terminations;
          ++pending_.term_step_buckets[log2_bucket_index(now_)];
          pending_.term_step_sum += now_;
        }
      }
      if (fault_plan_.crashes_at(v, now_, activations_[v])) {
        crashed_[v] = true;
        if (metrics_) ++pending_.crashes;
      }
    }
    check_invariants();
    return scratch_sigma_.size();
  }

  /// Run under a scheduler until every node terminated or crashed, or the
  /// step budget is exhausted.  While a crash-recovery revival is pending
  /// the run idles through empty steps rather than stopping early, so a
  /// revived node always gets its chance to re-quiesce.  Idle steps do
  /// not consult the scheduler: schedules are indexed by step number
  /// (ReplayScheduler, RecordingScheduler), never by call count.
  ExecutionResult<Output> run(Scheduler& sched, std::uint64_t max_steps) {
    while (now_ < max_steps) {
      refresh_working();
      if (violation_) break;
      if (working_.empty()) {
        if (!revival_pending()) break;
        step({});  // nobody to schedule, but a revival clock is ticking
        continue;
      }
      const auto sigma = sched.next(working_, now_ + 1);
      step(sigma);
    }
    refresh_working();
    ExecutionResult<Output> result;
    result.completed = working_.empty() && !revival_pending() && !violation_;
    result.steps = now_;
    result.activations = activations_;
    result.outputs = outputs_;
    result.crashed = std::vector<bool>(crashed_.begin(), crashed_.end());
    result.fates.resize(graph_->node_count());
    for (NodeId v = 0; v < graph_->node_count(); ++v) {
      result.fates[v] = terminated_[v] ? NodeFate::terminated
                        : crashed_[v] ? NodeFate::crashed
                        : down_[v]    ? NodeFate::down
                                      : NodeFate::timed_out;
    }
    flush_metrics();
    return result;
  }

  // --- Introspection (used by invariants, tests, the model checker) ----
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  [[nodiscard]] bool is_working(NodeId v) const {
    return !terminated_[v] && !crashed_[v] && !down_[v];
  }
  [[nodiscard]] bool has_terminated(NodeId v) const { return terminated_[v]; }
  [[nodiscard]] bool has_crashed(NodeId v) const { return crashed_[v]; }
  /// True while the node sits between a crash-recovery fault and its
  /// revival step.
  [[nodiscard]] bool is_down(NodeId v) const { return down_[v]; }
  /// True iff the last write to v's register came from the adversary (a
  /// corruption, or a zero/stale install at revival) rather than from the
  /// algorithm.  Cleared by the owner's next publish.
  [[nodiscard]] bool register_tainted(NodeId v) const { return tainted_[v]; }
  /// How many times the node revived from a crash-recovery fault.
  [[nodiscard]] std::uint64_t recovery_count(NodeId v) const {
    return recoveries_[v];
  }
  [[nodiscard]] const State& state(NodeId v) const { return states_[v]; }
  /// The register contents, ⊥ as std::nullopt.  Returned by value since
  /// the registers moved into flat arena storage (there is no
  /// std::optional object to reference); a Register is a few words, and
  /// `const auto&` call sites bind the temporary as before.
  [[nodiscard]] std::optional<Register> published(NodeId v) const {
    return registers_.get(v);
  }
  [[nodiscard]] std::uint64_t activation_count(NodeId v) const {
    return activations_[v];
  }
  [[nodiscard]] const std::optional<Output>& output(NodeId v) const {
    return outputs_[v];
  }
  [[nodiscard]] const std::optional<std::string>& violation() const noexcept {
    return violation_;
  }

  /// Externally crash a node (for tests driving steps by hand).
  void crash(NodeId v) { crashed_[v] = true; }

 private:
  void apply_step_faults() {
    if (fault_plan_.empty()) return;
    for (NodeId v = 0; v < graph_->node_count(); ++v) {
      if (!crashed_[v] && fault_plan_.crashes_at(v, now_, activations_[v])) {
        crashed_[v] = true;
        if (metrics_ && !terminated_[v]) ++pending_.crashes;
      }
      apply_recovery(v);
      apply_corruptions(v);
    }
  }

  void apply_recovery(NodeId v) {
    const auto& fault = fault_plan_.recovery(v);
    if (!fault) return;
    // Crash-stop and termination both preempt a pending recovery: a frozen
    // register is never rewritten, so there is nothing to recover into.
    if (now_ == fault->at_step && is_working(v)) {
      down_[v] = true;
      ++down_count_;
    }
    if (now_ == fault->revive_step() && down_[v]) {
      down_[v] = false;
      --down_count_;
      ++recoveries_[v];
      states_[v] = algo_.init(v, ids_[v], graph_->degree(v));
      switch (fault->reg) {
        case RecoveredRegister::bottom:
          registers_.erase(v);
          break;
        case RecoveredRegister::zero:
          if constexpr (RegisterCodable<A>) {
            words_scratch_.assign(A::kRegisterWords, 0);
            registers_.store(v, A::decode_register(words_scratch_));
          } else {
            registers_.erase(v);  // not codable: degrade to ⊥
          }
          break;
        case RecoveredRegister::stale:
          registers_.copy_from(prev_registers_, v);
          break;
      }
      tainted_[v] = registers_.has(v);
      if (metrics_) ++pending_.recoveries;
    }
  }

  void apply_corruptions(NodeId v) {
    // A terminated node's register is frozen and off-limits (see the file
    // comment); ⊥ has no bits to flip.
    if (terminated_[v] || !registers_.has(v)) return;
    for (const CorruptionFault& c : fault_plan_.corruptions(v)) {
      if (c.at_step != now_) continue;
      if constexpr (RegisterCodable<A>) {
        words_scratch_.clear();
        registers_.ref(v).encode(words_scratch_);
        const std::size_t i = c.word % words_scratch_.size();
        if (c.kind == CorruptionFault::Kind::bit_flip)
          words_scratch_[i] ^= std::uint64_t{1} << (c.value % 64);
        else
          words_scratch_[i] = c.value;
        registers_.store(v, A::decode_register(words_scratch_));
        tainted_[v] = true;
        if (metrics_) ++pending_.corruptions;
      }
    }
  }

  [[nodiscard]] bool revival_pending() const { return down_count_ > 0; }

  /// Copy v's neighbour registers into the pre-sized scratch and return a
  /// span over exactly degree(v) slots.  No allocation: the scratch was
  /// sized to max_degree at reset and the optionals assign in place.
  [[nodiscard]] NeighborView<Register> gather_view(NodeId v) {
    const auto neigh = graph_->neighbors(v);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const NodeId u = neigh[i];
      if (registers_.has(u))
        scratch_view_[i] = registers_.ref(u);
      else
        scratch_view_[i].reset();
    }
    return NeighborView<Register>(scratch_view_.data(), neigh.size());
  }

  void refresh_working() {
    working_.clear();
    for (NodeId v = 0; v < graph_->node_count(); ++v)
      if (is_working(v)) working_.push_back(v);
  }

  void check_invariants() {
    if (violation_) return;
    for (const auto& inv : invariants_) {
      if (auto err = inv(*this)) {
        violation_ = std::move(err);
        return;
      }
    }
  }

  A algo_;
  const Graph* graph_ = nullptr;
  IdAssignment ids_;
  FaultPlan fault_plan_;
  std::vector<State> states_;
  RegisterFile<Register> registers_;
  RegisterFile<Register> prev_registers_;
  std::vector<bool> terminated_;
  std::vector<bool> crashed_;
  std::vector<bool> down_;
  std::vector<bool> tainted_;
  std::vector<std::uint64_t> activations_;
  std::vector<std::uint64_t> recoveries_;
  std::vector<std::optional<Output>> outputs_;
  std::vector<Invariant> invariants_;
  const obs::ExecutorMetrics* metrics_ = nullptr;
  /// Locally batched metric events (see attach_metrics / flush_metrics).
  struct PendingMetrics {
    std::uint64_t publishes = 0;
    std::uint64_t activations = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t terminations = 0;
    std::array<std::uint64_t, obs::Histogram::kBuckets> term_step_buckets{};
    std::uint64_t term_step_sum = 0;
  };
  PendingMetrics pending_;
  std::optional<std::string> violation_;
  std::uint64_t now_ = 0;
  NodeId down_count_ = 0;
  std::vector<NodeId> working_;
  std::vector<NodeId> scratch_sigma_;
  std::vector<bool> in_sigma_;
  std::vector<std::optional<Register>> scratch_view_;
  std::vector<std::uint64_t> words_scratch_;
};

}  // namespace ftcc
