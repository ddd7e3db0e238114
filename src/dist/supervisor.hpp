// The supervisor side of the multi-process backend (DESIGN.md §12).
// DistExecutor forks one OS process per cycle node, shares a seqlock
// register file with them (dist/shm_region.hpp), and drives activations
// over per-node control sockets (dist/protocol.hpp).  Faults are real:
//
//   crash-stop            SIGKILL.  `torn_crash[v]` picks the flavour —
//                         clean (idle victim, register stays readable)
//                         or torn (the victim wrecks its own publish
//                         mid-write, then SIGKILLs itself: version left
//                         odd, payload corrupted — the physical torn
//                         state the HB certifier flags).
//   crash-recovery stale  SIGSTOP now, SIGCONT at the revive step: the
//                         process is frozen by the OS while its register
//                         keeps serving the stale snapshot — real
//                         asynchrony, not simulated.
//   crash-recovery bottom torn SIGKILL now (register degrades to ⊥ via
//                         reader timeouts), re-fork at the revive step:
//                         the new incarnation re-inits — real amnesia.
//   crash-recovery zero   clean SIGKILL, the supervisor seqlock-writes
//                         zeroed words (recorded as an adversary event),
//                         re-fork at the revive step.
//   corruption bit_flip   repurposed as a read-phase delay on the
//                         victim's next activation (the supervisor must
//                         not write a live node's register — that would
//                         break the single-writer discipline the
//                         certifier checks — so content faults become
//                         timing faults here).
//   corruption overwrite  repurposed as duplicate delivery of the read
//                         request: the victim samples the neighbour's
//                         register twice and adopts the later
//                         observation.  (Replaying an *old* cached
//                         observation would forge a stale read no atomic
//                         register can produce — the certifier rightly
//                         rejects such logs.)
//
// Robustness: every await carries a per-node liveness budget with
// exponentially backed-off polls; a child that dies or wedges is reaped
// (waitpid), SIGKILLed if needed, and folded into the result as a
// crashed node — the run degrades to a partial ExecutionResult instead
// of hanging.  All control I/O is EINTR/partial-safe (dist/wire.hpp).
// Shared-memory segments and child pids are janitor-registered so even
// a signalled supervisor leaks nothing.
//
// Determinism: in the default sequential mode the supervisor serialises
// activations (ACTIVATE → await ACK), so per-trial decisions are a pure
// function of the scheduler/fault randomness — the same master seed
// reproduces byte-identical event logs.  `overlap = true` instead sends
// a whole activation set before collecting ACKs, producing genuinely
// concurrent publishes and reads (for certification stress, not for
// reproducibility of interleavings).
//
// The supervisor must be single-threaded when run() forks (fork() in a
// multi-threaded process duplicates only the calling thread, leaving
// any lock a peer held permanently taken in the child).  Campaigns over
// this executor therefore run trials sequentially (dist/dist_campaign).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "dist/janitor.hpp"
#include "dist/node.hpp"
#include "dist/protocol.hpp"
#include "dist/shm_region.hpp"
#include "dist/wire.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "obs/shm_metrics.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/hb_log.hpp"
#include "runtime/result.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/assert.hpp"

namespace ftcc::dist {

struct DistOptions {
  /// Seqlock retry budget per neighbour read in the node processes.
  /// Much lower than the threaded default: a dead writer is detected by
  /// retry exhaustion, and node processes detect it without a scheduler
  /// racing them.
  std::uint64_t max_read_attempts = std::uint64_t{1} << 12;
  /// Send the whole activation set before collecting ACKs (real races).
  bool overlap = false;
  /// Per-node crash-stop flavour: nonzero = torn publish. Nodes beyond
  /// the vector (or an empty vector) crash cleanly.
  std::vector<std::uint8_t> torn_crash;
};

/// First ACK poll timeout; doubles per miss up to kAckTimeoutCapMs.
inline constexpr int kAckTimeoutMs = 100;
inline constexpr int kAckTimeoutCapMs = 2000;
/// Total per-activation wait before a silent node is declared wedged,
/// SIGKILLed, and recorded as crashed.
inline constexpr int kLivenessBudgetMs = 10000;
/// Span-ring capacity per telemetry slot when a DistTelemetry is attached
/// (records beyond it overwrite the oldest).
inline constexpr std::uint32_t kTelemetrySpans = 256;

/// A supervisor-side OS fault, timestamped on the telemetry clock so it
/// lands between the victim's own spans in the merged trace.
struct DistFaultMarker {
  NodeId node = 0;
  std::uint64_t at_ns = 0;  ///< ns since the telemetry region's epoch
  std::string label;        ///< "SIGKILL (torn)", "SIGSTOP", "revival", ...
};

/// Everything the cross-process observability plane recovers from one
/// run (DESIGN.md §14.2).  The slots are harvested from shared memory
/// AFTER every child is dead or detached, so a SIGKILLed node's counters
/// and spans up to the kill instant are all present.
struct DistTelemetry {
  bool enabled = false;  ///< region creation succeeded
  std::uint64_t epoch_ns = 0;
  std::vector<obs::SlotSnapshot> slots;  ///< one per node
  std::vector<DistFaultMarker> markers;
};

template <ThreadSafeAlgorithm A>
class DistExecutor {
 public:
  using Output = std::uint64_t;  ///< color codes cross the process boundary

  DistExecutor(A algo, const Graph& graph, const IdAssignment& ids,
               FaultPlan plan = {}, DistOptions options = {})
      : algo_(std::move(algo)),
        graph_(&graph),
        ids_(ids),
        plan_(std::move(plan)),
        options_(std::move(options)) {
    FTCC_EXPECTS(ids.size() == graph.node_count());
  }

  /// Same contract as ThreadedExecutor::attach_hb_log; the log receives
  /// every event the node processes report plus the supervisor's own
  /// synthesised fault events (stall/adversary/revive).
  void attach_hb_log(HbLog* log) { hb_log_ = log; }

  /// Attach a telemetry collector: run() then creates a shared-memory
  /// metrics region before forking, every node process streams counters
  /// and spans into its slot, and the supervisor harvests all slots
  /// post-mortem into `telemetry` (plus its own fault markers).
  void attach_telemetry(DistTelemetry* telemetry) { telemetry_ = telemetry; }

  [[nodiscard]] const std::string& error() const { return error_; }

  ExecutionResult<Output> run(Scheduler& sched, std::uint64_t max_steps) {
    const NodeId n = graph_->node_count();
    if (hb_log_) hb_log_->reset(n);
    nodes_.assign(n, {});
    error_.clear();
    janitor_install();

    ShmRegion shm(n, A::kRegisterWords);
    if (!shm.ok()) {
      error_ = "shm_open/mmap failed for " + shm.name();
      return degraded_result(n);
    }
    shm_ = &shm;
    // The telemetry region must exist before the first fork so every
    // child inherits the mapping.  Creation failure degrades to an
    // uninstrumented run, never to a failed one.
    std::optional<obs::ShmMetricsRegion> obs_region;
    if (telemetry_ != nullptr) {
      *telemetry_ = DistTelemetry{};
      obs_region.emplace(n, kTelemetrySpans);
      if (obs_region->ok()) {
        obs_region_ = &*obs_region;
        janitor_add_path(obs_region_->fs_path().c_str());
      } else {
        obs_region.reset();
      }
    }
    bool forked_all = true;
    for (NodeId v = 0; v < n; ++v)
      if (!fork_node(v)) {
        forked_all = false;
        break;
      }
    if (!forked_all) {
      error_ = "fork/socketpair failed";
      teardown();
      finish_telemetry(n);
      shm_ = nullptr;
      return degraded_result(n);
    }

    for (std::uint64_t t = 0; t < max_steps; ++t) {
      apply_recoveries(t);
      std::vector<NodeId> working;
      for (NodeId v = 0; v < n; ++v)
        if (nodes_[v].status == Status::working) working.push_back(v);
      if (done()) break;
      if (working.empty()) continue;  // everyone paused/down: time passes
      std::vector<NodeId> sigma =
          sched.next(std::span<const NodeId>(working), t);
      std::vector<NodeId> activated;
      activated.reserve(sigma.size());
      for (NodeId v : sigma) {
        if (nodes_[v].status != Status::working) continue;
        if (plan_.crashes_at(v, t, nodes_[v].activations)) {
          kill_node(v, crash_is_torn(v));
          continue;
        }
        const ActivateMsg msg = build_activation(v, t);
        if (!write_frame(nodes_[v].fd, encode_activate(msg))) {
          handle_death(v);  // died between steps: fold and move on
          continue;
        }
        activated.push_back(v);
        if (!options_.overlap) await_ack(v);
      }
      if (options_.overlap)
        for (NodeId v : activated)
          if (nodes_[v].status == Status::working) await_ack(v);
      if (done()) break;
    }

    ExecutionResult<Output> result = collect_result(n);
    teardown();
    finish_telemetry(n);
    shm_ = nullptr;
    return result;
  }

 private:
  enum class Status : std::uint8_t {
    working,     ///< alive and schedulable
    paused,      ///< SIGSTOPped (stale crash-recovery in its down window)
    down,        ///< killed, awaiting its re-fork step
    terminated,  ///< returned an output and exited
    crashed,     ///< crash-stop, wedged, or died unexpectedly
  };

  struct NodeProc {
    pid_t pid = -1;
    int fd = -1;  ///< supervisor end of the control socketpair
    Status status = Status::working;
    std::uint64_t activations = 0;
    std::optional<Output> output;
    std::size_t next_corruption = 0;
    bool recovery_applied = false;
  };

  [[nodiscard]] bool crash_is_torn(NodeId v) const {
    return v < options_.torn_crash.size() && options_.torn_crash[v] != 0;
  }

  [[nodiscard]] bool done() const {
    for (const NodeProc& p : nodes_)
      if (p.status != Status::terminated && p.status != Status::crashed)
        return false;
    return true;
  }

  /// Fork (or re-fork) node v's process with a fresh control socketpair.
  [[nodiscard]] bool fork_node(NodeId v) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Child: restore default signal dispositions (the janitor handler
      // belongs to the supervisor — a child running it would unlink the
      // live segment and kill its siblings), drop every inherited
      // supervisor-side fd, and become the node.
      for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::signal(sig, SIG_DFL);
      for (const NodeProc& p : nodes_)
        if (p.fd >= 0) ::close(p.fd);
      ::close(fds[0]);
      NodeConfig config;
      config.v = v;
      config.max_read_attempts = options_.max_read_attempts;
      if (obs_region_ != nullptr) config.slot = obs_region_->slot_view(v);
      run_dist_node(algo_, *graph_, ids_, *shm_, fds[1], config);
    }
    ::close(fds[1]);
    nodes_[v].pid = pid;
    nodes_[v].fd = fds[0];
    nodes_[v].status = Status::working;
    janitor_add_child(pid);
    return true;
  }

  /// Map pending crash-recovery entries at step t onto OS faults, and
  /// revive nodes whose down window just ended.
  void apply_recoveries(std::uint64_t t) {
    const NodeId n = graph_->node_count();
    for (NodeId v = 0; v < n; ++v) {
      const auto& rec = plan_.recovery(v);
      if (!rec) continue;
      NodeProc& p = nodes_[v];
      if (!p.recovery_applied && t >= rec->at_step &&
          p.status == Status::working) {
        p.recovery_applied = true;
        switch (rec->reg) {
          case RecoveredRegister::stale:
            mark(v, "SIGSTOP");
            ::kill(p.pid, SIGSTOP);
            p.status = Status::paused;
            break;
          case RecoveredRegister::bottom:
            kill_node(v, /*torn=*/true);
            p.status = Status::down;
            break;
          case RecoveredRegister::zero: {
            kill_node(v, /*torn=*/false);
            p.status = Status::down;
            // Wiped memory: the supervisor (sole writer now that the
            // owner is dead) publishes zeroed words through the full
            // seqlock protocol, recorded as an adversary write.
            std::vector<std::uint64_t> zeros(A::kRegisterWords, 0);
            const std::uint64_t version = detail::publish_words(*shm_, v, zeros);
            mark(v, "register zeroed");
            record(v, {HbEventKind::adversary, p.activations, v, version,
                       zeros});
            break;
          }
        }
        continue;  // never crash and revive within the same step
      }
      if (p.recovery_applied && t >= rec->revive_step()) {
        if (p.status == Status::paused) {
          mark(v, "SIGCONT");
          ::kill(p.pid, SIGCONT);
          p.status = Status::working;
        } else if (p.status == Status::down) {
          const std::uint64_t version =
              shm_->word(v, 0).load(std::memory_order_acquire);
          if (fork_node(v)) {
            mark(v, "revival (re-fork)");
            record(v, {HbEventKind::revive, p.activations, v, version, {}});
          } else {
            p.status = Status::crashed;  // could not revive: stays dead
          }
        }
      }
    }
  }

  /// Fold due corruption faults into the activation as timing
  /// perturbations (see the header comment for why not content faults).
  [[nodiscard]] ActivateMsg build_activation(NodeId v, std::uint64_t t) {
    ActivateMsg msg;
    msg.round = nodes_[v].activations;
    const auto& faults = plan_.corruptions(v);
    while (nodes_[v].next_corruption < faults.size() &&
           faults[nodes_[v].next_corruption].at_step <= t) {
      const CorruptionFault& f = faults[nodes_[v].next_corruption++];
      if (f.kind == CorruptionFault::Kind::bit_flip) {
        // 0.1–2ms read-phase delay, derived deterministically.
        msg.delay_us = 100 + static_cast<std::uint32_t>(f.value % 20) * 100;
      } else {
        // Duplicate delivery on one or both neighbour slots (1..3).
        msg.dup_mask = static_cast<std::uint32_t>(f.value % 3) + 1;
      }
    }
    return msg;
  }

  /// SIGKILL node v.  Torn kills order the victim to wreck its own
  /// publish first; if the victim is unresponsive the supervisor tears
  /// the (now ownerless) cell itself so the physical state matches the
  /// intended fault either way.  Records the stall event.
  void kill_node(NodeId v, bool torn) {
    NodeProc& p = nodes_[v];
    mark(v, torn ? "SIGKILL (torn)" : "SIGKILL");
    bool child_tears = false;
    if (torn) {
      ActivateMsg msg;
      msg.round = p.activations;
      msg.crash = 1;
      child_tears = write_frame(p.fd, encode_activate(msg));
    }
    if (child_tears) {
      if (!reap(v, /*force_after_budget=*/true)) child_tears = false;
    }
    if (!child_tears) {
      ::kill(p.pid, SIGKILL);
      (void)reap(v, /*force_after_budget=*/false);
    }
    if (torn) {
      auto version = shm_->word(v, 0);
      std::uint64_t current = version.load(std::memory_order_acquire);
      if (current % 2 == 0) {
        // The victim never got to tear it: do so on its behalf.
        version.store(current + 1, std::memory_order_release);
        shm_->word(v, 1).store(
            ~shm_->word(v, 1).load(std::memory_order_relaxed),
            std::memory_order_relaxed);
        current += 1;
      }
      record(v, {HbEventKind::stall, p.activations, v, current, {}});
    }
    ::close(p.fd);
    p.fd = -1;
    janitor_remove_child(p.pid);
    p.status = Status::crashed;
  }

  /// waitpid node v until it is gone.  With `force_after_budget`, polls
  /// under the liveness budget and escalates to SIGKILL on exhaustion;
  /// returns true iff the child died on its own before the escalation.
  [[nodiscard]] bool reap(NodeId v, bool force_after_budget) {
    NodeProc& p = nodes_[v];
    int waited = 0;
    int status = 0;
    while (waited < kLivenessBudgetMs) {
      const pid_t r = ::waitpid(p.pid, &status, WNOHANG);
      if (r == p.pid || (r < 0 && errno == ECHILD)) return true;
      struct timespec ts{0, 1000 * 1000};  // 1ms
      ::nanosleep(&ts, nullptr);
      waited += 1;
      if (!force_after_budget && waited >= 100) break;
    }
    ::kill(p.pid, SIGKILL);
    while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
    }
    return false;
  }

  /// The node died without being killed: reap it and classify.  A cell
  /// left odd means it died inside a publish — record the stall so the
  /// certifier sees the torn state readers will now hit.
  void handle_death(NodeId v) {
    NodeProc& p = nodes_[v];
    mark(v, "died unexpectedly");
    (void)reap(v, /*force_after_budget=*/false);
    const std::uint64_t version =
        shm_->word(v, 0).load(std::memory_order_acquire);
    if (version % 2 != 0)
      record(v, {HbEventKind::stall, p.activations, v, version, {}});
    ::close(p.fd);
    p.fd = -1;
    janitor_remove_child(p.pid);
    p.status = Status::crashed;
  }

  /// Wait for node v's ACK under the liveness budget, with exponential
  /// poll backoff and a death probe on every miss.  Folds the reported
  /// events into the log and applies the termination.
  void await_ack(NodeId v) {
    NodeProc& p = nodes_[v];
    int waited = 0;
    int timeout = kAckTimeoutMs;
    while (waited < kLivenessBudgetMs) {
      const int rc = wait_readable(p.fd, timeout);
      if (rc < 0) {
        handle_death(v);
        return;
      }
      if (rc == 1) {
        auto frame = read_frame(p.fd);
        if (!frame) {
          handle_death(v);
          return;
        }
        WireReader r(*frame);
        std::uint8_t op = 0;
        if (!r.u8(op) || op != static_cast<std::uint8_t>(Op::ack)) {
          kill_node(v, false);  // protocol violation: corrupt child
          return;
        }
        auto ack = decode_ack(r);
        if (!ack) {
          kill_node(v, false);
          return;
        }
        for (HbEvent& e : ack->events) record(v, std::move(e));
        ++p.activations;
        if (ack->terminated) {
          p.output = ack->color;
          p.status = Status::terminated;
          ::close(p.fd);
          p.fd = -1;
          (void)reap(v, /*force_after_budget=*/false);
          janitor_remove_child(p.pid);
        }
        return;
      }
      waited += timeout;
      timeout = std::min(timeout * 2, kAckTimeoutCapMs);
      int status = 0;
      if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
        // The child may have written its ACK and exited between our
        // poll timeout and this probe: drain any buffered frame on the
        // next loop pass rather than misfiling a completed activation
        // as a crash.
        if (wait_readable(p.fd, 0) == 1) continue;
        // Already reaped: classify the corpse without a second waitpid.
        const std::uint64_t version =
            shm_->word(v, 0).load(std::memory_order_acquire);
        if (version % 2 != 0)
          record(v, {HbEventKind::stall, p.activations, v, version, {}});
        ::close(p.fd);
        p.fd = -1;
        janitor_remove_child(p.pid);
        p.status = Status::crashed;
        return;
      }
    }
    // Liveness budget exhausted: the node is wedged, not just slow.
    kill_node(v, false);
  }

  void record(NodeId v, HbEvent e) {
    if (hb_log_) hb_log_->record(v, std::move(e));
  }

  /// Timestamp a supervisor-side fault on the telemetry clock.
  void mark(NodeId v, const char* label) {
    if (telemetry_ == nullptr || obs_region_ == nullptr) return;
    telemetry_->markers.push_back(
        {v, obs::slot_now_ns(obs_region_->slot_view(v)), label});
  }

  /// Harvest every slot post-mortem (called after teardown, so every
  /// writer is dead) and release the telemetry region.
  void finish_telemetry(NodeId n) {
    if (telemetry_ == nullptr) return;
    if (obs_region_ != nullptr) {
      telemetry_->enabled = true;
      telemetry_->epoch_ns = obs_region_->epoch_ns();
      telemetry_->slots.reserve(n);
      for (NodeId v = 0; v < n; ++v)
        telemetry_->slots.push_back(obs_region_->harvest(v));
      janitor_remove_path(obs_region_->fs_path().c_str());
      obs_region_ = nullptr;
    }
  }

  [[nodiscard]] ExecutionResult<Output> collect_result(NodeId n) const {
    ExecutionResult<Output> result;
    result.activations.resize(n);
    result.outputs.resize(n);
    result.crashed.assign(n, false);
    result.fates.assign(n, NodeFate::timed_out);
    result.completed = true;
    std::uint64_t steps = 0;
    for (NodeId v = 0; v < n; ++v) {
      const NodeProc& p = nodes_[v];
      result.activations[v] = p.activations;
      result.outputs[v] = p.output;
      steps = std::max(steps, p.activations);
      switch (p.status) {
        case Status::terminated:
          result.fates[v] = NodeFate::terminated;
          break;
        case Status::crashed:
          result.fates[v] = NodeFate::crashed;
          result.crashed[v] = true;
          break;
        case Status::paused:
        case Status::down:
          result.fates[v] = NodeFate::down;
          result.completed = false;
          break;
        case Status::working:
          result.fates[v] = NodeFate::timed_out;
          result.completed = false;
          break;
      }
    }
    result.steps = steps;
    return result;
  }

  [[nodiscard]] ExecutionResult<Output> degraded_result(NodeId n) const {
    ExecutionResult<Output> result;
    result.activations.assign(n, 0);
    result.outputs.resize(n);
    result.crashed.assign(n, false);
    result.fates.assign(n, NodeFate::timed_out);
    result.completed = false;
    return result;
  }

  /// Release every live child and control fd, on every exit path.
  /// Paused children get SIGCONT first (a SIGSTOPped process ignores
  /// everything but SIGCONT/SIGKILL — SIGKILL alone suffices, but the
  /// CONT keeps the kernel from reparenting a stopped orphan oddly).
  void teardown() {
    for (NodeProc& p : nodes_) {
      if (p.pid < 0) continue;
      if (p.status == Status::working || p.status == Status::paused ||
          p.status == Status::down) {
        if (p.fd >= 0) (void)write_frame(p.fd, encode_quit());
        if (p.status == Status::paused) ::kill(p.pid, SIGCONT);
        if (p.status != Status::down) {
          ::kill(p.pid, SIGKILL);
          int status = 0;
          while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
          }
        }
        janitor_remove_child(p.pid);
      }
      if (p.fd >= 0) {
        ::close(p.fd);
        p.fd = -1;
      }
    }
  }

  A algo_;
  const Graph* graph_;
  IdAssignment ids_;
  FaultPlan plan_;
  DistOptions options_;
  HbLog* hb_log_ = nullptr;
  DistTelemetry* telemetry_ = nullptr;
  obs::ShmMetricsRegion* obs_region_ = nullptr;
  ShmRegion* shm_ = nullptr;
  std::vector<NodeProc> nodes_;
  std::string error_;
};

}  // namespace ftcc::dist
