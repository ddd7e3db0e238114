// Metric bundles the executors update (DESIGN.md §9).  A bundle is a set
// of registry handles resolved once, on the main thread, then attached to
// an executor (Executor::attach_metrics / ThreadedExecutor::attach_metrics)
// — the executors never see the Registry, only stable cell pointers, and
// a detached executor pays one null check per would-be update.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace ftcc::obs {

/// Sequential Executor instrumentation.  Counters cover the paper-level
/// events (activations, register publishes, crash/recover/corrupt faults,
/// terminations); the histogram records the step index at which each node
/// terminated — the distribution Lemma 3.9 bounds.
struct ExecutorMetrics {
  Counter* activations = nullptr;
  Counter* publishes = nullptr;
  Counter* crashes = nullptr;
  Counter* recoveries = nullptr;
  Counter* corruptions = nullptr;
  Counter* terminations = nullptr;
  Histogram* termination_step = nullptr;

  static ExecutorMetrics create(Registry& reg,
                                const std::string& prefix = "executor");
};

/// ThreadedExecutor instrumentation.  Node threads buffer these counts in
/// a thread-local struct and flush once at thread exit (one relaxed
/// fetch_add per counter per thread), so the instrumented hot loop stays
/// within noise of the baseline.  read_retries counts seqlock reread
/// attempts beyond the first; stalls counts injected mid-publish stalls.
struct ThreadedMetrics {
  Counter* activations = nullptr;
  Counter* publishes = nullptr;
  Counter* read_retries = nullptr;
  Counter* read_timeouts = nullptr;
  Counter* stalls = nullptr;
  Counter* corruptions = nullptr;
  Counter* terminations = nullptr;
  Histogram* rounds_to_finish = nullptr;

  static ThreadedMetrics create(Registry& reg,
                                const std::string& prefix = "threaded");
};

/// BatchExecutor instrumentation (DESIGN.md §15).  The batched path keeps
/// the sequential executor's discipline: counts accumulate in plain
/// per-executor integers during the sweep loop and reach these cells in
/// one flush at the end of the run, so attaching metrics costs nothing in
/// the inner loop (the E22 <=5% bar re-measured at n = 10⁶ in bench_scale).
/// frontier_size observes the live frontier population once per sweep —
/// the shrinking-wavefront shape of a colouring campaign.
struct BatchMetrics {
  Counter* activations = nullptr;
  Counter* sweeps = nullptr;
  Counter* crashes = nullptr;
  Counter* terminations = nullptr;
  Histogram* frontier_size = nullptr;

  static BatchMetrics create(Registry& reg,
                             const std::string& prefix = "batch");
};

/// WorkerPool instrumentation (DESIGN.md §10).  tasks counts dispatched
/// work items; steals counts items a worker drained from another worker's
/// stripe; queue_depth is the live count of not-yet-finished items (last
/// write wins — a progress gauge, not an accounting identity); the
/// histogram records how many items each worker ended up running, so a
/// skewed campaign (one straggler stripe) is visible in the JSONL.
struct PoolMetrics {
  Counter* tasks = nullptr;
  Counter* steals = nullptr;
  Gauge* queue_depth = nullptr;
  Histogram* tasks_per_worker = nullptr;

  static PoolMetrics create(Registry& reg, const std::string& prefix = "pool");
};

/// The campaign kernel's shared metrics (runtime/parallel.hpp, DESIGN.md
/// §10): trials run and failed, per-trial wall time, throughput, and the
/// kernel's WorkerPool, all under the campaign's prefix.
struct TrialMetrics {
  Counter* trials = nullptr;
  Counter* failures = nullptr;
  Histogram* trial_us = nullptr;
  Gauge* trials_per_sec = nullptr;
  PoolMetrics pool;

  static TrialMetrics create(Registry& reg, const std::string& prefix);
};

/// Model-checker instrumentation (DESIGN.md §11).  states counts stored
/// (interned) configurations and transitions explored edges; store_entries
/// and store_bytes/bytes_per_state describe the tree-compressed visited
/// set; quotient_hits counts generated configurations whose canonical form
/// differed from the raw one (the symmetry layer's hit rate) and
/// commute_skips the activation sets the commuting-activation reduction
/// pruned.  Updated once per run_reduced() call, on the main thread.
struct McMetrics {
  Counter* states = nullptr;
  Counter* transitions = nullptr;
  Counter* store_entries = nullptr;
  Gauge* store_bytes = nullptr;
  Gauge* bytes_per_state = nullptr;
  Counter* quotient_hits = nullptr;
  Counter* commute_skips = nullptr;

  static McMetrics create(Registry& reg, const std::string& prefix = "mc");
};

}  // namespace ftcc::obs
