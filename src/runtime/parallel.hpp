// The campaign kernel (DESIGN.md §10).  Every seeded campaign — fuzz,
// certify, dist and the batch differential — runs its trials through
// run_trials, which owns everything but the trial body: the sub-seed
// pre-draw, the worker pool, the progress tally, the trial-order merge,
// and the shared metrics.  It lives under src/runtime/ because that is
// where the concurrency-confinement lint allows atomics and mutexes.
//
//   TrialTally — workers bump relaxed atomic tallies per finished trial;
//       the reporting callback fires under a mutex every `every`-th
//       completion with a monotone `done` filter, so a --jobs=8 campaign
//       still prints one coherent, non-regressing progress line.
//   run_trials — the merge rules: sub-seeds are pre-drawn from the master
//       stream in trial order, every trial writes only its own slot, and
//       the slots are streamed into the report in trial order after the
//       pool joins.  The report is therefore byte-identical for any
//       worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <atomic>
#include <mutex>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime_metrics.hpp"
#include "obs/span.hpp"
#include "runtime/worker_pool.hpp"
#include "util/rng.hpp"

namespace ftcc {

/// Progress snapshot handed to a campaign's on_progress callback.
struct TallyProgress {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;
  std::uint64_t failures = 0;
};

/// A campaign's progress callback (the tools' tty progress line and
/// --follow stream); empty = none.
using ProgressCallback = std::function<void(const TallyProgress&)>;

class TrialTally {
 public:
  TrialTally(std::uint64_t total, std::uint64_t every,
             ProgressCallback callback)
      : total_(total),
        every_(every == 0 ? 1 : every),
        callback_(std::move(callback)) {}

  enum class Outcome : std::uint8_t { ok, censored, failed };

  /// Record one finished trial; fires the callback on every `every`-th
  /// completion and on the last one, exactly like the sequential loop did.
  void record(Outcome outcome) {
    switch (outcome) {
      case Outcome::ok: ok_.fetch_add(1, std::memory_order_relaxed); break;
      case Outcome::censored:
        censored_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::failed:
        failures_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!callback_) return;
    if (done % every_ != 0 && done != total_) return;
    const std::scoped_lock lock(report_mutex_);
    if (done <= last_reported_) return;  // a later snapshot already printed
    last_reported_ = done;
    callback_({done, total_, ok_.load(std::memory_order_relaxed),
               censored_.load(std::memory_order_relaxed),
               failures_.load(std::memory_order_relaxed)});
  }

 private:
  std::uint64_t total_;
  std::uint64_t every_;
  ProgressCallback callback_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> censored_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::mutex report_mutex_;
  std::uint64_t last_reported_ = 0;
};

/// The options every seeded campaign reads.  Each campaign's options
/// struct derives from it, sets its own defaults, and adds the fields
/// only it reads: the worker count and progress callback it hands to
/// run_trials, and the witness directory.  run_trials reads seed, trials,
/// the observability handles and progress_every; the campaigns read the
/// rest.
struct CampaignPlan {
  std::uint64_t seed = 1;
  std::uint64_t trials = 200;
  NodeId n_min = 4;
  NodeId n_max = 24;
  /// Subset of the campaign's algorithm names; empty = all of them.
  std::vector<std::string> algos;
  /// Observability (DESIGN.md §9), all optional.  Metrics and trace spans
  /// record what the campaign did — they never feed a decision, and the
  /// report text stays byte-identical whether or not they are attached.
  /// Both must outlive the campaign.
  obs::Registry* metrics = nullptr;
  obs::TraceSink* trace = nullptr;
  /// The progress callback fires after every `progress_every`-th trial
  /// and after the last one.
  std::uint64_t progress_every = 500;
};

/// The most trials one campaign runs.  run_trials holds one slot per
/// trial (a few hundred bytes plus the trial's report text) until the
/// merge, so this many already take several GB; the tools reject a
/// larger --trials with exit 2.
inline constexpr std::uint64_t kMaxTrials = 10'000'000;

/// One trial's result: its report text and, if it failed, its failure.
/// A trial writes only its own slot.
template <typename Failure>
struct TrialSlot {
  std::string text;
  bool censored = false;  ///< budget exhausted without a verdict
  std::optional<Failure> failure;
};

template <typename Failure>
struct TrialCounts {
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;
  std::vector<Failure> failures;  ///< in trial order
};

/// Run plan.trials trials as trial(index, seed, trace, slot) on a
/// WorkerPool of `jobs` workers, then stream the slots' text into `out`
/// in trial order.  At jobs = 1 every trial runs inline on the caller.
/// `trace` is plan.trace at jobs = 1 and null otherwise: the TraceSink is
/// single-threaded.  Owns the metrics <prefix>.trials, .trials.failures,
/// .trial_us (one <prefix>.trial span per trial), .trials_per_sec and
/// .pool.*.
template <typename Failure, typename Trial>
TrialCounts<Failure> run_trials(const CampaignPlan& plan, unsigned jobs,
                                const ProgressCallback& on_progress,
                                const std::string& prefix, std::ostream& out,
                                Trial&& trial) {
  obs::TrialMetrics m;
  WorkerPool pool(jobs);
  if (plan.metrics != nullptr) {
    m = obs::TrialMetrics::create(*plan.metrics, prefix);
    pool.attach_metrics(&m.pool);
  }
  const obs::Stopwatch watch;

  std::vector<std::uint64_t> seeds(plan.trials);
  Xoshiro256 master(plan.seed);
  for (auto& s : seeds) s = master();
  std::vector<TrialSlot<Failure>> slots(plan.trials);
  TrialTally tally(plan.trials, plan.progress_every, on_progress);
  obs::TraceSink* trace = pool.jobs() == 1 ? plan.trace : nullptr;
  const std::string span_name = prefix + ".trial";

  pool.run(plan.trials, [&](std::size_t index, unsigned /*worker*/) {
    TrialSlot<Failure>& slot = slots[index];
    {
      const obs::Span span(trace, span_name, prefix, m.trial_us);
      trial(index, seeds[index], trace, slot);
    }
    if (m.trials) m.trials->inc();
    if (m.failures && slot.failure) m.failures->inc();
    tally.record(slot.failure    ? TrialTally::Outcome::failed
                 : slot.censored ? TrialTally::Outcome::censored
                                 : TrialTally::Outcome::ok);
  });

  TrialCounts<Failure> counts;
  for (TrialSlot<Failure>& slot : slots) {
    out << slot.text;
    if (slot.failure)
      counts.failures.push_back(std::move(*slot.failure));
    else
      ++(slot.censored ? counts.censored : counts.ok);
  }
  if (m.trials_per_sec) {
    const std::uint64_t us = watch.elapsed_us();
    if (us > 0)
      m.trials_per_sec->set(static_cast<double>(plan.trials) * 1e6 /
                            static_cast<double>(us));
  }
  return counts;
}

}  // namespace ftcc
