#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "core/recovering.hpp"
#include "faults/invariants.hpp"
#include "fuzz/dispatch.hpp"
#include "graph/chains.hpp"
#include "fuzz/recording_scheduler.hpp"
#include "runtime/parallel.hpp"
#include "runtime/worker_pool.hpp"
#include "sched/adversary_search.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

struct RecordedRun {
  bool completed = false;
  std::optional<std::string> violation;
  std::uint64_t steps = 0;
  std::uint64_t max_acts = 0;
  std::vector<std::vector<NodeId>> sigmas;
  std::vector<NodeFate> fates;
  std::vector<std::uint64_t> activations;
};

template <Algorithm A>
void install_monitors(Executor<A>& ex, std::uint64_t palette_bound,
                      bool ordered, InjectedFault inject) {
  if constexpr (is_recovering_v<A>) {
    // Wrapped registers carry checksums the standard monitors can't see
    // through; use the fault-aware variants (analysis reuses output
    // properness, which only reads outputs).
    ex.add_invariant(recovering_identifier_invariant<A>());
    ex.add_invariant(output_properness_invariant<A>());
    ex.add_invariant(recovering_candidates_bounded_invariant<A>(palette_bound));
    if (ordered) ex.add_invariant(recovering_candidates_ordered_invariant<A>());
  } else {
    ex.add_invariant(proper_identifier_invariant<A>());
    ex.add_invariant(output_properness_invariant<A>());
    ex.add_invariant(candidates_bounded_invariant<A>(palette_bound));
    if (ordered) ex.add_invariant(candidates_ordered_invariant<A>());
  }
  if (inject == InjectedFault::no_termination) {
    ex.add_invariant([](const Executor<A>& e) -> std::optional<std::string> {
      for (NodeId v = 0; v < e.graph().node_count(); ++v)
        if (e.has_terminated(v))
          return "injected fault: node " + std::to_string(v) + " terminated";
      return std::nullopt;
    });
  }
}

/// One reusable executor per (thread, algorithm type).  reset() re-arms
/// the arena in place, so after the first trial on a thread the hot path
/// constructs nothing (tests/executor_alloc_test.cpp pins the property).
/// thread_local because the WorkerPool runs trials from several threads;
/// the executor keeps pointers to the caller's graph/plan only until the
/// next reset, and no trial touches another trial's executor.
template <Algorithm A>
Executor<A>& pooled_executor(A algo, const Graph& graph,
                             const IdAssignment& ids,
                             const FaultPlan& faults) {
  thread_local std::unique_ptr<Executor<A>> slot;
  if (!slot)
    slot = std::make_unique<Executor<A>>(std::move(algo), graph, ids, faults);
  else
    slot->reset(std::move(algo), graph, ids, faults);
  return *slot;
}

template <Algorithm A>
RecordedRun run_recorded(A algo, const Graph& graph, const IdAssignment& ids,
                         const FaultPlan& faults, Scheduler& sched,
                         std::uint64_t max_steps, std::uint64_t palette_bound,
                         bool ordered, InjectedFault inject) {
  Executor<A>& ex = pooled_executor(std::move(algo), graph, ids, faults);
  install_monitors(ex, palette_bound, ordered, inject);
  RecordingScheduler recorder(sched);
  const auto result = ex.run(recorder, max_steps);
  RecordedRun run;
  run.completed = result.completed;
  run.violation = ex.violation();
  run.steps = result.steps;
  run.max_acts = result.max_activations();
  run.sigmas = recorder.take();
  run.fates = result.fates;
  run.activations = result.activations;
  return run;
}

/// Local alias for the shared dispatcher (fuzz/dispatch.hpp).
template <typename F>
auto with_algorithm(const std::string& name, bool wrapped, F&& f) {
  return with_campaign_algorithm(name, wrapped, std::forward<F>(f));
}

/// Compact per-node fate tally for report lines: "5t/1c/0d/0x".
std::string format_fates(const std::vector<NodeFate>& fates) {
  std::size_t t = 0, c = 0, d = 0, x = 0;
  for (NodeFate f : fates) {
    switch (f) {
      case NodeFate::terminated: ++t; break;
      case NodeFate::crashed: ++c; break;
      case NodeFate::down: ++d; break;
      case NodeFate::timed_out: ++x; break;
    }
  }
  std::ostringstream os;
  os << t << "t/" << c << "c/" << d << "d/" << x << "x";
  return os.str();
}

/// One trial's generated configuration (all drawn from the trial seed).
struct TrialConfig : TrialShape {
  CrashPlan crashes;
  std::vector<std::pair<NodeId, std::uint64_t>> crash_at_step;
  std::vector<std::pair<NodeId, std::uint64_t>> crash_after_acts;
  /// crashes plus any drawn recovery/corruption faults.
  FaultPlan faults;
  std::vector<ArtifactRecovery> recoveries;
  std::vector<ArtifactCorruption> corruptions;
  std::unique_ptr<Scheduler> sched;
  std::string sched_family;
};

std::string format_p(double p) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%.2f", p);
  return buffer;
}

TrialConfig generate_trial(const std::vector<std::string>& algos, NodeId n_min,
                           NodeId n_max, std::uint64_t trial_seed,
                           FaultMode fault_mode) {
  Xoshiro256 rng(trial_seed);
  TrialConfig cfg;
  draw_trial_shape(algos, n_min, n_max, rng, cfg);

  cfg.crashes = CrashPlan(cfg.n);
  const std::uint64_t crash_count = rng.below(cfg.n / 3 + 1u);
  for (std::uint64_t v : sample_distinct(cfg.n, crash_count, rng)) {
    const auto node = static_cast<NodeId>(v);
    if (rng.chance(0.5)) {
      const std::uint64_t t = 1 + rng.below(4ull * cfg.n);
      cfg.crashes.crash_at_step(node, t);
      cfg.crash_at_step.emplace_back(node, t);
    } else {
      const std::uint64_t k = rng.below(5);
      cfg.crashes.crash_after_activations(node, k);
      cfg.crash_after_acts.emplace_back(node, k);
    }
  }
  std::sort(cfg.crash_at_step.begin(), cfg.crash_at_step.end());
  std::sort(cfg.crash_after_acts.begin(), cfg.crash_after_acts.end());

  const std::uint64_t sched_seed = rng();
  switch (rng.below(10)) {
    case 0:
      cfg.sched = std::make_unique<SynchronousScheduler>();
      cfg.sched_family = "sync";
      break;
    case 1:
    case 2:
    case 3: {
      static constexpr double kProbabilities[] = {0.1, 0.3, 0.5, 0.8};
      const double p = kProbabilities[rng.below(4)];
      cfg.sched = std::make_unique<RandomSubsetScheduler>(p, sched_seed);
      cfg.sched_family = "subset(" + format_p(p) + ")";
      break;
    }
    case 4:
      cfg.sched = std::make_unique<RandomSingleScheduler>(sched_seed);
      cfg.sched_family = "single";
      break;
    case 5: {
      const std::size_t k = 1 + rng.below(3);
      cfg.sched = std::make_unique<RoundRobinScheduler>(k);
      cfg.sched_family = "roundrobin(" + std::to_string(k) + ")";
      break;
    }
    case 6:
      cfg.sched = std::make_unique<SoloRunsScheduler>();
      cfg.sched_family = "solo";
      break;
    case 7: {
      const std::uint64_t delay = 1 + rng.below(3);
      cfg.sched = std::make_unique<StaggeredScheduler>(delay);
      cfg.sched_family = "staggered(" + std::to_string(delay) + ")";
      break;
    }
    case 8: {
      std::vector<double> speeds(cfg.n, 1.0);
      speeds[rng.below(cfg.n)] = 0.05;
      cfg.sched = std::make_unique<WeightedScheduler>(std::move(speeds),
                                                      sched_seed);
      cfg.sched_family = "laggard";
      break;
    }
    default:
      cfg.sched = std::make_unique<detail::AdjacentPairsScheduler>(sched_seed);
      cfg.sched_family = "pairs";
      break;
  }

  // Faults draw last and only when armed, so fault-free campaigns consume
  // exactly the RNG stream they always did (trial-for-trial identical).
  cfg.faults = FaultPlan(cfg.crashes);
  if (fault_mode == FaultMode::recover || fault_mode == FaultMode::mixed) {
    const std::uint64_t count =
        1 + rng.below(std::max<std::uint64_t>(cfg.n / 4, 1));
    for (std::uint64_t v : sample_distinct(cfg.n, count, rng)) {
      RecoveryFault fault;
      fault.at_step = 1 + rng.below(2ull * cfg.n);
      fault.down_steps = 1 + rng.below(static_cast<std::uint64_t>(cfg.n));
      fault.reg = static_cast<RecoveredRegister>(rng.below(3));
      cfg.recoveries.push_back({static_cast<NodeId>(v), fault});
    }
    std::sort(cfg.recoveries.begin(), cfg.recoveries.end(),
              [](const ArtifactRecovery& a, const ArtifactRecovery& b) {
                return a.node < b.node;
              });
    for (const auto& r : cfg.recoveries) cfg.faults.recover(r.node, r.fault);
  }
  if (fault_mode == FaultMode::corrupt || fault_mode == FaultMode::mixed) {
    const std::uint64_t count =
        1 + rng.below(std::max<std::uint64_t>(cfg.n / 3, 1));
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto node = static_cast<NodeId>(rng.below(cfg.n));
      CorruptionFault fault;
      fault.at_step = 1 + rng.below(4ull * cfg.n);
      fault.kind = rng.chance(0.5) ? CorruptionFault::Kind::bit_flip
                                   : CorruptionFault::Kind::overwrite;
      fault.word = rng.below(8);
      fault.value = rng();
      cfg.corruptions.push_back({node, fault});
    }
    std::stable_sort(cfg.corruptions.begin(), cfg.corruptions.end(),
                     [](const ArtifactCorruption& a, const ArtifactCorruption& b) {
                       return a.node < b.node;
                     });
    for (const auto& c : cfg.corruptions) cfg.faults.corrupt(c.node, c.fault);
  }
  return cfg;
}

}  // namespace

const std::vector<std::string>& campaign_algorithms() {
  static const std::vector<std::string> names = {"six", "five", "fast5",
                                                 "delta2", "fast6"};
  return names;
}

bool known_algorithm(const std::string& name) {
  const auto& names = campaign_algorithms();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string replay_violation(const ScheduleArtifact& artifact,
                             InjectedFault inject) {
  FTCC_EXPECTS(known_algorithm(artifact.algo));
  const Graph graph = artifact.graph();
  const FaultPlan faults = artifact.fault_plan();
  return with_algorithm(
      artifact.algo, artifact.wrapped,
      [&](auto algo, std::uint64_t bound, bool ordered) -> std::string {
        auto& ex = pooled_executor(std::move(algo), graph, artifact.ids,
                                   faults);
        install_monitors(ex, bound, ordered, inject);
        ReplayScheduler sched(artifact.sigmas);
        // Exactly the recorded steps: the artifact IS the schedule, so a
        // shrunk witness must reproduce the violation within its own prefix.
        (void)ex.run(sched, artifact.sigmas.size());
        return ex.violation().value_or("");
      });
}

CampaignReport run_campaign(const CampaignOptions& options) {
  FTCC_EXPECTS(options.n_min >= 3 && options.n_min <= options.n_max);
  std::vector<std::string> algos =
      options.algos.empty() ? campaign_algorithms() : options.algos;
  for (const auto& name : algos) FTCC_EXPECTS(known_algorithm(name));

  if (!options.artifact_dir.empty())
    std::filesystem::create_directories(options.artifact_dir);

  std::ostringstream out;
  out << "ftcc-fuzz report v1\n";
  out << "seed=" << options.seed << " trials=" << options.trials << " n=["
      << options.n_min << "," << options.n_max << "] algos=";
  for (std::size_t i = 0; i < algos.size(); ++i)
    out << (i ? "," : "") << algos[i];
  out << " inject="
      << (options.inject == InjectedFault::none ? "none" : "no-termination")
      << " faults=" << fault_mode_name(options.fault_mode)
      << " wrap=" << (options.wrap ? 1 : 0)
      << " shrink=" << (options.shrink ? 1 : 0) << "\n";

  // Resolved observability handles (a null registry leaves them all null;
  // each use is one branch).  Nothing below feeds back into the campaign.
  struct {
    obs::Counter* trials = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* censored = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* shrink_checks = nullptr;
    obs::Histogram* trial_us = nullptr;
    obs::Histogram* trial_steps = nullptr;
    obs::Histogram* lemma39_headroom = nullptr;
    obs::Gauge* trials_per_sec = nullptr;
  } m;
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    m.trials = &reg.counter("fuzz.trials");
    m.ok = &reg.counter("fuzz.trials.ok");
    m.censored = &reg.counter("fuzz.trials.censored");
    m.failures = &reg.counter("fuzz.trials.failures");
    m.shrink_checks = &reg.counter("fuzz.shrink.checks");
    m.trial_us = &reg.histogram("fuzz.trial_us");
    m.trial_steps = &reg.histogram("fuzz.trial_steps");
    m.lemma39_headroom = &reg.histogram("fuzz.lemma39_headroom");
    m.trials_per_sec = &reg.gauge("fuzz.trials_per_sec");
  }
  obs::Stopwatch campaign_watch;
  const std::uint64_t progress_every =
      std::max<std::uint64_t>(options.progress_every, 1);

  // Pre-draw every trial's sub-seed in trial order — the exact stream the
  // sequential loop consumed — so the worker count has no effect on which
  // trials run or on anything they draw.
  std::vector<std::uint64_t> seeds(options.trials);
  Xoshiro256 master(options.seed);
  for (auto& s : seeds) s = master();

  // Every trial owns a report chunk, an outcome kind, and a failure slot;
  // the merge after the pool joins concatenates them in trial order, which
  // makes the report (and the failure list) byte-identical for any jobs.
  struct TrialOutcome {
    std::string text;
    TrialTally::Outcome kind = TrialTally::Outcome::ok;
    std::optional<CampaignFailure> failure;
  };
  std::vector<TrialOutcome> outcomes(options.trials);

  std::function<void(const TallyProgress&)> tally_cb;
  if (options.on_progress)
    tally_cb = [&options](const TallyProgress& p) {
      options.on_progress({p.done, p.total, p.ok, p.censored, p.failures});
    };
  TrialTally tally(options.trials, progress_every, std::move(tally_cb));

  WorkerPool pool(options.jobs);
  obs::PoolMetrics pool_metrics;
  if (options.metrics != nullptr) {
    pool_metrics = obs::PoolMetrics::create(*options.metrics, "fuzz.pool");
    pool.attach_metrics(&pool_metrics);
  }
  // The TraceSink is single-threaded by design (obs/span.hpp), so spans
  // reach it only when the pool is too; the duration histograms are
  // relaxed-atomic and safe from every worker.
  obs::TraceSink* trace = pool.jobs() == 1 ? options.trace : nullptr;

  CampaignReport report;
  const auto run_trial = [&](std::size_t trial, unsigned /*worker*/) {
    obs::Span trial_span(trace, "fuzz.trial", "fuzz", m.trial_us);
    TrialOutcome& slot = outcomes[trial];
    std::ostringstream os;
    TrialConfig cfg = generate_trial(algos, options.n_min, options.n_max,
                                     seeds[trial], options.fault_mode);
    const std::uint64_t budget = linear_step_budget(cfg.n);
    const Graph graph =
        cfg.graph_kind == "path" ? make_path(cfg.n) : make_cycle(cfg.n);

    RecordedRun run = with_algorithm(
        cfg.algo, options.wrap,
        [&](auto algo, std::uint64_t bound, bool ordered) {
          return run_recorded(std::move(algo), graph, cfg.ids, cfg.faults,
                              *cfg.sched, budget, bound, ordered,
                              options.inject);
        });

    if (m.trials) {
      m.trials->inc();
      m.trial_steps->observe(run.steps);
    }
    os << "trial " << trial << " algo=" << cfg.algo
       << " graph=" << cfg.graph_kind << " n=" << cfg.n
       << " ids=" << cfg.ids_family << " sched=" << cfg.sched_family
       << " crashes=" << cfg.crash_at_step.size() + cfg.crash_after_acts.size();
    if (options.fault_mode != FaultMode::none)
      os << " recoveries=" << cfg.recoveries.size()
         << " corruptions=" << cfg.corruptions.size();
    os << " -> ";
    if (run.violation) {
      os << "FAIL " << *run.violation << "\n";
      ScheduleArtifact witness;
      witness.algo = cfg.algo;
      witness.graph_kind = cfg.graph_kind;
      witness.n = cfg.n;
      witness.ids = cfg.ids;
      witness.crash_at_step = cfg.crash_at_step;
      witness.crash_after_acts = cfg.crash_after_acts;
      witness.recoveries = cfg.recoveries;
      witness.corruptions = cfg.corruptions;
      witness.wrapped = options.wrap;
      witness.sigmas = std::move(run.sigmas);
      witness.seed = options.seed;
      witness.violation = *run.violation;

      CampaignFailure failure;
      failure.trial = trial;
      failure.violation = *run.violation;
      failure.original_n = witness.n;
      failure.original_steps = witness.sigmas.size();
      if (m.failures) m.failures->inc();
      if (options.shrink) {
        obs::Span shrink_span(trace, "fuzz.shrink", "fuzz");
        ShrinkOptions shrink_options;
        shrink_options.max_checks = options.shrink_checks;
        shrink_options.min_nodes = cfg.graph_kind == "path" ? 2u : 3u;
        failure.shrink = shrink_artifact(
            witness,
            [&](const ScheduleArtifact& candidate) {
              return !replay_violation(candidate, options.inject).empty();
            },
            shrink_options);
        failure.shrink.artifact.violation =
            replay_violation(failure.shrink.artifact, options.inject);
        if (m.shrink_checks) m.shrink_checks->inc(failure.shrink.checks);
        os << "shrunk trial " << trial << ": n " << failure.original_n << "->"
           << failure.shrink.artifact.n << " steps " << failure.original_steps
           << "->" << failure.shrink.artifact.sigmas.size()
           << " checks=" << failure.shrink.checks << "\n";
      } else {
        failure.shrink.artifact = std::move(witness);
      }
      if (!options.artifact_dir.empty()) {
        failure.path = options.artifact_dir + "/fail-" +
                       std::to_string(trial) + ".sched";
        if (save_schedule(failure.path, failure.shrink.artifact)) {
          os << "artifact trial " << trial << ": " << failure.path << "\n";
        } else {
          // Losing an artifact must not kill the campaign mid-run; clear
          // the path so the fallback persist pass gets another chance.
          os << "warning: cannot save artifact trial " << trial << ": "
             << failure.path << "\n";
          failure.path.clear();
        }
      }
      slot.kind = TrialTally::Outcome::failed;
      slot.failure = std::move(failure);
    } else if (!run.completed) {
      slot.kind = TrialTally::Outcome::censored;
      if (m.censored) m.censored->inc();
      os << "censored budget=" << budget << " fates=" << format_fates(run.fates);
      os << " timed_out=";
      bool first = true;
      for (NodeId v = 0; v < run.fates.size(); ++v)
        if (run.fates[v] == NodeFate::timed_out ||
            run.fates[v] == NodeFate::down) {
          os << (first ? "" : ",") << v;
          first = false;
        }
      os << "\n";
    } else {
      slot.kind = TrialTally::Outcome::ok;
      if (m.ok) m.ok->inc();
      // Per-node headroom against the Lemma 3.9 activation bound
      // min{3ℓ, 3ℓ′, ℓ+ℓ′}+4, meaningful exactly for clean Algorithm 1
      // runs on the cycle (the lemma's setting: no crashes, no faults,
      // no wrapper rounds inflating the count).
      if (m.lemma39_headroom && cfg.algo == "six" &&
          cfg.graph_kind == "cycle" && !options.wrap &&
          cfg.crash_at_step.empty() && cfg.crash_after_acts.empty() &&
          cfg.recoveries.empty() && cfg.corruptions.empty()) {
        const MonotoneDistances dist = monotone_distances_on_cycle(cfg.ids);
        for (NodeId v = 0; v < cfg.n; ++v) {
          const auto l = static_cast<std::uint64_t>(dist.dist_to_max[v]);
          const auto lp = static_cast<std::uint64_t>(dist.dist_to_min[v]);
          const std::uint64_t bound =
              std::min({3 * l, 3 * lp, l + lp}) + 4;
          if (run.activations[v] <= bound)
            m.lemma39_headroom->observe(bound - run.activations[v]);
        }
      }
      os << "ok steps=" << run.steps << " max_acts=" << run.max_acts
         << " fates=" << format_fates(run.fates) << "\n";
    }
    slot.text = os.str();
    tally.record(slot.kind);
  };
  pool.run(options.trials, run_trial);

  // Deterministic merge: concatenate the per-trial chunks and drain the
  // failure slots in trial order — exactly what the sequential loop
  // emitted, whatever worker ran whatever trial.
  for (TrialOutcome& slot : outcomes) {
    ++report.trials;
    out << slot.text;
    switch (slot.kind) {
      case TrialTally::Outcome::ok: ++report.ok; break;
      case TrialTally::Outcome::censored: ++report.censored; break;
      case TrialTally::Outcome::failed:
        report.failures.push_back(std::move(*slot.failure));
        break;
    }
  }
  if (m.trials_per_sec) {
    const std::uint64_t campaign_us = campaign_watch.elapsed_us();
    if (campaign_us > 0)
      m.trials_per_sec->set(static_cast<double>(report.trials) * 1e6 /
                            static_cast<double>(campaign_us));
  }
  out << "summary trials=" << report.trials << " ok=" << report.ok
      << " censored=" << report.censored
      << " failures=" << report.failures.size() << "\n";
  report.text = out.str();
  return report;
}

std::vector<std::string> persist_failure_artifacts(
    CampaignReport& report, const std::string& fallback_dir) {
  std::vector<std::string> lines;
  bool created = false;
  for (CampaignFailure& failure : report.failures) {
    if (!failure.path.empty()) continue;  // already saved by the campaign
    if (!created) {
      std::filesystem::create_directories(fallback_dir);
      created = true;
    }
    failure.path = fallback_dir + "/fail-" + std::to_string(failure.trial) +
                   ".sched";
    if (save_schedule(failure.path, failure.shrink.artifact)) {
      lines.push_back("artifact trial " + std::to_string(failure.trial) +
                      ": " + failure.path);
    } else {
      lines.push_back("warning: cannot save artifact trial " +
                      std::to_string(failure.trial) + ": " + failure.path);
      failure.path.clear();
    }
  }
  return lines;
}

}  // namespace ftcc
