#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "core/recovering.hpp"
#include "faults/invariants.hpp"
#include "fuzz/dispatch.hpp"
#include "graph/chains.hpp"
#include "sched/adversary_search.hpp"
#include "sched/schedulers.hpp"
#include "util/artifacts.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

struct RecordedRun {
  bool completed = false;
  std::optional<std::string> violation;
  std::uint64_t steps = 0;
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
  auto result = ex.run(recorder, max_steps);
  RecordedRun run;
  run.completed = result.completed;
  run.violation = ex.violation();
  run.steps = result.steps;
  run.sigmas = recorder.take(result.steps);
  run.fates = std::move(result.fates);
  run.activations = std::move(result.activations);
  return run;
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

/// One trial's generated configuration (all drawn from the trial seed):
/// its witness without σ, and the scheduler with the report's names.
struct TrialConfig {
  ScheduleArtifact witness;
  std::string ids_family;
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
                           FaultMode fault_mode, bool wrap) {
  Xoshiro256 rng(trial_seed);
  TrialConfig cfg;
  ScheduleArtifact& w = cfg.witness;
  cfg.ids_family = draw_trial_shape(algos, n_min, n_max, rng, w);
  w.wrapped = wrap;

  const std::uint64_t crash_count = rng.below(w.n / 3 + 1u);
  for (std::uint64_t v : sample_distinct(w.n, crash_count, rng)) {
    const auto node = static_cast<NodeId>(v);
    if (rng.chance(0.5))
      w.crash_at_step.emplace_back(node, 1 + rng.below(4ull * w.n));
    else
      w.crash_after_acts.emplace_back(node, rng.below(5));
  }
  std::sort(w.crash_at_step.begin(), w.crash_at_step.end());
  std::sort(w.crash_after_acts.begin(), w.crash_after_acts.end());

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
      std::vector<double> speeds(w.n, 1.0);
      speeds[rng.below(w.n)] = 0.05;
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
  if (fault_mode == FaultMode::recover || fault_mode == FaultMode::mixed) {
    const std::uint64_t count =
        1 + rng.below(std::max<std::uint64_t>(w.n / 4, 1));
    for (std::uint64_t v : sample_distinct(w.n, count, rng)) {
      RecoveryFault fault;
      fault.at_step = 1 + rng.below(2ull * w.n);
      fault.down_steps = 1 + rng.below(static_cast<std::uint64_t>(w.n));
      fault.reg = static_cast<RecoveredRegister>(rng.below(3));
      w.recoveries.push_back({static_cast<NodeId>(v), fault});
    }
    std::sort(w.recoveries.begin(), w.recoveries.end(),
              [](const ArtifactRecovery& a, const ArtifactRecovery& b) {
                return a.node < b.node;
              });
  }
  if (fault_mode == FaultMode::corrupt || fault_mode == FaultMode::mixed) {
    const std::uint64_t count =
        1 + rng.below(std::max<std::uint64_t>(w.n / 3, 1));
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto node = static_cast<NodeId>(rng.below(w.n));
      CorruptionFault fault;
      fault.at_step = 1 + rng.below(4ull * w.n);
      fault.kind = rng.chance(0.5) ? CorruptionFault::Kind::bit_flip
                                   : CorruptionFault::Kind::overwrite;
      fault.word = rng.below(8);
      fault.value = rng();
      w.corruptions.push_back({node, fault});
    }
    std::stable_sort(w.corruptions.begin(), w.corruptions.end(),
                     [](const ArtifactCorruption& a, const ArtifactCorruption& b) {
                       return a.node < b.node;
                     });
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

std::optional<std::string> unrunnable(const TrialShape& shape) {
  if (!known_algorithm(shape.algo))
    return "names unknown algorithm '" + shape.algo + "'";
  // Algorithm 2 and Algorithm 4 also run on paths; the others need the
  // cycle's two neighbours at every node.
  if (shape.graph_kind == "path" && shape.algo != "five" &&
      shape.algo != "delta2")
    return "runs cycle-only algorithm '" + shape.algo + "' on a path";
  return std::nullopt;
}

const std::vector<std::string>& checked_algorithms(const CampaignPlan& plan) {
  FTCC_EXPECTS(plan.n_min >= 3 && plan.n_min <= plan.n_max);
  const std::vector<std::string>& algos =
      plan.algos.empty() ? campaign_algorithms() : plan.algos;
  for (const auto& name : algos) FTCC_EXPECTS(known_algorithm(name));
  return algos;
}

void write_plan_header(std::ostream& os, const CampaignPlan& plan,
                       const std::vector<std::string>& algos) {
  os << "seed=" << plan.seed << " trials=" << plan.trials << " n=["
     << plan.n_min << "," << plan.n_max << "] algos=";
  for (std::size_t i = 0; i < algos.size(); ++i)
    os << (i ? "," : "") << algos[i];
}

std::string replay_violation(const ScheduleArtifact& artifact,
                             InjectedFault inject) {
  FTCC_EXPECTS(!unrunnable(artifact));
  const Graph graph = artifact.graph();
  const FaultPlan faults = artifact.fault_plan();
  return with_campaign_algorithm(
      artifact,
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
  const std::vector<std::string>& algos = checked_algorithms(options);
  std::ostringstream out;
  out << "ftcc-fuzz report v1\n";
  write_plan_header(out, options, algos);
  out << " inject="
      << (options.inject == InjectedFault::none ? "none" : "no-termination")
      << " faults=" << fault_mode_name(options.fault_mode)
      << " wrap=" << (options.wrap ? 1 : 0)
      << " shrink=" << (options.shrink ? 1 : 0) << "\n";

  // Resolved observability handles beyond the kernel's (a null registry
  // leaves them all null; each use is one branch).  Nothing below feeds
  // back into the campaign.
  struct {
    obs::Counter* ok = nullptr;
    obs::Counter* censored = nullptr;
    obs::Counter* shrink_checks = nullptr;
    obs::Histogram* trial_steps = nullptr;
    obs::Histogram* lemma39_headroom = nullptr;
  } m;
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    m.ok = &reg.counter("fuzz.trials.ok");
    m.censored = &reg.counter("fuzz.trials.censored");
    m.shrink_checks = &reg.counter("fuzz.shrink.checks");
    m.trial_steps = &reg.histogram("fuzz.trial_steps");
    m.lemma39_headroom = &reg.histogram("fuzz.lemma39_headroom");
  }

  const auto run_trial = [&](std::size_t trial, std::uint64_t seed,
                             obs::TraceSink* trace,
                             TrialSlot<CampaignFailure>& slot) {
    std::ostringstream os;
    TrialConfig cfg = generate_trial(algos, options.n_min, options.n_max,
                                     seed, options.fault_mode, options.wrap);
    ScheduleArtifact& witness = cfg.witness;
    const std::uint64_t budget = linear_step_budget(witness.n);
    const Graph graph = witness.graph();
    const FaultPlan faults = witness.fault_plan();

    RecordedRun run = with_campaign_algorithm(
        witness, [&](auto algo, std::uint64_t bound, bool ordered) {
          return run_recorded(std::move(algo), graph, witness.ids, faults,
                              *cfg.sched, budget, bound, ordered,
                              options.inject);
        });

    if (m.trial_steps) m.trial_steps->observe(run.steps);
    os << "trial " << trial << " algo=" << witness.algo
       << " graph=" << witness.graph_kind << " n=" << witness.n
       << " ids=" << cfg.ids_family << " sched=" << cfg.sched_family
       << " crashes="
       << witness.crash_at_step.size() + witness.crash_after_acts.size();
    if (options.fault_mode != FaultMode::none)
      os << " recoveries=" << witness.recoveries.size()
         << " corruptions=" << witness.corruptions.size();
    os << " -> ";
    if (run.violation) {
      os << "FAIL " << *run.violation << "\n";
      witness.sigmas = std::move(run.sigmas);
      witness.seed = options.seed;
      witness.violation = *run.violation;

      CampaignFailure failure;
      failure.trial = trial;
      failure.violation = *run.violation;
      failure.original_n = witness.n;
      failure.original_steps = witness.sigmas.size();
      if (options.shrink) {
        obs::Span shrink_span(trace, "fuzz.shrink", "fuzz");
        ShrinkOptions shrink_options;
        shrink_options.max_checks = options.shrink_checks;
        shrink_options.min_nodes = witness.graph_kind == "path" ? 2u : 3u;
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
        const auto error = save_witness(options.artifact_dir, failure);
        os << (error ? "warning: " + *error : witness_line(failure)) << "\n";
      }
      slot.failure = std::move(failure);
    } else if (!run.completed) {
      slot.censored = true;
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
      if (m.ok) m.ok->inc();
      // Per-node headroom against the Lemma 3.9 activation bound
      // min{3ℓ, 3ℓ′, ℓ+ℓ′}+4, meaningful exactly for clean Algorithm 1
      // runs on the cycle (the lemma's setting: no crashes, no faults,
      // no wrapper rounds inflating the count).
      if (m.lemma39_headroom && witness.algo == "six" &&
          witness.graph_kind == "cycle" && !witness.wrapped &&
          witness.crash_at_step.empty() && witness.crash_after_acts.empty() &&
          witness.recoveries.empty() && witness.corruptions.empty()) {
        const MonotoneDistances dist = monotone_distances_on_cycle(witness.ids);
        for (NodeId v = 0; v < witness.n; ++v) {
          const auto l = static_cast<std::uint64_t>(dist.dist_to_max[v]);
          const auto lp = static_cast<std::uint64_t>(dist.dist_to_min[v]);
          const std::uint64_t bound =
              std::min({3 * l, 3 * lp, l + lp}) + 4;
          if (run.activations[v] <= bound)
            m.lemma39_headroom->observe(bound - run.activations[v]);
        }
      }
      os << "ok steps=" << run.steps
         << " max_acts=" << std::ranges::max(run.activations)
         << " fates=" << format_fates(run.fates) << "\n";
    }
    slot.text = os.str();
  };
  TrialCounts<CampaignFailure> counts =
      run_trials<CampaignFailure>(options, options.jobs, options.on_progress,
                                  "fuzz", out, run_trial);

  CampaignReport report;
  report.trials = options.trials;
  report.ok = counts.ok;
  report.censored = counts.censored;
  report.failures = std::move(counts.failures);
  out << "summary trials=" << report.trials << " ok=" << report.ok
      << " censored=" << report.censored
      << " failures=" << report.failures.size() << "\n";
  report.text = out.str();
  return report;
}

}  // namespace ftcc
