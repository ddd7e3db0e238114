#include "fuzz/certify_campaign.hpp"

#include <algorithm>
#include <sstream>

#include "fuzz/campaign.hpp"
#include "fuzz/dispatch.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/threaded_executor.hpp"
#include "util/artifacts.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

/// Draw one threaded trial's configuration from the trial seed (the same
/// family spread as the schedule campaign's generate_trial) into the
/// witness it will be saved as; returns the identifier family's name.
std::string generate_certify_trial(const std::vector<std::string>& algos,
                                   NodeId n_min, NodeId n_max,
                                   std::uint64_t trial_seed,
                                   bool inject_faults, EventLogArtifact& cfg) {
  Xoshiro256 rng(trial_seed);
  std::string ids_family = draw_trial_shape(algos, n_min, n_max, rng, cfg);
  if (inject_faults && rng.chance(0.6)) {
    cfg.wrapped = rng.chance(0.5);
    const std::uint64_t count = 1 + rng.below(2);
    for (std::uint64_t v : sample_distinct(cfg.n, count, rng)) {
      ThreadedFault fault;
      fault.node = static_cast<NodeId>(v);
      fault.after_publishes = rng.below(4);
      if (rng.chance(0.5)) {
        fault.kind = ThreadedFault::Kind::corrupt_words;
        fault.mask = rng() | 1;  // never a no-op corruption
      } else {
        fault.kind = ThreadedFault::Kind::stall_mid_publish;
      }
      cfg.faults.push_back(fault);
    }
    std::sort(cfg.faults.begin(), cfg.faults.end(),
              [](const ThreadedFault& a, const ThreadedFault& b) {
                return a.node < b.node;
              });
  }
  return ids_family;
}

}  // namespace

CertifyReport certify_event_log(const EventLogArtifact& artifact) {
  FTCC_EXPECTS(!unrunnable(artifact));
  const Graph graph = artifact.graph();
  return with_campaign_algorithm(
      artifact, [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
        return certify_log(algo, graph, artifact.ids, artifact.log);
      });
}

CertifyCampaignReport run_certify_campaign(
    const CertifyCampaignOptions& options) {
  const std::vector<std::string>& algos = checked_algorithms(options);
  std::ostringstream os;
  os << "ftcc-certify report v1\n";
  write_plan_header(os, options, algos);
  os << " faults=" << (options.inject_faults ? 1 : 0)
     << " max_read_attempts=" << options.max_read_attempts << "\n";

  // Resolved observability handles beyond the kernel's: decision-free.
  struct {
    obs::Counter* certified = nullptr;
    obs::Counter* atomic = nullptr;
    obs::Counter* split = nullptr;
    obs::Histogram* events = nullptr;
    obs::Histogram* rounds = nullptr;
    obs::Histogram* stage_us[5] = {};
  } m;
  obs::ThreadedMetrics threaded_metrics;
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    m.certified = &reg.counter("certify.trials.certified");
    m.atomic = &reg.counter("certify.trials.atomic");
    m.split = &reg.counter("certify.trials.split");
    m.events = &reg.histogram("certify.events");
    m.rounds = &reg.histogram("certify.rounds");
    static constexpr const char* kStageNames[5] = {
        "certify.stage.direct_us", "certify.stage.graph_us",
        "certify.stage.linearize_us", "certify.stage.reexecute_us",
        "certify.stage.collapse_us"};
    for (std::size_t i = 0; i < 5; ++i)
      m.stage_us[i] = &reg.histogram(kStageNames[i]);
    threaded_metrics = obs::ThreadedMetrics::create(reg);
  }

  // Which certified trials collapsed only at split semantics: one flag
  // per trial, written by that trial alone.
  std::vector<std::uint8_t> split(options.trials, 0);
  const auto run_trial = [&](std::size_t trial, std::uint64_t seed,
                             obs::TraceSink* trace,
                             TrialSlot<CertifyCampaignFailure>& slot) {
    std::ostringstream ts;
    EventLogArtifact cfg;
    const std::string ids_family =
        generate_certify_trial(algos, options.n_min, options.n_max, seed,
                               options.inject_faults, cfg);
    cfg.max_read_attempts = options.max_read_attempts;
    const Graph graph = cfg.graph();
    const ThreadedOptions topts = cfg.threaded_options();

    HbLog& log = cfg.log;
    const CertifyReport verdict = with_campaign_algorithm(
        cfg, [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
          ThreadedExecutor<decltype(algo)> ex(algo, graph, cfg.ids, topts);
          ex.attach_hb_log(&log);
          if (options.metrics != nullptr) ex.attach_metrics(&threaded_metrics);
          {
            obs::Span run_span(trace, "threaded.run", "certify");
            (void)ex.run(options.max_rounds);
          }
          return certify_log(algo, graph, cfg.ids, log, trace);
        });

    if (m.events) {
      m.events->observe(verdict.events);
      m.rounds->observe(verdict.rounds);
      for (std::size_t i = 0; i < 5; ++i)
        m.stage_us[i]->observe(verdict.stage_us[i]);
    }
    ts << "trial " << trial << " algo=" << cfg.algo
       << " graph=" << cfg.graph_kind << " n=" << cfg.n
       << " ids=" << ids_family << " wrapped=" << (cfg.wrapped ? 1 : 0)
       << " faults=" << cfg.faults.size() << " -> ";
    if (verdict.ok()) {
      split[trial] = verdict.atomic ? 0 : 1;
      if (m.certified) {
        m.certified->inc();
        (verdict.atomic ? m.atomic : m.split)->inc();
      }
      ts << "certified " << (verdict.atomic ? "atomic" : "split")
         << " events=" << verdict.events << " rounds=" << verdict.rounds
         << "\n";
    } else {
      CertifyCampaignFailure failure;
      failure.trial = trial;
      const auto& first = verdict.violations.front();
      failure.verdict = "[" + first.kind + "] " + first.message;
      failure.artifact = std::move(cfg);
      failure.artifact.seed = options.seed;
      failure.artifact.verdict = failure.verdict;
      ts << "FAIL " << failure.verdict << "\n";
      if (!options.artifact_dir.empty()) {
        const auto error = save_witness(options.artifact_dir, failure);
        ts << (error ? "warning: " + *error : witness_line(failure)) << "\n";
      }
      slot.failure = std::move(failure);
    }
    slot.text = ts.str();
  };
  TrialCounts<CertifyCampaignFailure> counts =
      run_trials<CertifyCampaignFailure>(
          options, options.jobs, options.on_progress, "certify", os, run_trial);

  CertifyCampaignReport report;
  report.trials = options.trials;
  report.certified = counts.ok;
  report.split = static_cast<std::uint64_t>(
      std::count(split.begin(), split.end(), std::uint8_t{1}));
  report.atomic = report.certified - report.split;
  report.failures = std::move(counts.failures);
  os << "summary trials=" << report.trials
     << " certified=" << report.certified << " atomic=" << report.atomic
     << " split=" << report.split << " failures=" << report.failures.size()
     << "\n";
  report.text = os.str();
  return report;
}

}  // namespace ftcc
