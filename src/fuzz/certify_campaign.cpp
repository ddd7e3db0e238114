#include "fuzz/certify_campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "fuzz/campaign.hpp"
#include "fuzz/dispatch.hpp"
#include "obs/runtime_metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/threaded_executor.hpp"
#include "runtime/worker_pool.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc {

namespace {

/// One threaded trial's configuration, all drawn from the trial seed (the
/// same family spread as the schedule campaign's generate_trial).
struct CertifyTrial : TrialShape {
  bool wrapped = false;
  std::vector<ThreadedFault> faults;
};

CertifyTrial generate_certify_trial(const std::vector<std::string>& algos,
                                    NodeId n_min, NodeId n_max,
                                    std::uint64_t trial_seed,
                                    bool inject_faults) {
  Xoshiro256 rng(trial_seed);
  CertifyTrial cfg;
  draw_trial_shape(algos, n_min, n_max, rng, cfg);
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
  return cfg;
}

}  // namespace

CertifyReport certify_event_log(const EventLogArtifact& artifact) {
  FTCC_EXPECTS(known_algorithm(artifact.algo));
  const Graph graph = artifact.graph();
  return with_campaign_algorithm(
      artifact.algo, artifact.wrapped,
      [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
        return certify_log(algo, graph, artifact.ids, artifact.log);
      });
}

CertifyCampaignReport run_certify_campaign(
    const CertifyCampaignOptions& options) {
  FTCC_EXPECTS(options.n_min >= 3 && options.n_min <= options.n_max);
  std::vector<std::string> algos =
      options.algos.empty() ? campaign_algorithms() : options.algos;
  for (const auto& name : algos) FTCC_EXPECTS(known_algorithm(name));
  if (!options.artifact_dir.empty())
    std::filesystem::create_directories(options.artifact_dir);

  std::ostringstream os;
  os << "ftcc-certify report v1\n";
  os << "seed=" << options.seed << " trials=" << options.trials << " n=["
     << options.n_min << "," << options.n_max << "] algos=";
  for (std::size_t i = 0; i < algos.size(); ++i)
    os << (i ? "," : "") << algos[i];
  os << " faults=" << (options.inject_faults ? 1 : 0)
     << " max_read_attempts=" << options.max_read_attempts << "\n";

  // Resolved observability handles (see campaign.cpp): decision-free.
  struct {
    obs::Counter* trials = nullptr;
    obs::Counter* certified = nullptr;
    obs::Counter* atomic = nullptr;
    obs::Counter* split = nullptr;
    obs::Counter* failures = nullptr;
    obs::Histogram* events = nullptr;
    obs::Histogram* rounds = nullptr;
    obs::Histogram* trial_us = nullptr;
    obs::Histogram* stage_us[5] = {};
    obs::Gauge* trials_per_sec = nullptr;
  } m;
  obs::ThreadedMetrics threaded_metrics;
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    m.trials = &reg.counter("certify.trials");
    m.certified = &reg.counter("certify.trials.certified");
    m.atomic = &reg.counter("certify.trials.atomic");
    m.split = &reg.counter("certify.trials.split");
    m.failures = &reg.counter("certify.trials.failures");
    m.events = &reg.histogram("certify.events");
    m.rounds = &reg.histogram("certify.rounds");
    m.trial_us = &reg.histogram("certify.trial_us");
    static constexpr const char* kStageNames[5] = {
        "certify.stage.direct_us", "certify.stage.graph_us",
        "certify.stage.linearize_us", "certify.stage.reexecute_us",
        "certify.stage.collapse_us"};
    for (std::size_t i = 0; i < 5; ++i)
      m.stage_us[i] = &reg.histogram(kStageNames[i]);
    m.trials_per_sec = &reg.gauge("certify.trials_per_sec");
    threaded_metrics = obs::ThreadedMetrics::create(reg);
  }
  obs::Stopwatch campaign_watch;
  const std::uint64_t progress_every =
      std::max<std::uint64_t>(options.progress_every, 1);

  // Same deterministic-merge shape as run_campaign: sub-seeds pre-drawn in
  // trial order, one result slot per trial, trial-order concatenation.
  std::vector<std::uint64_t> seeds(options.trials);
  Xoshiro256 master(options.seed);
  for (auto& s : seeds) s = master();

  enum class Verdict : std::uint8_t { atomic, split, failed };
  struct TrialOutcome {
    std::string text;
    Verdict verdict = Verdict::atomic;
    std::optional<CertifyCampaignFailure> failure;
  };
  std::vector<TrialOutcome> outcomes(options.trials);

  std::function<void(const TallyProgress&)> tally_cb;
  if (options.on_progress)
    tally_cb = [&options](const TallyProgress& p) {
      // CampaignProgress::censored stays 0: threaded trials never censor.
      options.on_progress({p.done, p.total, p.ok, 0, p.failures});
    };
  TrialTally tally(options.trials, progress_every, std::move(tally_cb));

  WorkerPool pool(options.jobs);
  obs::PoolMetrics pool_metrics;
  if (options.metrics != nullptr) {
    pool_metrics = obs::PoolMetrics::create(*options.metrics, "certify.pool");
    pool.attach_metrics(&pool_metrics);
  }
  // Single-threaded TraceSink: spans only when the pool is sequential too.
  obs::TraceSink* trace = pool.jobs() == 1 ? options.trace : nullptr;

  CertifyCampaignReport report;
  const auto run_trial = [&](std::size_t trial, unsigned /*worker*/) {
    obs::Span trial_span(trace, "certify.trial", "certify", m.trial_us);
    TrialOutcome& slot = outcomes[trial];
    std::ostringstream ts;
    const CertifyTrial cfg =
        generate_certify_trial(algos, options.n_min, options.n_max,
                               seeds[trial], options.inject_faults);
    const Graph graph =
        cfg.graph_kind == "path" ? make_path(cfg.n) : make_cycle(cfg.n);
    ThreadedOptions topts;
    topts.max_read_attempts = options.max_read_attempts;
    topts.faults = cfg.faults;

    HbLog log;
    const CertifyReport verdict = with_campaign_algorithm(
        cfg.algo, cfg.wrapped,
        [&](auto algo, std::uint64_t /*bound*/, bool /*ordered*/) {
          ThreadedExecutor<decltype(algo)> ex(algo, graph, cfg.ids, topts);
          ex.attach_hb_log(&log);
          if (options.metrics != nullptr) ex.attach_metrics(&threaded_metrics);
          {
            obs::Span run_span(trace, "threaded.run", "certify");
            (void)ex.run(options.max_rounds);
          }
          return certify_log(algo, graph, cfg.ids, log, trace);
        });

    if (m.trials) {
      m.trials->inc();
      m.events->observe(verdict.events);
      m.rounds->observe(verdict.rounds);
      for (std::size_t i = 0; i < 5; ++i)
        m.stage_us[i]->observe(verdict.stage_us[i]);
    }
    ts << "trial " << trial << " algo=" << cfg.algo
       << " graph=" << cfg.graph_kind << " n=" << cfg.n
       << " ids=" << cfg.ids_family << " wrapped=" << (cfg.wrapped ? 1 : 0)
       << " faults=" << cfg.faults.size() << " -> ";
    if (verdict.ok()) {
      slot.verdict = verdict.atomic ? Verdict::atomic : Verdict::split;
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
      failure.artifact.algo = cfg.algo;
      failure.artifact.graph_kind = cfg.graph_kind;
      failure.artifact.n = cfg.n;
      failure.artifact.ids = cfg.ids;
      failure.artifact.wrapped = cfg.wrapped;
      failure.artifact.max_read_attempts = options.max_read_attempts;
      failure.artifact.faults = cfg.faults;
      failure.artifact.log = log;
      failure.artifact.seed = options.seed;
      failure.artifact.verdict = failure.verdict;
      ts << "FAIL " << failure.verdict << "\n";
      if (!options.artifact_dir.empty()) {
        failure.path = options.artifact_dir + "/race-" +
                       std::to_string(trial) + ".eventlog";
        if (save_event_log(failure.path, failure.artifact)) {
          ts << "witness trial " << trial << ": " << failure.path << "\n";
        } else {
          // Losing a witness must not kill the campaign mid-run; clear
          // the path so the fallback persist pass gets another chance.
          ts << "warning: cannot save witness trial " << trial << ": "
             << failure.path << "\n";
          failure.path.clear();
        }
      }
      if (m.failures) m.failures->inc();
      slot.verdict = Verdict::failed;
      slot.failure = std::move(failure);
    }
    slot.text = ts.str();
    tally.record(slot.verdict == Verdict::failed ? TrialTally::Outcome::failed
                                                 : TrialTally::Outcome::ok);
  };
  pool.run(options.trials, run_trial);

  for (TrialOutcome& slot : outcomes) {
    ++report.trials;
    os << slot.text;
    switch (slot.verdict) {
      case Verdict::atomic:
        ++report.certified;
        ++report.atomic;
        break;
      case Verdict::split:
        ++report.certified;
        ++report.split;
        break;
      case Verdict::failed:
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
  os << "summary trials=" << report.trials
     << " certified=" << report.certified << " atomic=" << report.atomic
     << " split=" << report.split << " failures=" << report.failures.size()
     << "\n";
  report.text = os.str();
  return report;
}

std::vector<std::string> persist_certify_witnesses(
    CertifyCampaignReport& report, const std::string& fallback_dir) {
  std::vector<std::string> lines;
  bool created = false;
  for (CertifyCampaignFailure& failure : report.failures) {
    if (!failure.path.empty()) continue;
    if (!created) {
      std::filesystem::create_directories(fallback_dir);
      created = true;
    }
    failure.path = fallback_dir + "/race-" + std::to_string(failure.trial) +
                   ".eventlog";
    if (save_event_log(failure.path, failure.artifact)) {
      lines.push_back("witness trial " + std::to_string(failure.trial) +
                      ": " + failure.path);
    } else {
      lines.push_back("warning: cannot save witness trial " +
                      std::to_string(failure.trial) + ": " + failure.path);
      failure.path.clear();
    }
  }
  return lines;
}

}  // namespace ftcc
