#include "dist/dist_campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>

#include "analysis/hb/certify.hpp"
#include "dist/supervisor.hpp"
#include "fuzz/dispatch.hpp"
#include "graph/coloring.hpp"
#include "graph/ids.hpp"
#include "obs/shm_metrics.hpp"
#include "obs/span.hpp"
#include "sched/schedulers.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ftcc::dist {

namespace {

/// One multi-process trial's configuration, all drawn from the trial
/// seed (the same family spread as the certify campaign's generator).
struct DistTrial : TrialShape {
  std::string ids_family;
  FaultPlan plan;
  std::vector<std::uint8_t> torn_crash;
  std::string sched_name;
  std::unique_ptr<Scheduler> sched;
  std::string fault_desc;
};

void draw_fault(DistTrial& cfg, NodeId v, std::uint64_t kind, Xoshiro256& rng,
                std::ostringstream& desc) {
  switch (kind) {
    case 0:
      cfg.plan.crash_at_step(v, rng.below(6));
      desc << " kill-clean(" << v << ")";
      break;
    case 1:
      cfg.plan.crash_at_step(v, rng.below(6));
      cfg.torn_crash[v] = 1;
      desc << " kill-torn(" << v << ")";
      break;
    case 2:
      cfg.plan.recover(v, {rng.below(4), 1 + rng.below(4),
                           RecoveredRegister::stale});
      desc << " pause(" << v << ")";
      break;
    case 3:
      cfg.plan.recover(v, {rng.below(4), 1 + rng.below(4),
                           RecoveredRegister::bottom});
      desc << " revive-bottom(" << v << ")";
      break;
    case 4:
      cfg.plan.recover(v, {rng.below(4), 1 + rng.below(4),
                           RecoveredRegister::zero});
      desc << " revive-zero(" << v << ")";
      break;
    case 5:
      cfg.plan.corrupt(v, {rng.below(6), CorruptionFault::Kind::bit_flip, 0,
                           rng()});
      desc << " delay(" << v << ")";
      break;
    default:
      cfg.plan.corrupt(v, {rng.below(6), CorruptionFault::Kind::overwrite, 0,
                           rng()});
      desc << " dup(" << v << ")";
      break;
  }
}

DistTrial generate_dist_trial(const std::vector<std::string>& algos,
                              NodeId n_min, NodeId n_max,
                              std::uint64_t trial_seed, DistFaultMode mode) {
  Xoshiro256 rng(trial_seed);
  DistTrial cfg;
  cfg.ids_family = draw_trial_shape(algos, n_min, n_max, rng, cfg);
  cfg.plan = FaultPlan(cfg.n);
  cfg.torn_crash.assign(cfg.n, 0);
  std::ostringstream desc;
  if (mode != DistFaultMode::none && rng.chance(0.75)) {
    cfg.wrapped = rng.chance(0.5);
    const std::uint64_t count = 1 + rng.below(2);
    for (std::uint64_t v : sample_distinct(cfg.n, count, rng)) {
      std::uint64_t kind = 0;
      switch (mode) {
        case DistFaultMode::kill: kind = rng.below(2); break;
        case DistFaultMode::pause: kind = 2; break;
        default: kind = rng.below(7); break;
      }
      draw_fault(cfg, static_cast<NodeId>(v), kind, rng, desc);
    }
  }
  cfg.fault_desc = desc.str();
  switch (rng.below(4)) {
    case 0:
      cfg.sched = std::make_unique<SynchronousScheduler>();
      cfg.sched_name = "sync";
      break;
    case 1:
      cfg.sched = std::make_unique<RandomSubsetScheduler>(0.7, rng());
      cfg.sched_name = "subset";
      break;
    case 2:
      cfg.sched = std::make_unique<RoundRobinScheduler>(1 + rng.below(2));
      cfg.sched_name = "rr";
      break;
    default:
      cfg.sched = std::make_unique<StaggeredScheduler>(1 + rng.below(2));
      cfg.sched_name = "staggered";
      break;
  }
  return cfg;
}

/// Stable per-trial metric prefix: "trial.00042" — zero-padded so the
/// registry's name-sorted snapshot lists trials in numeric order and
/// `tools/report diff` lines corresponding trials up across runs.
std::string trial_key(std::uint64_t trial) {
  std::string digits = std::to_string(trial);
  const std::size_t pad = digits.size() < 5 ? 5 - digits.size() : 0;
  return "trial." + std::string(pad, '0') + digits;
}

/// Slot-counter names in kSlotCtr* index order (dist.node.<name>).
constexpr const char* kNodeCounterNames[obs::kSlotCounters] = {
    "activations", "publishes",  "reads",  "read_retries",
    "read_timeouts", "finishes", "frames", "delays"};

/// Per-trial decision digest: chained splitmix64 over every node's
/// (fate, color, activations).  Per-trial digests are XORed into the
/// campaign digest, so it is independent of trial completion order.
std::uint64_t decisions_digest(std::uint64_t trial,
                               const ExecutionResult<std::uint64_t>& result) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL ^ trial;
  for (NodeId v = 0; v < result.fates.size(); ++v) {
    state ^= splitmix64(state) + static_cast<std::uint64_t>(result.fates[v]);
    state ^= splitmix64(state) +
             (result.outputs[v] ? *result.outputs[v] + 1 : 0);
    state ^= splitmix64(state) + result.activations[v];
  }
  return splitmix64(state);
}

}  // namespace

std::optional<DistFaultMode> parse_dist_fault_mode(const std::string& name) {
  if (name == "none") return DistFaultMode::none;
  if (name == "kill") return DistFaultMode::kill;
  if (name == "pause") return DistFaultMode::pause;
  if (name == "mixed") return DistFaultMode::mixed;
  return std::nullopt;
}

DistCampaignReport run_dist_campaign(const DistCampaignOptions& options) {
  const std::vector<std::string>& algos = checked_algorithms(options);
  if (!options.log_dir.empty()) {
    std::error_code ec;  // a failed save below reports it per trial
    std::filesystem::create_directories(options.log_dir, ec);
  }

  std::ostringstream os;
  os << "ftcc-dist report v1\n";
  write_plan_header(os, options, algos);
  os << " inject=" << dist_fault_mode_name(options.inject)
     << " overlap=" << (options.overlap ? 1 : 0)
     << " max_read_attempts=" << options.max_read_attempts << "\n";

  struct {
    obs::Counter* completed = nullptr;
    obs::Counter* certified = nullptr;
    obs::Counter* violations = nullptr;
    obs::Counter* crashes = nullptr;
    obs::Histogram* steps = nullptr;
    obs::Histogram* events = nullptr;
  } m;
  if (options.metrics != nullptr) {
    obs::Registry& reg = *options.metrics;
    m.completed = &reg.counter("dist.trials.completed");
    m.certified = &reg.counter("dist.trials.certified");
    m.violations = &reg.counter("dist.trials.violations");
    m.crashes = &reg.counter("dist.nodes.crashed");
    m.steps = &reg.histogram("dist.steps");
    m.events = &reg.histogram("dist.events");
  }

  // Trials run inline and in order, so the trial body may update these
  // campaign-wide tallies directly, and the progress bridge reads them.
  DistCampaignReport report;
  std::uint64_t crashed_nodes = 0;
  ProgressCallback on_progress;
  if (options.on_progress)
    on_progress = [&](const TallyProgress& tally) {
      options.on_progress({tally, report.completed, report.certified,
                           report.violations, crashed_nodes});
    };

  const auto run_trial = [&](std::size_t trial, std::uint64_t seed,
                             obs::TraceSink* trace,
                             TrialSlot<DistCampaignFailure>& slot) {
    const obs::Stopwatch trial_watch;
    std::ostringstream ts;
    DistTrial cfg = generate_dist_trial(algos, options.n_min, options.n_max,
                                        seed, options.inject);
    const Graph graph = cfg.graph();

    DistOptions dopts;
    dopts.max_read_attempts = options.max_read_attempts;
    dopts.overlap = options.overlap;
    dopts.torn_crash = cfg.torn_crash;

    // Position this trial's harvested spans on the merged timeline:
    // slot timestamps are ns since the region epoch, and the region is
    // created (just) inside ex.run, so "sink time at trial start" is
    // the right additive offset.
    const std::uint64_t trial_offset_us =
        trace != nullptr ? trace->now_us() : 0;

    HbLog log;
    DistTelemetry telemetry;
    const bool want_telemetry =
        options.metrics != nullptr || trace != nullptr;
    ExecutionResult<std::uint64_t> result;
    std::string runtime_error;
    const CertifyReport verdict = with_campaign_algorithm(cfg, [&](auto algo) {
      DistExecutor<decltype(algo)> ex(algo, graph, cfg.ids, cfg.plan, dopts);
      ex.attach_hb_log(&log);
      if (want_telemetry) ex.attach_telemetry(&telemetry);
      result = ex.run(*cfg.sched, options.max_steps);
      runtime_error = ex.error();
      return certify_log(algo, graph, cfg.ids, log);
    });

    PartialColoring colors(cfg.n);
    for (NodeId v = 0; v < cfg.n; ++v)
      if (result.outputs[v]) colors[v] = *result.outputs[v];
    const bool proper = is_proper_partial(graph, colors);
    const std::uint64_t digest = decisions_digest(trial, result);
    report.decisions_digest ^= digest;

    if (result.completed) ++report.completed;
    if (verdict.ok()) ++report.certified;
    if (!proper) ++report.violations;
    crashed_nodes += result.fate_count(NodeFate::crashed);
    if (options.metrics != nullptr) {
      if (result.completed) m.completed->inc();
      if (verdict.ok()) m.certified->inc();
      if (!proper) m.violations->inc();
      m.crashes->inc(result.fate_count(NodeFate::crashed));
      m.steps->observe(result.steps);
      m.events->observe(log.total_events());
      // Per-trial metric row (gauges share the trial.NNNNN prefix):
      // enough for `tools/report diff` to localize a regression to one
      // trial and re-run it by seed.  The 64-bit seed is split into two
      // 32-bit halves because gauge values are doubles.
      obs::Registry& reg = *options.metrics;
      const std::string key = trial_key(trial);
      reg.gauge(key + ".seed_hi").set(static_cast<double>(seed >> 32));
      reg.gauge(key + ".seed_lo")
          .set(static_cast<double>(seed & 0xffffffffu));
      reg.gauge(key + ".n").set(static_cast<double>(cfg.n));
      reg.gauge(key + ".steps").set(static_cast<double>(result.steps));
      reg.gauge(key + ".events")
          .set(static_cast<double>(log.total_events()));
      reg.gauge(key + ".terminated")
          .set(static_cast<double>(result.terminated_count()));
      reg.gauge(key + ".crashed")
          .set(static_cast<double>(result.fate_count(NodeFate::crashed)));
      reg.gauge(key + ".completed").set(result.completed ? 1.0 : 0.0);
      reg.gauge(key + ".certified").set(verdict.ok() ? 1.0 : 0.0);
      reg.gauge(key + ".proper").set(proper ? 1.0 : 0.0);
      reg.gauge(key + ".wall_us")
          .set(static_cast<double>(trial_watch.elapsed_us()));
    }
    if (options.metrics != nullptr && telemetry.enabled) {
      // Post-mortem shm harvest → campaign-wide node aggregates.  The
      // slots were read AFTER teardown, so SIGKILLed nodes' counts up
      // to the kill instant are included.
      obs::Registry& reg = *options.metrics;
      std::uint64_t dropped = 0;
      for (const obs::SlotSnapshot& node_slot : telemetry.slots) {
        for (std::uint32_t c = 0; c < obs::kSlotCounters; ++c)
          if (node_slot.counters[c] != 0)
            reg.counter(std::string("dist.node.") + kNodeCounterNames[c])
                .inc(node_slot.counters[c]);
        reg.histogram("dist.node.activation_ns")
            .merge_buckets(node_slot.hist_buckets[obs::kSlotHistActivationNs],
                           node_slot.hist_sums[obs::kSlotHistActivationNs]);
        reg.histogram("dist.node.read_ns")
            .merge_buckets(node_slot.hist_buckets[obs::kSlotHistReadNs],
                           node_slot.hist_sums[obs::kSlotHistReadNs]);
        dropped += node_slot.spans_written - node_slot.spans.size();
      }
      if (dropped != 0) reg.counter("dist.node.spans_dropped").inc(dropped);
    }
    if (trace != nullptr && telemetry.enabled) {
      // Merge this trial's harvested span tracks into the campaign
      // trace: one process lane per trial, one thread lane per node.
      obs::TraceSink& sink = *trace;
      const std::uint64_t pid = trial + 1;
      sink.process_name(
          pid, "trial " + std::to_string(trial) + " algo=" + cfg.algo + " " +
                   cfg.graph_kind + " n=" + std::to_string(cfg.n) +
                   " faults=[" +
                   (cfg.fault_desc.empty() ? "" : cfg.fault_desc.substr(1)) +
                   "]");
      const auto to_us = [&](std::uint64_t ns) {
        return trial_offset_us + ns / 1000;
      };
      for (NodeId v = 0; v < telemetry.slots.size(); ++v) {
        sink.thread_name(pid, v,
                         "node " + std::to_string(v) + " id=" +
                             std::to_string(cfg.ids[v]));
        for (const obs::ShmSpanRecord& span : telemetry.slots[v].spans) {
          std::string name;
          std::string cat;
          switch (span.kind) {
            case obs::kShmSpanActivation:
              name = "activation r" + std::to_string(span.aux);
              cat = "dist.act";
              break;
            case obs::kShmSpanPublish:
              name = "publish r" + std::to_string(span.aux);
              cat = "dist.pub";
              break;
            case obs::kShmSpanRead:
              name = "read n" + std::to_string(span.aux);
              cat = "dist.read";
              break;
            default:
              name = "span kind=" + std::to_string(span.kind);
              cat = "dist";
              break;
          }
          const std::uint64_t dur_us =
              span.end_ns > span.start_ns ? (span.end_ns - span.start_ns +
                                             999) / 1000
                                          : 1;
          sink.complete_on(pid, v, name, cat, to_us(span.start_ns), dur_us);
        }
      }
      for (const DistFaultMarker& marker : telemetry.markers)
        sink.instant_on(pid, marker.node, marker.label, "dist.fault",
                        to_us(marker.at_ns));
    }

    ts << "trial " << trial << " algo=" << cfg.algo
       << " graph=" << cfg.graph_kind << " n=" << cfg.n
       << " ids=" << cfg.ids_family << " wrapped=" << (cfg.wrapped ? 1 : 0)
       << " sched=" << cfg.sched_name << " faults=["
       << (cfg.fault_desc.empty() ? "" : cfg.fault_desc.substr(1)) << "] -> "
       << (result.completed ? "completed" : "partial")
       << " terminated=" << result.terminated_count() << "/" << cfg.n
       << " crashed=" << result.fate_count(NodeFate::crashed)
       << " steps=" << result.steps << " proper=" << (proper ? 1 : 0) << " "
       << (verdict.ok() ? (verdict.atomic ? "certified atomic"
                                          : "certified split")
                        : "CERTIFY-FAIL")
       << " digest=" << digest << "\n";

    EventLogArtifact artifact;
    static_cast<TrialShape&>(artifact) = cfg;
    artifact.max_read_attempts = options.max_read_attempts;
    artifact.log = std::move(log);
    artifact.seed = options.seed;

    std::string failure_verdict;
    if (!runtime_error.empty()) {
      failure_verdict = "[runtime] " + runtime_error;
    } else if (!proper) {
      failure_verdict = "[invariant] improper partial coloring";
    } else if (!verdict.ok()) {
      const auto& first = verdict.violations.front();
      failure_verdict = "[" + first.kind + "] " + first.message;
    }
    if (!failure_verdict.empty()) {
      DistCampaignFailure failure;
      failure.trial = trial;
      failure.verdict = failure_verdict;
      artifact.verdict = failure_verdict;
      failure.artifact = artifact;
      if (!options.artifact_dir.empty()) {
        const auto error = save_witness(options.artifact_dir, failure);
        ts << (error ? "warning: " + *error : witness_line(failure)) << "\n";
      }
      ts << "FAIL trial " << trial << " " << failure_verdict << "\n";
      slot.failure = std::move(failure);
    }
    if (!options.log_dir.empty()) {
      const std::string path =
          options.log_dir + "/trial-" + std::to_string(trial) + ".eventlog";
      if (!save_event_log(path, artifact))
        ts << "warning trial " << trial << ": could not save log to " << path
           << "\n";
    }
    slot.text = ts.str();
  };
  TrialCounts<DistCampaignFailure> counts =
      run_trials<DistCampaignFailure>(options, 1, on_progress, "dist", os,
                                      run_trial);

  report.trials = options.trials;
  report.failures = std::move(counts.failures);
  os << "summary trials=" << report.trials << " completed=" << report.completed
     << " certified=" << report.certified
     << " violations=" << report.violations
     << " failures=" << report.failures.size()
     << " digest=" << report.decisions_digest << "\n";
  report.text = os.str();
  return report;
}

}  // namespace ftcc::dist
