// tools/fuzz — drive a schedule-fuzzing campaign, the threaded
// certification campaign, or replay a stored counterexample artifact.
//
//   fuzz --seed=42 --trials=500 --nmax=32 --out=artifacts
//   fuzz --seed=7 --inject=no-termination --trials=20   # demo the shrinker
//   fuzz --seed=42 --inject=mixed --trials=10000        # faults, wrapped
//   fuzz --seed=42 --inject=corrupt --raw               # expect violations
//   fuzz --seed=42 --trials=10000 --jobs=8              # parallel campaign
//   fuzz --certify --seed=42 --trials=2000              # HB-certify threads
//   fuzz --certify --inject=threaded --trials=2000      # ... with faults
//   fuzz --batched --trials=300 --nmax=256              # batch vs sequential
//   fuzz --replay=artifacts/fail-3.sched
//
// The schedule-campaign and --batched reports written to stdout are a
// deterministic function of the flags *excluding* --jobs: two
// invocations with the same seed produce byte-identical output for any
// worker count (trial sub-seeds are pre-drawn and results merge in trial
// order — see run_trials in runtime/parallel.hpp).  (--certify trial
// *configurations* are seed-deterministic too, but the OS interleavings
// are not, by design; --certify runs n <= 12.)
// A failing run always names its replay artifacts: if --out was not
// given they are saved under fuzz-artifacts/ (schedules) or
// race-witnesses/ (event logs).
// Exit status: 0 = no violations, 1 = violations found (or replay failed
// to reproduce), 2 = usage or artifact error.
#include <algorithm>
#include <iostream>
#include <map>

#include "fuzz/campaign.hpp"
#include "fuzz/certify_campaign.hpp"
#include "runtime/worker_pool.hpp"
#include "scale/batch_campaign.hpp"
#include "tool_output.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("seed", std::uint64_t{1}, "master seed; every trial derives from it")
      .flag("trials", std::uint64_t{200},
            "number of fuzz trials (at most 10000000)")
      .flag("nmin", std::uint64_t{4}, "smallest graph size")
      .flag("nmax", std::uint64_t{24}, "largest graph size")
      .flag("algo", std::string("all"),
            "algorithm: all, six, five, fast5, delta2, fast6")
      .flag("out", std::string(""),
            "directory for failure artifacts (empty: don't write)")
      .flag("shrink", true, "delta-debug failures to minimal witnesses")
      .flag("inject", std::string("none"),
            "fault to inject: none, no-termination (broken invariant), "
            "corrupt, recover, mixed (real register/crash-recovery faults)")
      .flag("raw", false,
            "run fault trials without the Recovering<> wrapper (violations "
            "expected under corruption)")
      .flag("certify", false,
            "run ThreadedExecutor trials and certify each against the "
            "state model via the happens-before log (see tools/race)")
      .flag("batched", false,
            "run the batch-vs-sequential differential campaign instead "
            "(src/scale): BatchExecutor must match Executor field for "
            "field on every trial")
      .flag("replay", std::string(""),
            "replay a stored .sched artifact instead of fuzzing")
      .flag("metrics", std::string(""),
            "write campaign metrics (ftcc-metrics-v1 JSONL) to this path; "
            "aggregate or diff with tools/report")
      .flag("trace", std::string(""),
            "write per-trial / certifier-stage spans as a Chrome trace "
            "(load in Perfetto) to this path")
      .flag("progress", true,
            "overwriting progress line every 500 trials (interactive "
            "stdout only; pipes and CI logs never see it)")
      .flag("follow", false,
            "stream ftcc-metrics-v1 progress snapshot lines to stdout as "
            "the campaign runs (machine-readable; validate with "
            "tools/report --check)")
      .flag("jobs", std::uint64_t{0},
            "worker threads for the campaign (0 = all hardware cores; "
            "the report is byte-identical for any value)");
  if (!cli.parse(argc, argv)) return 2;

  const bool certify = cli.get_bool("certify");
  const std::string replay_path = cli.get_string("replay");
  const std::string inject_name = cli.get_string("inject");
  ftcc::InjectedFault inject = ftcc::InjectedFault::none;
  ftcc::FaultMode fault_mode = ftcc::FaultMode::none;
  bool threaded_faults = false;
  if (inject_name == "none") {
    // defaults
  } else if (certify) {
    // The certify campaign's only fault class is the threaded publish-point
    // one; accept "threaded" (or any of the register-fault names) to arm it.
    if (inject_name != "threaded" && inject_name != "corrupt" &&
        inject_name != "mixed") {
      std::cerr << "unknown --inject value '" << inject_name
                << "' for --certify (use threaded)\n";
      return 2;
    }
    threaded_faults = true;
  } else if (inject_name == "no-termination") {
    inject = ftcc::InjectedFault::no_termination;
  } else if (inject_name == "corrupt") {
    fault_mode = ftcc::FaultMode::corrupt;
  } else if (inject_name == "recover") {
    fault_mode = ftcc::FaultMode::recover;
  } else if (inject_name == "mixed") {
    fault_mode = ftcc::FaultMode::mixed;
  } else {
    std::cerr << "unknown --inject value '" << inject_name << "'\n";
    return 2;
  }

  if (!replay_path.empty()) {
    std::string error;
    const auto artifact = ftcc::load_schedule(replay_path, &error);
    if (!artifact) {
      std::cerr << "cannot load artifact: " << error << "\n";
      return 2;
    }
    if (!ftcc::known_algorithm(artifact->algo)) {
      std::cerr << "artifact names unknown algorithm '" << artifact->algo
                << "'\n";
      return 2;
    }
    const std::string violation = ftcc::replay_violation(*artifact, inject);
    std::cout << "replay " << replay_path << " algo=" << artifact->algo
              << " n=" << artifact->n << " steps=" << artifact->sigmas.size()
              << "\n";
    if (violation.empty()) {
      std::cout << "clean: no invariant violation reproduced\n";
      return 1;  // a stored counterexample that no longer fails is news
    }
    std::cout << "reproduced: " << violation << "\n";
    return 0;
  }

  const auto n_min = static_cast<ftcc::NodeId>(cli.get_u64("nmin"));
  const auto n_max = static_cast<ftcc::NodeId>(cli.get_u64("nmax"));
  if (n_min < 3 || n_min > n_max) {
    std::cerr << "invalid range --nmin=" << n_min << " --nmax=" << n_max
              << " (need 3 <= nmin <= nmax)\n";
    return 2;
  }
  if (cli.get_u64("trials") > ftcc::kMaxTrials) {
    std::cerr << "--trials may be at most " << ftcc::kMaxTrials << "\n";
    return 2;
  }
  // Certify trials run real threads, which cost more than sequential
  // replay: certify runs n <= 12, and a larger --nmax is capped.
  constexpr ftcc::NodeId kCertifyMaxN = 12;
  if (certify && n_min > kCertifyMaxN) {
    std::cerr << "--certify runs n <= " << kCertifyMaxN << " (got --nmin="
              << n_min << ")\n";
    return 2;
  }
  const std::string algo_flag = cli.get_string("algo");
  if (algo_flag != "all" && !ftcc::known_algorithm(algo_flag)) {
    std::cerr << "unknown --algo value '" << algo_flag << "'\n";
    return 2;
  }

  ftcc::ToolOutput output(cli);
  if (!output.probe({cli.get_string("out")})) return 2;
  const std::uint64_t jobs_flag = cli.get_u64("jobs");
  const unsigned jobs = jobs_flag == 0
                            ? ftcc::hardware_workers()
                            : static_cast<unsigned>(jobs_flag);
  if (output.trace() != nullptr && jobs > 1)
    std::cerr << "note: trace spans are recorded only at --jobs=1 "
                 "(the sink is single-threaded); running with --jobs="
              << jobs << "\n";
  const std::string seed = std::to_string(cli.get_u64("seed"));
  // The fields all three campaign kinds share.
  const auto plan = [&](auto& options) {
    options.seed = cli.get_u64("seed");
    options.trials = cli.get_u64("trials");
    options.jobs = jobs;
    options.n_min = n_min;
    options.n_max = n_max;
    if (algo_flag != "all") options.algos = {algo_flag};
    options.metrics = output.metrics();
    options.trace = output.trace();
    options.on_progress = output.progress<ftcc::CampaignProgress>(
        [](const ftcc::CampaignProgress& p) {
          return ftcc::ToolOutput::Counts{{"ok", p.ok},
                                          {"censored", p.censored},
                                          {"failures", p.failures}};
        },
        {{"tool", "fuzz"}, {"seed", seed}, {"inject", inject_name}});
  };
  const auto meta = [&](const char* mode) {
    return std::map<std::string, std::string>{
        {"tool", "fuzz"},
        {"mode", mode},
        {"seed", seed},
        {"trials", std::to_string(cli.get_u64("trials"))},
        {"algo", algo_flag},
        {"inject", inject_name}};
  };

  if (cli.get_bool("batched")) {
    if (algo_flag != "all" && !ftcc::known_batch_algorithm(algo_flag)) {
      std::cerr << "--batched supports only delta2 and fast6 (got '"
                << algo_flag << "')\n";
      return 2;
    }
    ftcc::BatchCampaignOptions options;
    plan(options);
    const ftcc::BatchCampaignReport report = ftcc::run_batch_campaign(options);
    output.report() << report.text;
    if (!output.write(meta("batched"))) return 2;
    return report.mismatches.empty() ? 0 : 1;
  }

  if (certify) {
    ftcc::CertifyCampaignOptions options;
    plan(options);
    options.artifact_dir = cli.get_string("out");
    options.n_max = std::min(n_max, kCertifyMaxN);
    options.inject_faults = threaded_faults;
    ftcc::CertifyCampaignReport report = ftcc::run_certify_campaign(options);
    output.report() << report.text;
    if (!output.persist(report.failures, "race-witnesses")) return 2;
    if (!output.write(meta("certify"))) return 2;
    return report.failures.empty() ? 0 : 1;
  }

  ftcc::CampaignOptions options;
  plan(options);
  options.artifact_dir = cli.get_string("out");
  options.shrink = cli.get_bool("shrink");
  options.inject = inject;
  options.fault_mode = fault_mode;
  // Real faults default to running under the self-healing wrapper; --raw
  // exposes the unprotected algorithms (corruption is expected to bite).
  options.wrap = fault_mode != ftcc::FaultMode::none && !cli.get_bool("raw");
  ftcc::CampaignReport report = ftcc::run_campaign(options);
  output.report() << report.text;
  if (!output.persist(report.failures, "fuzz-artifacts")) return 2;
  if (!output.write(meta("campaign"))) return 2;
  return report.failures.empty() ? 0 : 1;
}
