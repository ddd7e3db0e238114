// tools/dist — drive the multi-process fault campaign: every node a
// forked OS process publishing through shared-memory seqlocks, every
// fault a real signal (SIGKILL crash-stop, SIGSTOP/SIGCONT pauses,
// re-forked revivals), every run's happens-before log certified through
// the same pipeline as tools/fuzz --certify.
//
//   dist --seed=42 --trials=100                        # healthy runs
//   dist --seed=42 --trials=1000 --inject=mixed        # the full zoo
//   dist --seed=42 --inject=kill --out=artifacts       # SIGKILL only
//   dist --seed=42 --keep-logs=logs --metrics=m.jsonl  # CI: certify all
//   dist --seed=42 --inject=mixed --trace=dist.json    # merged Chrome trace
//   dist --seed=42 --follow | tee progress.jsonl       # live snapshots
//
// The report written to stdout is a deterministic function of the flags
// (activations are serialised by the supervisor, so decisions depend
// only on the seed; see src/dist/supervisor.hpp).  --overlap trades
// that reproducibility for genuinely concurrent activations.
// Exit status: 0 = all trials proper and certified, 1 = violations or
// certification failures, 2 = usage or artifact error.
#include <algorithm>
#include <iostream>

#include "dist/dist_campaign.hpp"
#include "tool_output.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("seed", std::uint64_t{1}, "master seed; every trial derives from it")
      .flag("trials", std::uint64_t{100},
            "number of multi-process trials (at most 10000000)")
      .flag("nmin", std::uint64_t{3}, "smallest cycle size")
      .flag("nmax", std::uint64_t{8},
            "largest cycle size (every node is an OS process — keep small)")
      .flag("algo", std::string("all"),
            "algorithm: all, six, five, fast5, delta2, fast6")
      .flag("inject", std::string("none"),
            "OS faults to draw: none, kill (SIGKILL crash-stop), pause "
            "(SIGSTOP/SIGCONT), mixed (kills, pauses, revivals, delay/dup)")
      .flag("out", std::string(""),
            "directory for failure witnesses (empty: don't write)")
      .flag("keep-logs", std::string(""),
            "save EVERY trial's event log into this directory "
            "(trial-<N>.eventlog; re-certify with tools/race)")
      .flag("metrics", std::string(""),
            "write campaign metrics (ftcc-metrics-v1 JSONL) to this path")
      .flag("trace", std::string(""),
            "merge every trial's crash-surviving node telemetry into one "
            "Chrome trace (load in chrome://tracing or Perfetto) at this "
            "path; faults appear as instant markers")
      .flag("follow", false,
            "stream ftcc-metrics-v1 progress snapshot lines to stdout as "
            "the campaign runs (machine-readable; validate with "
            "tools/report --check)")
      .flag("max-steps", std::uint64_t{4096}, "supervisor step budget")
      .flag("max-read-attempts", std::uint64_t{1} << 12,
            "seqlock retry budget per neighbour read in node processes")
      .flag("overlap", false,
            "deliver whole activation sets before collecting ACKs (real "
            "races; per-trial reports stop being byte-reproducible)")
      .flag("progress", true,
            "overwriting progress line (interactive stdout only)");
  if (!cli.parse(argc, argv)) return 2;

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
  const std::string algo_flag = cli.get_string("algo");
  if (algo_flag != "all" && !ftcc::known_algorithm(algo_flag)) {
    std::cerr << "unknown --algo value '" << algo_flag << "'\n";
    return 2;
  }
  const auto inject =
      ftcc::dist::parse_dist_fault_mode(cli.get_string("inject"));
  if (!inject) {
    std::cerr << "unknown --inject value '" << cli.get_string("inject")
              << "' (use none, kill, pause, mixed)\n";
    return 2;
  }

  ftcc::ToolOutput output(cli);
  if (!output.probe({cli.get_string("out"), cli.get_string("keep-logs")}))
    return 2;
  ftcc::dist::DistCampaignOptions options;
  options.seed = cli.get_u64("seed");
  options.trials = cli.get_u64("trials");
  options.n_min = n_min;
  options.n_max = n_max;
  options.artifact_dir = cli.get_string("out");
  options.log_dir = cli.get_string("keep-logs");
  options.inject = *inject;
  options.max_steps = cli.get_u64("max-steps");
  options.max_read_attempts = cli.get_u64("max-read-attempts");
  options.overlap = cli.get_bool("overlap");
  if (algo_flag != "all") options.algos = {algo_flag};
  options.metrics = output.metrics();
  options.trace = output.trace();
  // --follow: dense enough to plot a pass-rate curve.
  if (output.follow())
    options.progress_every =
        std::max<std::uint64_t>(std::uint64_t{1}, options.trials / 10);
  options.on_progress = output.progress<ftcc::dist::DistCampaignProgress>(
      [](const ftcc::dist::DistCampaignProgress& p) {
        return ftcc::ToolOutput::Counts{
            {"ok", p.ok},
            {"certified", p.certified},
            {"violations", p.violations},
            {"crashed_nodes", p.crashed_nodes, "crashed"},
            {"failures", p.failures},
            {"completed", p.completed, nullptr}};
      },
      {{"tool", "dist"},
       {"seed", std::to_string(options.seed)},
       {"inject", cli.get_string("inject")}});

  ftcc::dist::DistCampaignReport report =
      ftcc::dist::run_dist_campaign(options);
  output.report() << report.text;
  if (!output.persist(report.failures, "dist-witnesses")) return 2;
  if (!output.write({{"tool", "dist"},
                     {"seed", std::to_string(options.seed)},
                     {"trials", std::to_string(options.trials)},
                     {"algo", algo_flag},
                     {"inject", cli.get_string("inject")}}))
    return 2;
  return report.failures.empty() && report.violations == 0 ? 0 : 1;
}
