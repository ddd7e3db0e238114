// tools/race — the standalone happens-before race certifier: load a
// recorded event-log artifact (written by `fuzz --certify` on failure, or
// by any test via save_event_log) and re-derive the verdict offline.
//
//   race witness.eventlog              # certify; exit 0 iff certified
//   race --verbose witness.eventlog    # ... plus the linearized schedule
//   race --expect-fail witness.eventlog  # exit 0 iff NOT certified
//
// The tool re-runs the full pipeline — version-protocol and torn/stale/
// overlap checks, happens-before graph, vector clocks, linearization,
// sequential re-execution — on the stored log, so a witness shipped in a
// bug report reproduces its diagnosis bit-for-bit on any machine, with no
// threads involved.
// Exit status: 0 = verdict matches expectation, 1 = it does not,
// 2 = usage or artifact error.
#include <iostream>

#include "fuzz/campaign.hpp"
#include "fuzz/certify_campaign.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("verbose", false, "print the certified atomic schedule, if any")
      .flag("expect-fail", false,
            "invert the exit status: succeed iff certification fails "
            "(for regression-testing stored race witnesses)")
      .accept_positionals();
  if (!cli.parse(argc, argv)) return 2;
  if (cli.positional().size() != 1) {
    std::cerr << "usage: race [--verbose] [--expect-fail] <file.eventlog>\n";
    return 2;
  }
  const std::string path = cli.positional().front();

  std::string error;
  const auto artifact = ftcc::load_event_log(path, &error);
  if (!artifact) {
    std::cerr << "cannot load event log: " << error << "\n";
    return 2;
  }
  if (const auto reason = ftcc::unrunnable(*artifact)) {
    std::cerr << "artifact " << *reason << "\n";
    return 2;
  }

  const ftcc::CertifyReport report = ftcc::certify_event_log(*artifact);
  std::cout << "race " << path << " algo=" << artifact->algo
            << " graph=" << artifact->graph_kind << " n=" << artifact->n
            << " wrapped=" << (artifact->wrapped ? 1 : 0)
            << " faults=" << artifact->faults.size()
            << " events=" << artifact->log.total_events() << "\n";
  if (!artifact->verdict.empty())
    std::cout << "recorded verdict: " << artifact->verdict << "\n";
  std::cout << "verdict: " << report.summary() << "\n";
  if (cli.get_bool("verbose") && report.atomic) {
    std::cout << "atomic schedule:";
    for (const auto& sigma : report.atomic_schedule)
      for (ftcc::NodeId v : sigma) std::cout << " " << v;
    std::cout << "\n";
  }
  const bool expect_fail = cli.get_bool("expect-fail");
  return report.ok() != expect_fail ? 0 : 1;
}
