// Schedule-fuzzing campaign: randomized correctness testing of the five
// core algorithms beyond the exhaustive model checker's reach (the checker
// certifies "for every σ" up to C_5; the campaign probes large n).
//
// Every trial is derived from a single 64-bit master seed: the runner
// draws one sub-seed per trial and from it picks an algorithm, a graph
// size, an identifier assignment family, a crash pattern, and an adversary
// from the scheduler portfolio (the src/sched families plus the
// adversary_search pairs family).  The draws form a ScheduleArtifact
// without σ, the trial's one record.  The trial runs under a
// RecordingScheduler with every applicable invariant monitor from
// src/analysis installed; a violation moves the recorded σ into that
// artifact, which is delta-debugged down to a minimal replayable witness
// and written to disk.
// Two campaigns with the same options produce byte-identical reports.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/schedule_io.hpp"
#include "fuzz/shrink.hpp"
#include "runtime/parallel.hpp"
#include "util/artifacts.hpp"

namespace ftcc {

/// Deliberately broken invariants, used to exercise the failure →
/// artifact → shrink pipeline end to end (a healthy campaign finds no
/// violations, so the pipeline would otherwise only run in anger).
enum class InjectedFault {
  none,
  /// Treat any node terminating as a violation; minimal witnesses are a
  /// single activation of one node, so shrinking is easy to eyeball.
  no_termination,
};

/// Which real fault classes (src/faults/) each trial draws, on top of the
/// crash-stop pattern every trial already has.
enum class FaultMode {
  none,     ///< crash-stop only (the original campaign)
  corrupt,  ///< transient register corruption (bit flips, word overwrites)
  recover,  ///< crash-recovery with wiped state and ⊥/zero/stale registers
  mixed,    ///< both of the above
};

[[nodiscard]] constexpr const char* fault_mode_name(FaultMode m) noexcept {
  switch (m) {
    case FaultMode::none: return "none";
    case FaultMode::corrupt: return "corrupt";
    case FaultMode::recover: return "recover";
    case FaultMode::mixed: return "mixed";
  }
  return "?";
}

/// Running tallies handed to CampaignOptions::on_progress.
using CampaignProgress = TallyProgress;

/// The schedule campaign's options.  The shared fields come from
/// CampaignPlan, whose defaults are this campaign's: 200 trials on n in
/// [4, 24].
struct CampaignOptions : CampaignPlan {
  /// Worker threads (runtime/worker_pool.hpp); 1 = the sequential loop.
  /// Any value yields byte-identical reports and identical shrunk
  /// witnesses (the contract tests/fuzz_parallel_test.cpp pins).
  unsigned jobs = 1;
  /// Directory for failure artifacts; empty = keep them in memory only.
  std::string artifact_dir;
  ProgressCallback on_progress;
  bool shrink = true;
  InjectedFault inject = InjectedFault::none;
  /// Real fault classes to draw per trial (beyond crash-stop).
  FaultMode fault_mode = FaultMode::none;
  /// Run algorithms under the Recovering<> self-healing wrapper.  Off by
  /// default; tools/fuzz turns it on whenever fault_mode != none unless
  /// --raw asks for the unprotected algorithms (expected to violate under
  /// corruption — that is the vulnerability the wrapper closes).
  bool wrap = false;
  /// Predicate-evaluation budget per shrink (each check is a replay).
  std::uint64_t shrink_checks = 20'000;
};

struct CampaignFailure {
  static constexpr WitnessName kWitness{"fail", ".sched", "artifact"};
  std::uint64_t trial = 0;
  std::string violation;
  /// Pre-shrink witness dimensions (the shrunk witness is in `shrink`).
  NodeId original_n = 0;
  std::uint64_t original_steps = 0;
  ShrinkResult shrink;
  /// Where the (shrunk) artifact was saved; empty until it is.
  std::string path;
  [[nodiscard]] bool save(const std::string& to) const {
    return save_schedule(to, shrink.artifact);
  }
};

struct CampaignReport {
  std::uint64_t trials = 0;
  std::uint64_t ok = 0;
  std::uint64_t censored = 0;  ///< budget exhausted without violation
  std::vector<CampaignFailure> failures;
  /// The full deterministic text report (header, one line per trial,
  /// shrink lines, summary) — byte-identical for identical options.
  std::string text;
};

/// Algorithm names the campaign understands:
/// "six" (Algorithm 1), "five" (Algorithm 2), "fast5" (Algorithm 3),
/// "delta2" (Algorithm 4 on the cycle), "fast6" (SixColoringFast).
[[nodiscard]] const std::vector<std::string>& campaign_algorithms();
[[nodiscard]] bool known_algorithm(const std::string& name);

/// Why no campaign algorithm can run on `shape`, phrased to follow
/// "artifact " in a tool's message, or nullopt if one can: the algorithm
/// must be known, and six, fast5 and fast6 run on cycles only.  (A loaded
/// witness's graph is already one the generators can build.)
[[nodiscard]] std::optional<std::string> unrunnable(const TrialShape& shape);

/// The algorithms a campaign draws from: plan.algos, or all five when it
/// is empty (valid while `plan` is).  Expects 3 <= n_min <= n_max and
/// known names.
[[nodiscard]] const std::vector<std::string>& checked_algorithms(
    const CampaignPlan& plan);

/// The header fields fuzz, certify and dist reports share:
/// "seed=S trials=T n=[a,b] algos=x,y".
void write_plan_header(std::ostream& os, const CampaignPlan& plan,
                       const std::vector<std::string>& algos);

/// Replay an artifact with the applicable monitors (plus any injected
/// fault) installed, running exactly the recorded steps under the
/// artifact's fault plan (and, if artifact.wrapped, under Recovering<>).
/// Returns the violation message, or "" if the replay is clean.  The
/// artifact must not be unrunnable().
[[nodiscard]] std::string replay_violation(
    const ScheduleArtifact& artifact,
    InjectedFault inject = InjectedFault::none);

[[nodiscard]] CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace ftcc
