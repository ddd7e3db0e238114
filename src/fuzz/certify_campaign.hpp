// Threaded certification campaign (`tools/fuzz --certify`): run real
// ThreadedExecutor trials with the happens-before log attached and push
// every recorded execution through the race/atomicity certifier
// (src/analysis/hb/).  Trial *configurations* (algorithm, size, ids,
// threaded faults) are derived deterministically from the master seed,
// exactly like the schedule campaign; the interleavings themselves come
// from the OS scheduler, which is the point — the certifier must prove
// after the fact that whatever the hardware did linearizes into the
// paper's state model.  A trial that fails certification dumps a
// replayable event-log witness (analysis/hb/event_log.hpp) so the
// diagnosis can be reproduced offline with tools/race.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/hb/certify.hpp"
#include "analysis/hb/event_log.hpp"
#include "fuzz/campaign.hpp"

namespace ftcc {

/// The shared fields come from CampaignPlan; this campaign defaults to
/// 100 trials on n in [3, 10].
struct CertifyCampaignOptions : CampaignPlan {
  CertifyCampaignOptions() {
    trials = 100;
    n_min = 3;
    n_max = 10;
  }
  /// Worker threads running whole trials concurrently (each trial already
  /// spawns its own node threads — this multiplies them, which is the
  /// point: more cross-trial scheduler pressure per wall-clock second).
  /// Trial configurations stay seed-deterministic for any value; the text
  /// report was never byte-deterministic (the OS interleaving decides
  /// rounds/atomicity), so parallel certify trades nothing away.
  unsigned jobs = 1;
  /// Directory for failure witnesses; empty = keep them in memory only.
  std::string artifact_dir;
  /// CampaignProgress::censored stays 0: threaded trials never censor.
  ProgressCallback on_progress;
  /// Draw threaded publish-point faults (corrupt_words / stall_mid_publish)
  /// on a fraction of trials; faulty trials wrap in Recovering<> half the
  /// time (certification is about the memory model, not the coloring, so
  /// unwrapped faulty runs certify too).
  bool inject_faults = false;
  /// Seqlock retry bound per read.  Smaller than the executor default so
  /// stall-fault trials degrade to ⊥ quickly; still orders of magnitude
  /// above what a live writer needs (the reader yields its core while
  /// retrying, so the writer always gets scheduled).
  std::uint64_t max_read_attempts = std::uint64_t{1} << 16;
  /// Per-node round cutoff (probabilistic-termination tail guard).
  std::uint64_t max_rounds = 4096;
};

struct CertifyCampaignFailure {
  static constexpr WitnessName kWitness{"race", ".eventlog", "witness"};
  std::uint64_t trial = 0;
  std::string verdict;  ///< first violation, "[kind] message"
  /// Where the witness was saved; empty until it is.
  std::string path;
  EventLogArtifact artifact;
  [[nodiscard]] bool save(const std::string& to) const {
    return save_event_log(to, artifact);
  }
};

struct CertifyCampaignReport {
  std::uint64_t trials = 0;
  std::uint64_t certified = 0;  ///< linearized + decision-equivalent
  std::uint64_t atomic = 0;     ///< ... and collapsed to an atomic σ-schedule
  std::uint64_t split = 0;      ///< certified at split semantics only
  std::vector<CertifyCampaignFailure> failures;
  /// Per-trial text report.  NOT byte-deterministic (the OS interleaving
  /// decides rounds and atomicity), unlike the schedule campaign's.
  std::string text;
};

/// Certify one saved event log (dispatches on artifact.algo/wrapped).
/// The artifact must not be unrunnable().
[[nodiscard]] CertifyReport certify_event_log(const EventLogArtifact& artifact);

[[nodiscard]] CertifyCampaignReport run_certify_campaign(
    const CertifyCampaignOptions& options);

}  // namespace ftcc
