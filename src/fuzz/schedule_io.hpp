// Replayable schedule artifacts.  A failing fuzz run is written to disk as
// a standalone text file capturing everything an execution depends on —
// algorithm, topology, identifier assignment, crash plan, and the σ
// sequence — so that a unit test (or `tools/fuzz --replay`) can reproduce
// the violation bit-for-bit with a ReplayScheduler.  The format is
// line-oriented and versioned:
//
//   ftcc-schedule v1
//   algo fast5
//   graph cycle 5
//   ids 100 101 102 103 104
//   crash at_step 2 7
//   crash after_acts 3 1
//   recover 1 4 3 stale
//   corrupt 0 6 flip 2 17
//   wrapped 1
//   steps 3
//   sigma 0 1 2
//   sigma -
//   sigma 3 4
//   seed 12345
//   violation published identifiers collide on edge (0,1) ...
//
// The first three lines and `wrapped` are the trial shape, read and
// written by the codec the event-log witness shares
// (graph/trial_shape.hpp).  There is one `sigma` line per executor step:
// `sigma -` is the empty activation set, both when the adversary idles a
// step and when every working node sat in a crash-recovery down window
// and the executor stepped without asking the scheduler.  `seed` and
// `violation` are provenance, ignored on replay.  The fault
// directives are optional (absent = crash-stop only, exactly the original
// v1 format): `recover node at_step down_steps bottom|zero|stale` is a
// crash-recovery fault, `corrupt node at_step flip|overwrite word value` a
// register corruption, and `wrapped 1` records that the execution ran the
// algorithm under the Recovering<> self-healing wrapper.  Parsing is
// strict: a declared `steps` count not matched by that many sigma lines,
// an unknown directive, or a malformed number is an error, surfaced to the
// caller rather than asserted — truncated artifacts are expected inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/trial_shape.hpp"
#include "runtime/fault_plan.hpp"
#include "sched/schedulers.hpp"

namespace ftcc {

/// One crash-recovery fault, addressed to a node.
struct ArtifactRecovery {
  NodeId node = 0;
  RecoveryFault fault;
  friend bool operator==(const ArtifactRecovery&,
                         const ArtifactRecovery&) = default;
};

/// One register corruption, addressed to a node.
struct ArtifactCorruption {
  NodeId node = 0;
  CorruptionFault fault;
  friend bool operator==(const ArtifactCorruption&,
                         const ArtifactCorruption&) = default;
};

/// A replayable witness: the trial's shape, its faults, and the σ
/// sequence.  Without σ it is a trial's whole configuration (the fuzz
/// campaign draws one per trial and hands it on as the witness).
struct ScheduleArtifact : TrialShape {
  /// Crash plan, flattened: (node, step) / (node, activation count) pairs.
  std::vector<std::pair<NodeId, std::uint64_t>> crash_at_step;
  std::vector<std::pair<NodeId, std::uint64_t>> crash_after_acts;
  /// Beyond-crash-stop faults (empty = plain v1 artifact).
  std::vector<ArtifactRecovery> recoveries;
  std::vector<ArtifactCorruption> corruptions;
  /// The σ sequence, one set per executor step (an idle step is empty);
  /// steps beyond it replay synchronously.
  std::vector<std::vector<NodeId>> sigmas;
  /// Provenance (not used on replay): master seed and violation message.
  std::uint64_t seed = 0;
  std::string violation;

  [[nodiscard]] CrashPlan crash_plan() const;
  /// Crash plan plus recovery and corruption faults.
  [[nodiscard]] FaultPlan fault_plan() const;
  [[nodiscard]] ReplayScheduler replay() const { return ReplayScheduler(sigmas); }

  friend bool operator==(const ScheduleArtifact&,
                         const ScheduleArtifact&) = default;
};

/// Render the artifact in the v1 text format (round-trips with parse).
[[nodiscard]] std::string serialize_schedule(const ScheduleArtifact& artifact);

/// Parse the v1 text format; on failure returns nullopt and, if `error` is
/// non-null, a one-line description of what was wrong.
[[nodiscard]] std::optional<ScheduleArtifact> parse_schedule(
    const std::string& text, std::string* error = nullptr);

/// File round-trip helpers (load surfaces both I/O and parse errors).
[[nodiscard]] bool save_schedule(const std::string& path,
                                 const ScheduleArtifact& artifact);
[[nodiscard]] std::optional<ScheduleArtifact> load_schedule(
    const std::string& path, std::string* error = nullptr);

}  // namespace ftcc
