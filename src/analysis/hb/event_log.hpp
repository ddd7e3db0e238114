// Replayable happens-before event-log artifacts.  A threaded execution
// that fails certification is written to disk as a standalone text file
// capturing everything the certifier needs to re-derive the verdict —
// the trial configuration (algorithm, topology, identifiers, threaded
// faults) and every node's recorded event sequence — so `tools/race`
// (or a unit test) can reproduce the diagnosis bit-for-bit.  Sibling of
// the schedule artifact (fuzz/schedule_io.hpp) and deliberately the same
// line-oriented, versioned, strictly-parsed shape:
//
//   ftcc-eventlog v1
//   algo six
//   graph cycle 8
//   ids 100 101 102 103 104 105 106 107
//   wrapped 1
//   max_read_attempts 1048576
//   fault 2 corrupt 0 3735928559
//   fault 5 stall 4
//   node 0 3
//   pub 0 2 100 0 0
//   read 0 1 2 101 0 0
//   fin 0 3
//   node 1 0
//   ...
//   seed 42
//   verdict torn read: node 0 round 1 ...
//
// Event lines: `pub round version words...`, `adv round version words...`,
// `stall round odd_version`, `read round peer version words...` (version 0
// = ⊥, no words), `rdto round peer`, `rev round version` (multi-process
// restart-with-revival, src/dist/), `fin round color_code`.  `seed` and
// `verdict` are provenance, ignored on load.  The `algo`, `graph`, `ids`
// and `wrapped` lines are the trial shape, read and written by the codec
// the schedule witness shares (graph/trial_shape.hpp).  Parsing is
// strict: a declared event count not matched by that many event lines,
// an unknown directive, or a malformed number is an error surfaced to
// the caller.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/trial_shape.hpp"
#include "runtime/hb_log.hpp"
#include "runtime/threaded_executor.hpp"

namespace ftcc {

/// A threaded or multi-process run's witness: the trial's shape, the
/// threaded options it ran under, and every node's recorded events.
struct EventLogArtifact : TrialShape {
  /// The ThreadedOptions the run used (faults + read bound).
  std::uint64_t max_read_attempts = std::uint64_t{1} << 20;
  std::vector<ThreadedFault> faults;
  /// The recorded per-node event sequences.
  HbLog log;
  /// Provenance (not used on re-certification): master seed and verdict.
  std::uint64_t seed = 0;
  std::string verdict;

  [[nodiscard]] ThreadedOptions threaded_options() const {
    ThreadedOptions options;
    options.max_read_attempts = max_read_attempts;
    options.faults = faults;
    return options;
  }
};

/// Render the artifact in the v1 text format (round-trips with parse).
[[nodiscard]] std::string serialize_event_log(const EventLogArtifact& artifact);

/// Parse the v1 text format; on failure returns nullopt and, if `error` is
/// non-null, a one-line description of what was wrong.
[[nodiscard]] std::optional<EventLogArtifact> parse_event_log(
    const std::string& text, std::string* error = nullptr);

/// File round-trip helpers (load surfaces both I/O and parse errors).
[[nodiscard]] bool save_event_log(const std::string& path,
                                  const EventLogArtifact& artifact);
[[nodiscard]] std::optional<EventLogArtifact> load_event_log(
    const std::string& path, std::string* error = nullptr);

}  // namespace ftcc
