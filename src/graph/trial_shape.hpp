// What a campaign trial runs on before any fault or scheduler, and the
// one codec for the lines every witness file starts with.  The `.sched`
// (fuzz/schedule_io.hpp) and `.eventlog` (analysis/hb/event_log.hpp)
// witnesses derive from TrialShape and read and write these lines here:
// `algo six`, `graph cycle 8`, `ids 100 101 ...`, and `wrapped 1` for a
// run under Recovering<>, which each format writes at its own place.
// The parse rejects a graph the generators cannot build (a cycle of
// n < 3, a path of n < 2) and a node count past NodeId; whether an
// algorithm runs on the shape is the campaign's check (unrunnable,
// fuzz/campaign.hpp).
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "util/text_io.hpp"

namespace ftcc {

struct TrialShape {
  /// Algorithm name as accepted by the campaigns ("six", "five",
  /// "fast5", "delta2", "fast6").
  std::string algo;
  /// True iff the run wraps the algorithm in Recovering<>.
  bool wrapped = false;
  /// Topology: "cycle" or "path".
  std::string graph_kind = "cycle";
  NodeId n = 0;
  IdAssignment ids;

  [[nodiscard]] Graph graph() const;

  friend bool operator==(const TrialShape&, const TrialShape&) = default;
};

/// Write the `algo`, `graph` and `ids` lines.
void write_shape_lines(std::ostream& os, const TrialShape& shape);
/// Write `wrapped 1` for a wrapped run, nothing otherwise.
void write_wrapped_line(std::ostream& os, const TrialShape& shape);

/// The witness parsers' one way to fail: put `message` in `error` (when
/// non-null) and return false.
bool witness_error(std::string* error, const std::string& message);

enum class ShapeLine : std::uint8_t {
  other,   ///< not a shape directive; the format parses it itself
  parsed,  ///< read into the shape
  error,   ///< malformed; `error` says why
};

/// Read one line whose directive word `directive` was already taken off
/// `rest` into `shape`, if it is one of the shape directives.
[[nodiscard]] ShapeLine parse_shape_line(const std::string& directive,
                                         std::istream& rest, TrialShape& shape,
                                         std::string* error);

/// The checks every witness ends with: the `algo` and `graph` lines were
/// present, and there is one identifier per node.
[[nodiscard]] bool check_shape(const TrialShape& shape, std::string* error);

/// The remainder of a free-text line (a recorded violation or verdict),
/// without the separating space.
[[nodiscard]] std::string rest_of_line(std::istream& rest);

/// Read and parse the witness at `path` with `parse`: a file that cannot
/// be opened fails like a malformed one, with the reason in `error`.
template <typename Parse>
[[nodiscard]] auto load_witness(const std::string& path, std::string* error,
                                Parse parse) {
  using Result = decltype(parse(std::string(), error));
  const std::optional<std::string> text = read_file(path, error);
  return text ? parse(*text, error) : Result{};
}

}  // namespace ftcc
