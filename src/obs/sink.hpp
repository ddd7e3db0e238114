// JSONL metrics export, schema "ftcc-metrics-v1" (DESIGN.md §9).
//
// One JSON object per line.  The first line is a meta record carrying the
// schema tag plus free-form string fields (tool, seed, campaign shape);
// every following line is one metric, sorted by name so two runs diff
// line-for-line:
//
//   {"schema":"ftcc-metrics-v1","kind":"meta","tool":"fuzz","seed":"7"}
//   {"kind":"counter","name":"fuzz.trials","value":1000}
//   {"kind":"gauge","name":"fuzz.trials_per_sec","value":812.5}
//   {"kind":"histogram","name":"fuzz.trial_us","count":1000,"sum":43210,
//    "buckets":[[4,12],[5,988]]}
//
// Histogram buckets are sparse (index, count) pairs into the log₂ bucket
// grid of util/stats.hpp.  tools/report parses this format back with
// obs/report.hpp.
// Since PR 9 the same schema tag also carries `kind:"progress"` follow
// streams (tools/dist --follow): one self-contained snapshot object per
// line, numeric tallies only, so `tail -f | jq` works mid-campaign:
//
//   {"schema":"ftcc-metrics-v1","kind":"progress","tool":"dist",
//    "done":400,"total":1000,"ok":399,"failures":1,"elapsed_us":812345}
#pragma once

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ftcc::obs {

inline constexpr const char* kMetricsSchema = "ftcc-metrics-v1";

/// Create `path`'s parent directories if any (best effort — the caller's
/// subsequent open reports real failures).  Lets --metrics=obs/run.jsonl
/// work without a prior mkdir.
void create_parent_dirs(const std::string& path);

/// Serialize a snapshot.  `meta` keys "schema" and "kind" are reserved.
[[nodiscard]] std::string metrics_to_jsonl(
    const std::vector<MetricSample>& samples,
    const std::map<std::string, std::string>& meta = {});

/// Snapshot `registry` and write it to `path`; false on I/O failure.
bool write_metrics_jsonl(const std::string& path, const Registry& registry,
                         const std::map<std::string, std::string>& meta = {});

/// One `kind:"progress"` follow line (newline-terminated).  `counts`
/// carries the numeric tallies, `labels` free-form strings (tool name);
/// "schema" and "kind" are reserved, and keys emit in sorted map order.
/// Two streams of one campaign diff line-for-line only at --jobs=1: with
/// more workers, a snapshot's tallies count whichever trials happened to
/// finish when `done` crossed the cadence.
[[nodiscard]] std::string progress_line(
    const std::map<std::string, std::uint64_t>& counts,
    const std::map<std::string, std::string>& labels = {});

/// Append-oriented JSONL file sink for long campaigns (DESIGN.md §14.4).
///
/// `truncate` replaces an existing target, `append` extends it — so two
/// campaigns can share one metrics file (tools/report merges the
/// snapshots).  Writes flush per line and FAIL FAST: the first I/O error
/// (e.g. the target directory vanished mid-run) latches ok() to false
/// and every later write becomes a no-op returning false, instead of
/// silently dropping telemetry for the rest of the campaign.
class Sink {
 public:
  enum class Mode { truncate, append };

  Sink(std::string path, Mode mode = Mode::truncate);

  /// Open succeeded and no write has failed since.
  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Write one line (newline appended) and flush; false on failure.
  bool write_line(const std::string& line);
  /// Append a full metrics snapshot block (meta line + sorted samples).
  bool write_snapshot(const Registry& registry,
                      const std::map<std::string, std::string>& meta = {});

 private:
  std::string path_;
  std::ofstream out_;
  bool failed_ = false;
};

}  // namespace ftcc::obs
