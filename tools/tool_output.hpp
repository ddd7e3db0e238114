// The output side the campaign tools share (tools/fuzz, tools/dist,
// tools/mc): fail-fast probes of every destination, the --metrics and
// --trace writes, --follow or tty progress, the choice of report stream,
// and the fallback persist of failure witnesses.  It reads whichever of
// --metrics, --trace, --follow and --progress the tool registered.
// Every error it prints is a usage or artifact error: the tools exit 2.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "util/artifacts.hpp"
#include "util/cli.hpp"

namespace ftcc {

class ToolOutput {
 public:
  /// One tally of a progress snapshot beyond done/total: its --follow key
  /// and its label on the tty line (null = not shown there).
  struct Count {
    const char* key;
    std::uint64_t value;
    const char* tty_label = key;
  };
  /// A snapshot's tallies, in tty display order.
  using Counts = std::vector<Count>;

  explicit ToolOutput(const Cli& cli)
      : metrics_path_(cli.has("metrics") ? cli.get_string("metrics") : ""),
        trace_path_(cli.has("trace") ? cli.get_string("trace") : ""),
        follow_(cli.has("follow") && cli.get_bool("follow")),
        tty_(!follow_ && cli.has("progress") && cli.get_bool("progress") &&
             isatty(fileno(stdout)) != 0) {}

  /// Fail fast on unwritable destinations: the given witness or log
  /// directories (empty ones are skipped), then the --metrics and --trace
  /// files.  A run whose results cannot land anywhere must not run for
  /// an hour first and lose everything at the final write.
  [[nodiscard]] bool probe(std::initializer_list<std::string> dirs = {}) const {
    for (const std::string& dir : dirs)
      if (!dir.empty())
        if (const auto error = probe_dir_writable(dir)) return fail(*error);
    for (const std::string* path : {&metrics_path_, &trace_path_})
      if (!path->empty())
        if (const auto error = probe_file_writable(*path)) return fail(*error);
    return true;
  }

  /// Always live, so a tool may attach it unconditionally; written only
  /// under --metrics.
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  /// The registry and sink to hand a campaign: null unless requested.
  [[nodiscard]] obs::Registry* metrics() {
    return metrics_path_.empty() ? nullptr : &registry_;
  }
  [[nodiscard]] obs::TraceSink* trace() {
    return trace_path_.empty() ? nullptr : &trace_;
  }
  [[nodiscard]] bool follow() const { return follow_; }

  /// Under --follow stdout carries only the ftcc-metrics-v1 stream (so
  /// it pipes straight into tools/report --check), and the human-readable
  /// report moves to stderr.
  [[nodiscard]] std::ostream& report() const {
    return follow_ ? std::cerr : std::cout;
  }

  /// The campaign's progress callback: one ftcc-metrics-v1 progress line
  /// per snapshot under --follow; an overwriting status line on an
  /// interactive stdout (whose last call erases itself, so the report
  /// starts on a fresh line); otherwise none.
  template <typename Progress>
  [[nodiscard]] std::function<void(const Progress&)> progress(
      std::function<Counts(const Progress&)> counts,
      std::map<std::string, std::string> labels) const {
    if (follow_)
      return [counts, labels](const Progress& p) {
        std::map<std::string, std::uint64_t> line{{"done", p.done},
                                                  {"total", p.total}};
        for (const Count& count : counts(p)) line[count.key] = count.value;
        std::cout << obs::progress_line(line, labels);
        std::cout.flush();
      };
    if (!tty_) return {};
    return [counts](const Progress& p) {
      if (p.done == p.total) {
        std::printf("\r\033[2K");
      } else {
        std::printf("\r[%llu/%llu]", static_cast<unsigned long long>(p.done),
                    static_cast<unsigned long long>(p.total));
        for (const Count& count : counts(p))
          if (count.tty_label != nullptr)
            std::printf(" %s=%llu", count.tty_label,
                        static_cast<unsigned long long>(count.value));
      }
      std::fflush(stdout);
    };
  }

  /// The fallback persist: a failing run always names its replay files,
  /// also when no --out was given.  Saves every witness not yet on disk
  /// into `dir` and names each in the report.
  template <typename Failure>
  [[nodiscard]] bool persist(std::vector<Failure>& failures,
                             const std::string& dir) const {
    std::vector<std::string> lines;
    const auto error = persist_witnesses(failures, dir, lines);
    for (const std::string& line : lines) report() << line << "\n";
    return !error || fail("cannot persist witnesses: " + *error);
  }

  /// Write --metrics (headed by `meta`) and --trace, if requested.
  [[nodiscard]] bool write(const std::map<std::string, std::string>& meta) {
    if (!metrics_path_.empty() &&
        !obs::write_metrics_jsonl(metrics_path_, registry_, meta))
      return fail("cannot write metrics file " + metrics_path_);
    if (!trace_path_.empty() && !trace_.write(trace_path_))
      return fail("cannot write trace file " + trace_path_);
    return true;
  }

 private:
  static bool fail(const std::string& error) {
    std::cerr << error << "\n";
    return false;
  }

  std::string metrics_path_;
  std::string trace_path_;
  bool follow_;
  bool tty_;
  obs::Registry registry_;
  obs::TraceSink trace_;
};

}  // namespace ftcc
