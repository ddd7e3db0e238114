// tools/report — read the machine-readable observability artifacts the
// rest of the repo emits and turn them back into something a human (or a
// CI gate) can use.
//
//   report run-a.jsonl                 # one run as a summary table
//   report run-a.jsonl run-b.jsonl     # merged (counters sum, hists add)
//   report aggregate run-a.jsonl       # histogram p50/p90/p99 summary
//   report trace w.eventlog --out=w.json   # eventlog → Chrome trace
//   report --diff run-a.jsonl run-b.jsonl
//   report --check run.jsonl BENCH_colorings.json spans.trace.json
//
// `aggregate` reduces every histogram to count/sum/mean/p50/p90/p99.
// `trace` renders an ftcc-eventlog v1 witness — certified or REJECTED —
// as a Chrome trace (analysis/hb/trace_view.hpp): one lane per node,
// HB edges as flow arrows; without --out the JSON goes to stdout.
// --check validates any mix of the four formats (metrics JSONL, follow
// snapshots, bench JSON, Chrome trace); format is sniffed per file.
// Exit status: 0 = ok, 2 = usage error, unreadable file, or failed
// validation.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/hb/trace_view.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/text_io.hpp"

namespace {

bool load_metrics(const std::string& path, ftcc::obs::MetricsFile& out) {
  const std::optional<std::string> text = ftcc::read_file(path);
  if (!text) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  std::string error;
  if (!ftcc::obs::parse_metrics_jsonl(*text, out, &error)) {
    std::cerr << path << ": " << error << "\n";
    return false;
  }
  return true;
}

void print_meta(const ftcc::obs::MetricsFile& file) {
  if (file.meta.empty()) return;
  std::cout << "meta:";
  for (const auto& [k, v] : file.meta) std::cout << " " << k << "=" << v;
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("diff", false,
           "compare exactly two metrics JSONL runs field by field")
      .flag("check", false,
            "structurally validate each file (metrics JSONL, follow "
            "snapshots, BENCH_*.json, or Chrome trace — sniffed per file)")
      .flag("out", std::string(""),
            "with `trace`: write the Chrome trace here instead of stdout")
      .accept_positionals();
  if (!cli.parse(argc, argv)) return 2;
  std::vector<std::string> paths = cli.positional();
  std::string command;
  if (!paths.empty() && (paths[0] == "aggregate" || paths[0] == "trace")) {
    command = paths[0];
    paths.erase(paths.begin());
  }
  if (paths.empty()) {
    std::cerr << "usage: report [aggregate|trace] [--diff|--check] "
                 "<file>...\n";
    return 2;
  }

  if (command == "trace") {
    if (paths.size() != 1) {
      std::cerr << "trace needs exactly one .eventlog file\n";
      return 2;
    }
    std::string error;
    const auto artifact = ftcc::load_event_log(paths[0], &error);
    if (!artifact) {
      std::cerr << "cannot load " << paths[0] << ": " << error << "\n";
      return 2;
    }
    ftcc::obs::TraceSink sink;
    const std::size_t arrows = ftcc::event_log_to_trace(*artifact, sink);
    const std::string out_path = cli.get_string("out");
    if (out_path.empty()) {
      std::cout << sink.to_json() << "\n";
    } else {
      if (!sink.write(out_path)) {
        std::cerr << "cannot write trace file " << out_path << "\n";
        return 2;
      }
      std::cout << "trace " << out_path << ": " << sink.size() << " events, "
                << arrows << " happens-before arrows"
                << (artifact->verdict.empty()
                        ? ""
                        : " (REJECTED: " + artifact->verdict + ")")
                << "\n";
    }
    return 0;
  }

  if (command == "aggregate") {
    std::vector<ftcc::obs::MetricsFile> files;
    for (const std::string& path : paths) {
      ftcc::obs::MetricsFile file;
      if (!load_metrics(path, file)) return 2;
      files.push_back(std::move(file));
    }
    const ftcc::obs::MetricsFile merged = ftcc::obs::merge_metrics(files);
    print_meta(merged);
    ftcc::obs::aggregate_table(merged).print(
        paths.size() == 1 ? paths[0] + " (aggregate)"
                          : std::to_string(paths.size()) +
                                " runs aggregated");
    return 0;
  }

  if (cli.get_bool("check")) {
    bool all_ok = true;
    for (const std::string& path : paths) {
      const std::optional<std::string> text = ftcc::read_file(path);
      if (!text) {
        std::cout << "FAIL " << path << ": cannot read\n";
        all_ok = false;
        continue;
      }
      std::string error, kind;
      if (ftcc::obs::check_payload(*text, &error, &kind)) {
        std::cout << "ok   " << path << " (" << kind << ")\n";
      } else {
        std::cout << "FAIL " << path << ": " << error << "\n";
        all_ok = false;
      }
    }
    return all_ok ? 0 : 2;
  }

  if (cli.get_bool("diff")) {
    if (paths.size() != 2) {
      std::cerr << "--diff needs exactly two metrics files\n";
      return 2;
    }
    ftcc::obs::MetricsFile a, b;
    if (!load_metrics(paths[0], a) || !load_metrics(paths[1], b)) return 2;
    ftcc::obs::metrics_diff_table(a, b).print(paths[0] + " vs " + paths[1]);
    return 0;
  }

  std::vector<ftcc::obs::MetricsFile> files;
  for (const std::string& path : paths) {
    ftcc::obs::MetricsFile file;
    if (!load_metrics(path, file)) return 2;
    files.push_back(std::move(file));
  }
  const ftcc::obs::MetricsFile merged = ftcc::obs::merge_metrics(files);
  print_meta(merged);
  const std::string title = paths.size() == 1
                                ? paths[0]
                                : std::to_string(paths.size()) + " runs merged";
  ftcc::obs::metrics_table(merged).print(title);
  return 0;
}
