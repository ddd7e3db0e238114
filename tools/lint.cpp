// tools/lint — the ftcc-analyzer front end (src/lint/, DESIGN.md §13):
// token-aware discipline rules, the include-layering DAG, and the
// transitive signal-safety / alloc-freedom proofs over the whole tree.
//
//   lint --root=.                     # analyze src/ and tools/ (CI)
//   lint --root=. --jobs=8            # parse files on 8 workers
//   lint --root=. --sarif=lint.sarif  # also write a SARIF v2.1.0 report
//   lint --root=. --baseline-out=lint-baseline.txt   # freeze findings
//   lint --rules                      # list the rule ids
//
// Output is byte-identical for any --jobs count: files are analyzed into
// indexed slots on the runtime WorkerPool and merged in file order (the
// same merge rule the campaign runners use).  Findings are waived either
// inline (`// lint:allow(rule-id)` on or above the offending line —
// preferred, the justification lives next to the code) or via the
// committed baseline file (one `path rule fingerprint` per line; the
// fingerprint is a content hash, so baselines survive line drift but
// expire when the flagged code changes).
// Exit status: 0 = clean, 1 = findings, 2 = usage/configuration error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "lint/analyzer.hpp"
#include "lint/sarif.hpp"
#include "runtime/worker_pool.hpp"
#include "util/artifacts.hpp"
#include "util/cli.hpp"
#include "util/text_io.hpp"

namespace fs = std::filesystem;

namespace {

bool write_file(const fs::path& path, const std::string& content,
                std::string& error) {
  std::ofstream out(path);
  if (!out) {
    error = "cannot open " + path.string() + " for writing";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    error = "write to " + path.string() + " failed";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ftcc::Cli cli;
  cli.flag("root", std::string("."), "repository root to lint")
      .flag("baseline", std::string("lint-baseline.txt"),
            "baseline file, relative to --root (missing = empty)")
      .flag("jobs", std::uint64_t{1},
            "worker threads for per-file analysis (0 = hardware)")
      .flag("sarif", std::string(""),
            "write a SARIF v2.1.0 report to this path")
      .flag("baseline-out", std::string(""),
            "write the post-baseline findings as a new baseline file")
      .flag("rules", false, "list rule ids and exit");
  if (!cli.parse(argc, argv)) return 2;

  if (cli.get_bool("rules")) {
    for (const std::string& id : ftcc::lint::rule_ids())
      std::cout << id << "\n";
    return 0;
  }

  // Fail fast on unwritable artifact destinations — before minutes of
  // analysis, not after (same probe discipline as the campaign tools).
  const std::string sarif_path = cli.get_string("sarif");
  const std::string baseline_out = cli.get_string("baseline-out");
  for (const std::string& artifact : {sarif_path, baseline_out}) {
    if (artifact.empty()) continue;
    if (const auto error = ftcc::probe_file_writable(artifact)) {
      std::cerr << "lint: " << *error << "\n";
      return 2;
    }
  }

  const fs::path root = cli.get_string("root");
  std::vector<ftcc::lint::BaselineEntry> baseline;
  {
    const fs::path baseline_path = root / cli.get_string("baseline");
    if (const auto content = ftcc::read_file(baseline_path.string())) {
      std::string error;
      if (!ftcc::lint::parse_baseline(*content, baseline, &error)) {
        std::cerr << baseline_path.string() << ": " << error << "\n";
        return 2;
      }
    }
  }

  // Discover the file set up front, sorted: slot order == report order.
  std::vector<fs::path> paths;
  for (const char* top : {"src", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
        paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<ftcc::lint::SourceFile> sources(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    sources[i].path = fs::relative(paths[i], root).generic_string();
    auto content = ftcc::read_file(paths[i].string());
    if (!content) {
      std::cerr << "cannot read " << paths[i].string() << "\n";
      return 2;
    }
    sources[i].content = std::move(*content);
  }

  // Per-file analysis on the pool, one indexed slot per file; the merge
  // below is a file-ordered concatenation, so any jobs count produces
  // the same ProgramAnalysis (and therefore the same bytes everywhere).
  const std::uint64_t jobs_flag = cli.get_u64("jobs");
  const unsigned jobs = jobs_flag == 0
                            ? ftcc::hardware_workers()
                            : static_cast<unsigned>(jobs_flag);
  std::vector<ftcc::lint::FileAnalysis> slots(sources.size());
  ftcc::WorkerPool pool(jobs);
  pool.run(sources.size(), [&](std::size_t index, unsigned) {
    slots[index] =
        ftcc::lint::analyze_file(sources[index].path, sources[index].content);
  });
  ftcc::lint::ProgramAnalysis analysis =
      ftcc::lint::analyze_program(std::move(slots));

  const std::size_t total = analysis.findings.size();
  std::vector<ftcc::lint::Finding> findings =
      ftcc::lint::apply_baseline(std::move(analysis.findings), baseline);
  const std::size_t baselined = total - findings.size();

  std::string error;
  if (!sarif_path.empty() &&
      !write_file(sarif_path, ftcc::lint::to_sarif(findings), error)) {
    std::cerr << "lint: " << error << "\n";
    return 2;
  }
  if (!baseline_out.empty() &&
      !write_file(baseline_out, ftcc::lint::to_baseline(findings), error)) {
    std::cerr << "lint: " << error << "\n";
    return 2;
  }

  for (const auto& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  std::cout << "lint: " << sources.size() << " files, " << findings.size()
            << " finding" << (findings.size() == 1 ? "" : "s") << ", "
            << baselined << " baselined\n";
  return findings.empty() ? 0 : 1;
}
