// Artifact destinations: up-front writability probes, and the one path
// by which every campaign saves its failure witnesses.
//
// Tools that run long campaigns (tools/fuzz, tools/mc, tools/dist) take
// --out / --metrics paths whose first write happens *after* the
// campaign; a typo'd or read-only destination silently discarding an
// hour of results is unacceptable, so the tools probe every destination
// before starting and fail fast (exit 2) with a clear message.  Probes
// are non-destructive: an existing file is opened in append mode (never
// truncated) and a directory probe creates and removes a throwaway
// marker file.
//
// Witnesses are saved twice over: in-trial into the campaign's
// artifact_dir when one is set, and afterwards by the tool's fallback
// persist for every failure still unsaved, so a failing run always names
// its replay files.  Neither save throws; a campaign failure type opts in
// by providing `trial`, `path`, a static `kWitness` name and
// `bool save(const std::string& path) const`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

namespace ftcc {

/// Can a file be created (or appended) at `path`?  Parent directories
/// are created as a side effect, matching what the eventual writer
/// would do.  Returns nullopt on success, else a one-line error.
[[nodiscard]] std::optional<std::string> probe_file_writable(
    const std::string& path);

/// Can files be created inside directory `dir` (created if missing)?
/// Returns nullopt on success, else a one-line error.
[[nodiscard]] std::optional<std::string> probe_dir_writable(
    const std::string& dir);

/// How a campaign names its witness files: `<dir>/<stem>-<trial><ext>`,
/// reported as "<noun> trial <trial>: <path>".
struct WitnessName {
  const char* stem;
  const char* ext;
  const char* noun;
};

/// Save `failure`'s witness into `dir` (created if missing) and set
/// failure.path.  Returns nullopt on success, else a one-line error;
/// failure.path then stays empty, so a later persist can try elsewhere.
template <typename Failure>
[[nodiscard]] std::optional<std::string> save_witness(const std::string& dir,
                                                      Failure& failure) {
  std::string error;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    error.append("cannot create witness directory '").append(dir);
    error.append("': ").append(ec.message());
    return error;
  }
  std::string path = dir;
  path.append("/").append(Failure::kWitness.stem).append("-");
  path.append(std::to_string(failure.trial)).append(Failure::kWitness.ext);
  if (!failure.save(path)) {
    error.append("cannot write witness '").append(path).append("'");
    return error;
  }
  failure.path = std::move(path);
  return std::nullopt;
}

/// The report line that names a saved witness.
template <typename Failure>
[[nodiscard]] std::string witness_line(const Failure& failure) {
  std::string line = Failure::kWitness.noun;
  line.append(" trial ").append(std::to_string(failure.trial));
  line.append(": ").append(failure.path);
  return line;
}

/// The fallback persist: save every witness whose path is still empty
/// into `fallback_dir`, appending one witness_line per saved witness to
/// `lines`.  Stops at the first error and returns it.
template <typename Failure>
[[nodiscard]] std::optional<std::string> persist_witnesses(
    std::vector<Failure>& failures, const std::string& fallback_dir,
    std::vector<std::string>& lines) {
  for (Failure& failure : failures) {
    if (!failure.path.empty()) continue;  // already saved in-trial
    if (auto error = save_witness(fallback_dir, failure)) return error;
    lines.push_back(witness_line(failure));
  }
  return std::nullopt;
}

}  // namespace ftcc
