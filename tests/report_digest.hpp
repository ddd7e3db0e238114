// FNV-1a 64 over campaign report text: the golden digests that pin each
// campaign's report bytes across builds.  The determinism tests compare
// two runs of one build, so a change that moves the bytes the same way
// twice passes them; a digest recorded once does not.  Header-only, test
// tree only.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ftcc {

inline std::uint64_t report_digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325u;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3u;
  }
  return h;
}

/// Digest of every "trial ..." line cut before " -> ": the seeded trial
/// configuration, without the verdict that follows it (certify verdicts
/// depend on the OS interleaving).
inline std::uint64_t trial_config_digest(const std::string& text) {
  std::string configs;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + at, end - at);
    if (line.rfind("trial ", 0) == 0) {
      configs.append(line.substr(0, line.find(" -> ")));
      configs.push_back('\n');
    }
    at = end + 1;
  }
  return report_digest(configs);
}

}  // namespace ftcc
