// The text primitives every reader and writer in the tree shares: one
// strict decimal token parser (the witness codecs and the CLI's numeric
// flags) and one whole-file read and write (witness files, tools/report,
// tools/lint).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ftcc {

/// True iff `token` is all decimal digits (no sign, no space) and fits in
/// 64 bits; the value lands in `out`.
[[nodiscard]] bool parse_u64(std::string_view token, std::uint64_t& out);

/// The file's bytes, or nullopt if it cannot be opened (and then, if
/// `error` is non-null, "cannot open '<path>'").
[[nodiscard]] std::optional<std::string> read_file(
    const std::string& path, std::string* error = nullptr);

/// Replace the file's contents with `text`; false if it cannot be written.
[[nodiscard]] bool write_file(const std::string& path, const std::string& text);

}  // namespace ftcc
