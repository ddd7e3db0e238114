// A tiny --flag=value command-line parser shared by the examples.  Not a
// general-purpose library: flags are uint64/double/string/bool, unknown
// flags are an error, and --help prints the registered set.  Numeric
// values are checked in parse(): a uint64 is all decimal digits (no
// sign) and fits in 64 bits, a double is its whole string (no leading
// space) and finite, so a typo'd value fails the parse instead of
// reading as 0.  Non-flag arguments are collected as positionals only
// when the tool opted in via accept_positionals() (otherwise they stay
// an error, as before).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftcc {

class Cli {
 public:
  /// Register flags with default values before parse().
  Cli& flag(const std::string& name, std::uint64_t default_value,
            const std::string& help);
  Cli& flag(const std::string& name, double default_value,
            const std::string& help);
  Cli& flag(const std::string& name, const std::string& default_value,
            const std::string& help);
  Cli& flag(const std::string& name, bool default_value,
            const std::string& help);

  /// Allow non-flag arguments; they land in positional() in argv order.
  Cli& accept_positionals();

  /// Parse argv; returns false (after printing usage) on --help or error.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positionals_;
  }

  /// Was a flag of this name registered?
  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

 private:
  struct Entry {
    enum class Kind { u64, real, text, boolean } kind;
    std::string value;
    std::string help;
  };
  const Entry& lookup(const std::string& name, Entry::Kind kind) const;
  void print_usage(const char* prog) const;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> positionals_;
  bool accept_positionals_ = false;
};

}  // namespace ftcc
