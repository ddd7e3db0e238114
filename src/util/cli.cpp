#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/text_io.hpp"

namespace ftcc {

namespace {

/// The whole string is one finite floating-point number (strtod would
/// skip leading space; the check does not).
bool valid_double(const std::string& value) {
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])))
    return false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  return *end == '\0' && errno != ERANGE && std::isfinite(parsed);
}

}  // namespace

Cli& Cli::flag(const std::string& name, std::uint64_t default_value,
               const std::string& help) {
  entries_[name] = {Entry::Kind::u64, std::to_string(default_value), help};
  return *this;
}

Cli& Cli::flag(const std::string& name, double default_value,
               const std::string& help) {
  entries_[name] = {Entry::Kind::real, std::to_string(default_value), help};
  return *this;
}

Cli& Cli::flag(const std::string& name, const std::string& default_value,
               const std::string& help) {
  entries_[name] = {Entry::Kind::text, default_value, help};
  return *this;
}

Cli& Cli::flag(const std::string& name, bool default_value,
               const std::string& help) {
  entries_[name] = {Entry::Kind::boolean, default_value ? "1" : "0", help};
  return *this;
}

Cli& Cli::accept_positionals() {
  accept_positionals_ = true;
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      if (accept_positionals_) {
        positionals_.push_back(std::move(arg));
        continue;
      }
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      print_usage(argv[0]);
      return false;
    }
    const auto eq = arg.find('=');
    std::string name = arg.substr(2, eq == std::string::npos
                                         ? std::string::npos
                                         : eq - 2);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_usage(argv[0]);
      return false;
    }
    if (eq == std::string::npos) {
      if (it->second.kind == Entry::Kind::boolean) {
        it->second.value.assign(1, '1');
      } else {
        std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
        return false;
      }
    } else {
      it->second.value = arg.substr(eq + 1);
    }
    const Entry& entry = it->second;
    std::uint64_t u64 = 0;
    if ((entry.kind == Entry::Kind::u64 && !parse_u64(entry.value, u64)) ||
        (entry.kind == Entry::Kind::real && !valid_double(entry.value))) {
      std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                   entry.value.c_str());
      return false;
    }
  }
  return true;
}

const Cli::Entry& Cli::lookup(const std::string& name,
                              Entry::Kind kind) const {
  auto it = entries_.find(name);
  FTCC_EXPECTS(it != entries_.end());
  FTCC_EXPECTS(it->second.kind == kind);
  return it->second;
}

std::uint64_t Cli::get_u64(const std::string& name) const {
  std::uint64_t value = 0;  // parse() admitted only values parse_u64 reads
  (void)parse_u64(lookup(name, Entry::Kind::u64).value, value);
  return value;
}

double Cli::get_double(const std::string& name) const {
  return std::strtod(lookup(name, Entry::Kind::real).value.c_str(), nullptr);
}

std::string Cli::get_string(const std::string& name) const {
  return lookup(name, Entry::Kind::text).value;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string& v = lookup(name, Entry::Kind::boolean).value;
  return v == "1" || v == "true" || v == "yes";
}

void Cli::print_usage(const char* prog) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", prog);
  for (const auto& [name, entry] : entries_)
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 entry.help.c_str(), entry.value.c_str());
}

}  // namespace ftcc
