#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"

namespace ftcc {

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
  return std::strtoull(lookup(name, Entry::Kind::u64).value.c_str(), nullptr,
                       10);
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
