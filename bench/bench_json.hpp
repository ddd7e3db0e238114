// --json mode for the bench binaries: every bench constructs a BenchOut
// first thing in main, routes its tables through it, and returns
// out.finish().  Without --json the behavior is byte-identical to before
// (tables print, nothing is written); with --json (or --json=path) the
// recorded tables are additionally saved as BENCH_<name>.json in the
// "ftcc-bench-v1" schema that tools/report --check validates:
//
//   {"schema":"ftcc-bench-v1","bench":"<name>",
//    "tables":[{"title":...,"headers":[...],"rows":[[...],...]},...]}
//
// Every cell is a string (exactly what Table holds), so downstream
// consumers never re-parse formatted numbers ambiguously.  BenchOut strips
// only the --json flag from argv and ignores everything else — the CI
// bench loop passes google-benchmark flags to all binaries, gbench or not.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace ftcc::bench {

class BenchOut {
 public:
  /// Strips --json / --json=path from argv (call before
  /// benchmark::Initialize, which rejects flags it does not know).
  BenchOut(std::string name, int& argc, char** argv) : name_(std::move(name)) {
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        enabled_ = true;
      } else if (arg.rfind("--json=", 0) == 0) {
        enabled_ = true;
        path_ = arg.substr(7);
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;
    argv[argc] = nullptr;
    if (enabled_ && path_.empty()) path_ = "BENCH_" + name_ + ".json";
  }

  BenchOut(const BenchOut&) = delete;
  BenchOut& operator=(const BenchOut&) = delete;

  [[nodiscard]] bool json_enabled() const noexcept { return enabled_; }

  /// Print the table (exactly as benches always did) and record it.
  void table(const Table& t, const std::string& title) {
    t.print(title);
    record(t, title);
  }

  /// Record without printing (for tables the console shows differently,
  /// e.g. the google-benchmark runs).
  void record(const Table& t, const std::string& title) {
    if (enabled_) recorded_.emplace_back(title, t);
  }

  /// Write the JSON file if --json was given.  Returns `rc` unchanged on
  /// success (benches do `return out.finish(rc)`), 2 on a write failure.
  [[nodiscard]] int finish(int rc = 0) {
    if (!enabled_) return rc;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << to_json();
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s\n", path_.c_str());
    return rc;
  }

  [[nodiscard]] std::string to_json() const {
    const auto quote = [](const std::string& s) {
      std::string quoted = "\"";
      quoted.append(obs::json_escape(s)).append("\"");
      return quoted;
    };
    std::string s = "{\"schema\":\"ftcc-bench-v1\",\"bench\":";
    s += quote(name_) + ",\"tables\":[";
    for (std::size_t t = 0; t < recorded_.size(); ++t) {
      const auto& [title, tab] = recorded_[t];
      if (t) s += ",";
      s.append("{\"title\":").append(quote(title)).append(",\"headers\":[");
      for (std::size_t i = 0; i < tab.headers().size(); ++i)
        s.append(i ? "," : "").append(quote(tab.headers()[i]));
      s += "],\"rows\":[";
      for (std::size_t r = 0; r < tab.rows().size(); ++r) {
        if (r) s += ",";
        s += "[";
        for (std::size_t i = 0; i < tab.rows()[r].size(); ++i)
          s.append(i ? "," : "").append(quote(tab.rows()[r][i]));
        s += "]";
      }
      s += "]}";
    }
    s += "]}\n";
    return s;
  }

 private:
  std::string name_;
  std::string path_;
  bool enabled_ = false;
  std::vector<std::pair<std::string, Table>> recorded_;
};

}  // namespace ftcc::bench
