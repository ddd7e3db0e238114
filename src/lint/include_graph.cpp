#include "lint/include_graph.hpp"

#include <algorithm>
#include <set>

namespace ftcc::lint {

namespace {

/// Conditional-compilation state while walking directives: one entry per
/// open #if/#ifdef/#ifndef.
struct CondFrame {
  enum class State {
    live,         ///< condition unknown — includes are conditional
    proven_live,  ///< literal #if 1 — includes unconditional
    dead,         ///< literal #if 0 (or #else of proven_live) — no edges
  };
  State state = State::live;
  bool saw_else = false;
};

/// Classify a condition token sequence: literal "0" / "1" or unknown.
CondFrame::State classify_condition(const std::vector<Token>& tokens,
                                    std::size_t name_index) {
  // The condition is every directive token after the directive name on
  // the same logical directive.  Only a lone literal 0 or 1 is decided.
  std::size_t count = 0;
  std::string only;
  for (std::size_t i = name_index + 1; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.in_directive || t.text == "#") break;  // left this directive
    if (t.kind == TokKind::line_comment || t.kind == TokKind::block_comment)
      continue;
    ++count;
    only = t.text;
    if (count > 1) break;
  }
  if (count == 1 && only == "0") return CondFrame::State::dead;
  if (count == 1 && only == "1") return CondFrame::State::proven_live;
  return CondFrame::State::live;
}

}  // namespace

std::vector<IncludeDirective> extract_includes(
    const std::vector<Token>& tokens) {
  std::vector<IncludeDirective> out;
  std::vector<CondFrame> stack;

  const auto region_dead = [&] {
    return std::any_of(stack.begin(), stack.end(), [](const CondFrame& f) {
      return f.state == CondFrame::State::dead;
    });
  };
  const auto region_conditional = [&] {
    return std::any_of(stack.begin(), stack.end(), [](const CondFrame& f) {
      return f.state == CondFrame::State::live;
    });
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!t.in_directive || t.kind != TokKind::identifier ||
        t.text != t.directive)
      continue;  // only directive-name tokens drive the walk
    const std::string& d = t.text;
    if (d == "if") {
      CondFrame frame;
      frame.state = classify_condition(tokens, i);
      stack.push_back(frame);
    } else if (d == "ifdef" || d == "ifndef") {
      stack.push_back(CondFrame{});  // unknown: live-but-conditional
    } else if (d == "elif") {
      if (!stack.empty()) {
        // A branch after a decided-dead #if may be live; after a decided
        // live one it is dead; otherwise stays unknown.
        CondFrame& f = stack.back();
        f.state = f.state == CondFrame::State::proven_live
                      ? CondFrame::State::dead
                      : classify_condition(tokens, i);
      }
    } else if (d == "else") {
      if (!stack.empty()) {
        CondFrame& f = stack.back();
        f.saw_else = true;
        if (f.state == CondFrame::State::dead)
          f.state = CondFrame::State::proven_live;
        else if (f.state == CondFrame::State::proven_live)
          f.state = CondFrame::State::dead;
      }
    } else if (d == "endif") {
      if (!stack.empty()) stack.pop_back();
    } else if (d == "include") {
      IncludeDirective inc;
      inc.line = t.line;
      inc.dead = region_dead();
      inc.conditional = !inc.dead && region_conditional();
      // The target is the next token on the directive: a header-name
      // (<...>), a string ("..."), or an identifier (computed include).
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        const Token& arg = tokens[j];
        if (!arg.in_directive || arg.text == "#") break;
        if (arg.kind == TokKind::line_comment ||
            arg.kind == TokKind::block_comment)
          continue;
        if (arg.kind == TokKind::header_name) {
          inc.target = arg.text.substr(1, arg.text.size() - 2);
          inc.quoted = false;
        } else if (arg.kind == TokKind::string_lit) {
          inc.target = arg.text.substr(1, arg.text.size() - 2);
          inc.quoted = true;
        } else if (arg.kind == TokKind::identifier) {
          inc.target = arg.text;
          inc.computed = true;
        }
        break;
      }
      if (!inc.target.empty()) out.push_back(std::move(inc));
    }
  }
  return out;
}

std::string subsystem_of(const std::string& path) {
  if (path.rfind("tools/", 0) == 0) return "tools";
  if (path.rfind("src/", 0) != 0) return "";
  const std::size_t start = 4;
  const std::size_t slash = path.find('/', start);
  if (slash == std::string::npos) return "";
  return path.substr(start, slash - start);
}

const std::map<std::string, std::vector<std::string>>& layering_rules() {
  // The architecture as data (DESIGN.md §13): subsystem -> direct
  // dependencies it may include.  Order within a value is stylistic; the
  // checker treats values as sets.  Keep this the *minimal* closure of
  // the edges the tree actually needs — widening an entry is a reviewed
  // architecture decision, not a lint chore.
  static const std::map<std::string, std::vector<std::string>> rules = {
      {"util", {}},
      {"obs", {"util"}},
      {"graph", {"util"}},
      {"runtime", {"graph", "obs", "util"}},
      {"sched", {"runtime", "graph", "util"}},
      {"core", {"runtime", "graph", "util"}},
      {"analysis", {"core", "sched", "runtime", "graph", "obs", "util"}},
      {"localmodel", {"graph", "util"}},
      {"decoupled", {"localmodel", "runtime", "graph", "util"}},
      {"shm", {"runtime", "graph", "util"}},
      {"mis", {"runtime", "graph", "util"}},
      {"selfstab", {"graph", "util"}},
      {"modelcheck", {"runtime", "graph", "obs", "util"}},
      {"fuzz", {"analysis", "core", "sched", "runtime", "graph", "obs",
                "util"}},
      {"dist", {"fuzz", "analysis", "sched", "runtime", "graph", "obs",
                "util"}},
      // The batch engine consumes the algorithms (core) and replays the
      // sequential executor's contract (runtime).  Its own synchronous
      // schedule is implicit in the frontier bitmap; only the differential
      // campaign needs sched, for the sequential side's
      // SynchronousScheduler.
      {"scale", {"core", "runtime", "graph", "obs", "sched", "util"}},
      {"lint", {"util"}},
  };
  return rules;
}

bool layer_edge_allowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  if (from == "tools") return true;  // tools front every subsystem
  const auto& rules = layering_rules();
  const auto it = rules.find(from);
  if (it == rules.end()) return false;  // unknown subsystem: declare it first
  return std::find(it->second.begin(), it->second.end(), to) !=
         it->second.end();
}

void IncludeGraph::add_file(const std::string& path,
                            const std::vector<IncludeDirective>& includes) {
  FileNode& node = files_[path];
  for (const IncludeDirective& inc : includes)
    if (inc.quoted && !inc.dead && !inc.computed) node.includes.push_back(inc);
}

std::string IncludeGraph::resolve(const std::string& from,
                                  const std::string& target) const {
  // Project headers are included as "subsystem/header.hpp" relative to
  // src/ (the include root every library exports)...
  const std::string rooted = "src/" + target;
  if (files_.count(rooted)) return rooted;
  // ... or relative to the including file (bench_common.hpp style).
  const std::size_t slash = from.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = from.substr(0, slash + 1) + target;
    if (files_.count(sibling)) return sibling;
  }
  return "";
}

std::vector<std::string> IncludeGraph::edges_of(const std::string& path) const {
  std::vector<std::string> out;
  const auto it = files_.find(path);
  if (it == files_.end()) return out;
  for (const IncludeDirective& inc : it->second.includes) {
    const std::string to = resolve(path, inc.target);
    if (!to.empty() && to != path) out.push_back(to);
  }
  return out;
}

std::vector<std::string> IncludeGraph::subsystem_edges() const {
  std::set<std::string> edges;
  for (const auto& [path, node] : files_) {
    const std::string from = subsystem_of(path);
    if (from.empty()) continue;
    for (const std::string& to_file : edges_of(path)) {
      const std::string to = subsystem_of(to_file);
      if (!to.empty() && to != from) edges.insert(from + " -> " + to);
    }
  }
  return {edges.begin(), edges.end()};
}

std::vector<Finding> IncludeGraph::check() const {
  std::vector<Finding> findings;

  // Layer check: every resolved edge's subsystem pair must be declared.
  for (const auto& [path, node] : files_) {
    const std::string from = subsystem_of(path);
    if (from.empty() || from == "tools") continue;
    for (const IncludeDirective& inc : node.includes) {
      const std::string to_file = resolve(path, inc.target);
      if (to_file.empty()) continue;
      const std::string to = subsystem_of(to_file);
      if (to.empty() || layer_edge_allowed(from, to)) continue;
      findings.push_back(
          {path, inc.line, "layer-violation",
           "src/" + from + "/ may not include " + inc.target + " (src/" + to +
               "/ is not in its declared layer set; see "
               "lint/include_graph.cpp kLayering)",
           ""});
    }
  }

  // Cycle check: iterative DFS with colouring over the file-level graph.
  // Deterministic: files_ iterates sorted, edges in directive order.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> cycle;     // first cycle found, if any
  for (const auto& [start, node] : files_) {
    if (colour[start] != 0 || !cycle.empty()) continue;
    std::vector<std::pair<std::string, std::size_t>> stack;  // (file, edge#)
    std::vector<std::string> path_stack;
    stack.emplace_back(start, 0);
    path_stack.push_back(start);
    colour[start] = 1;
    while (!stack.empty() && cycle.empty()) {
      auto& [file, edge_index] = stack.back();
      const std::vector<std::string> edges = edges_of(file);
      if (edge_index >= edges.size()) {
        colour[file] = 2;
        stack.pop_back();
        path_stack.pop_back();
        continue;
      }
      const std::string next = edges[edge_index++];
      if (colour[next] == 1) {
        // Found a back edge: the cycle is path_stack from `next` onward.
        const auto at = std::find(path_stack.begin(), path_stack.end(), next);
        cycle.assign(at, path_stack.end());
        cycle.push_back(next);
      } else if (colour[next] == 0) {
        colour[next] = 1;
        stack.emplace_back(next, 0);
        path_stack.push_back(next);
      }
    }
  }
  if (!cycle.empty()) {
    // Report on the lexicographically smallest member, loop spelled out.
    const auto smallest = std::min_element(cycle.begin(), cycle.end() - 1);
    std::string loop;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i) loop += " -> ";
      loop += cycle[i];
    }
    findings.push_back(
        {*smallest, 1, "include-cycle", "include cycle: " + loop, ""});
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

}  // namespace ftcc::lint
