// Include-dependency DAG + declarative layering rules (DESIGN.md §13).
//
// The model boundary the paper's proofs rely on — sequential algorithms
// above, concurrency confined to src/runtime/, signal handlers in
// src/dist/ — is ultimately an *architecture*: which subsystem may know
// about which.  The per-token rules catch banned spellings; this module
// machine-checks the shape itself.  Every analyzed file contributes its
// `#include` directives (extracted from the token stream, so commented
// includes and strings do not count, and `#if 0` regions are skipped);
// the extractor resolves quoted includes against the analyzed file set
// and builds the file-level include graph.
//
// Two whole-program checks run on it:
//
//   include-cycle — the file-level include graph must be a DAG.  A cycle
//       is reported once, on its lexicographically smallest member, with
//       the full loop spelled out in the message.
//
//   layer-violation — each src/ subsystem (the first directory component
//       under src/) declares the set of subsystems it may include, in
//       the kLayering table below.  An include edge whose (from, to)
//       subsystem pair is not allowed fails the lint.  tools/ may use
//       everything; tests/bench/examples are not walked by tools/lint.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/rules.hpp"
#include "lint/tokenizer.hpp"

namespace ftcc::lint {

/// One #include directive, with the conditional-compilation context the
/// extractor tracked for it.
struct IncludeDirective {
  std::string target;     ///< header spelling: "runtime/executor.hpp", <atomic>
  std::size_t line = 0;   ///< 1-based
  bool quoted = false;    ///< "..." (project) vs <...> (system)
  bool computed = false;  ///< #include MACRO — target is the macro name
  /// Inside an #if/#ifdef block whose condition the extractor cannot
  /// prove taken (anything but a literal 0/1).  Conditional includes
  /// still contribute graph edges: an edge that exists under any
  /// configuration is an edge the architecture must allow.
  bool conditional = false;
  /// Inside a region the extractor proved dead (`#if 0`, or the #else of
  /// `#if 1`).  Dead includes contribute no edges.
  bool dead = false;
};

/// Extract the include directives from one file's tokens.
[[nodiscard]] std::vector<IncludeDirective> extract_includes(
    const std::vector<Token>& tokens);

/// The subsystem of a repo-relative path: "runtime" for
/// src/runtime/executor.hpp, "tools" for tools/lint.cpp, "" for paths
/// outside src/ and tools/.
[[nodiscard]] std::string subsystem_of(const std::string& path);

/// The declarative layering map: subsystem -> subsystems it may include
/// (itself always allowed, listed dependencies transitively NOT implied —
/// every direct edge must be declared).  Exposed so tests can pin the
/// golden map.
[[nodiscard]] const std::map<std::string, std::vector<std::string>>&
layering_rules();

/// True iff an include edge from subsystem `from` into subsystem `to` is
/// allowed by the layering table.
[[nodiscard]] bool layer_edge_allowed(const std::string& from,
                                      const std::string& to);

/// Whole-program include graph over the analyzed file set.
class IncludeGraph {
 public:
  /// Register one analyzed file and its extracted directives.  `path` is
  /// repo-relative with forward slashes (e.g. "src/runtime/executor.hpp").
  void add_file(const std::string& path,
                const std::vector<IncludeDirective>& includes);

  /// Resolved project-internal edges of one file, in directive order.
  /// A quoted include resolves to an analyzed file either as
  /// src/<target> or relative to the including file's directory.
  [[nodiscard]] std::vector<std::string> edges_of(
      const std::string& path) const;

  /// The subsystem-level edge set actually present in the tree, as
  /// "from -> to" strings, sorted (self-edges omitted).  Tests pin this
  /// against the golden layer map.
  [[nodiscard]] std::vector<std::string> subsystem_edges() const;

  /// Run both whole-program checks; findings are attributed to the
  /// including file and directive line.
  [[nodiscard]] std::vector<Finding> check() const;

 private:
  struct FileNode {
    std::vector<IncludeDirective> includes;  ///< live, quoted only
  };
  // std::map: deterministic iteration order for reports and cycle choice.
  std::map<std::string, FileNode> files_;

  [[nodiscard]] std::string resolve(const std::string& from,
                                    const std::string& target) const;
};

}  // namespace ftcc::lint
