#pragma once
// Include-graph pass: builds the real #include graph over a source tree
// and checks it against the repo's intended layer DAG.
//
// Five rule families come out of one graph:
//
//   include-cycle       any cycle in the file-level include graph
//   layer-order         a cross-directory include not in the allowed
//                       layer table (a back-edge, e.g. core/ -> runtime/)
//   include-unused      a direct include none of whose exported symbols
//                       are referenced by the including file
//   include-transitive  a symbol used whose (unique) declaring header is
//                       only reachable transitively — include it directly
//   test-only-module    a header no consumer (CLI, bench, example,
//                       perfbench) reaches: library code only tests use
//
// The same graph is emitted as DOT (directory-level condensation with
// rank clusters), committed as docs/include_graph.dot and drift-checked
// in CI, so the architecture diagram can never go stale.
//
// Symbol extraction is heuristic (class/struct/enum/union names, using
// aliases, typedefs, #defines, namespace-scope function/variable names):
// good enough to lint a tree we also control. Escape hatches: the
// standard `datc-lint: allow(rule)` marker on the offending line, and a
// `datc-lint: export(Name, ...)` marker in a header to declare symbols
// the extractor cannot see.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace datc_lint {

/// One layer (top-level directory under the linted root) and the layers
/// it may include from. Every allowed dependency must have a strictly
/// lower rank, so the table itself is a DAG by construction (validated
/// by spec_errors()).
struct Layer {
  std::string dir;
  int rank{0};
  std::vector<std::string> allowed;
};

struct LayerSpec {
  std::vector<Layer> layers;
  /// Directories beside the linted root whose files are the library's
  /// real users. Every header under the root must be reachable from one
  /// of them (test-only-module); tests/ is deliberately not a consumer.
  std::vector<std::string> consumers;
  /// Subtrees of the consumer directories that are not consumers, as
  /// paths relative to the directory holding the root.
  std::vector<std::string> non_consumers;

  [[nodiscard]] const Layer* find(const std::string& dir) const;
  /// Table self-check: unknown deps, non-decreasing ranks. Empty == OK.
  [[nodiscard]] std::vector<std::string> spec_errors() const;
};

/// The repo's intended layer DAG for src/ (documented in README
/// "Correctness tooling"; the generated docs/include_graph.dot shows the
/// edges actually present).
[[nodiscard]] LayerSpec datc_layer_spec();

struct GraphFile {
  std::string rel;   ///< path relative to the root, forward slashes
  std::string dir;   ///< first path component ("" if at the root)
  bool header{false};
  std::vector<std::size_t> direct;  ///< indices of resolved includes
  std::vector<int> direct_lines;    ///< line of each include directive
  std::vector<Token> tokens;
  std::map<int, std::set<std::string>> allow;  ///< allow-marker lines
  std::set<std::string> exported;  ///< declared top-level names (headers)
  std::set<std::string> declared;  ///< same extraction, any file kind
};

class IncludeGraph {
 public:
  /// Scans `root` recursively for C++ sources, resolves quote-includes
  /// against the root, and lexes every file once.
  [[nodiscard]] static IncludeGraph build(const std::string& root);

  /// Runs every graph rule; findings are allow-marker filtered and carry
  /// paths prefixed with the build root.
  [[nodiscard]] std::vector<Finding> check(const LayerSpec& spec) const;

  /// True when at least one of `spec.consumers` exists beside the root;
  /// without one, test-only-module has nothing to judge and is skipped.
  [[nodiscard]] bool has_consumers(const LayerSpec& spec) const;

  /// Directory-level condensation as deterministic DOT.
  [[nodiscard]] std::string to_dot(const LayerSpec& spec) const;

  [[nodiscard]] const std::vector<GraphFile>& files() const { return files_; }

 private:
  std::string root_;
  std::vector<GraphFile> files_;
  std::map<std::string, std::size_t> index_;  ///< rel path -> files_ index

  [[nodiscard]] std::string display(std::size_t idx) const;
  void check_cycles(std::vector<Finding>& out) const;
  void check_layers(const LayerSpec& spec, std::vector<Finding>& out) const;
  void check_iwyu(const LayerSpec& spec, std::vector<Finding>& out) const;
  void check_test_only(const LayerSpec& spec,
                       std::vector<Finding>& out) const;
};

}  // namespace datc_lint
