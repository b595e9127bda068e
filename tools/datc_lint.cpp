// datc_lint — the repo-specific static analyzer.
//
// Generic tools cannot know this repo's invariants. datc_lint encodes
// them as two passes over a shared C++ tokenizer (tools/lint/lexer.*,
// literal/comment/preprocessor-aware — no libclang dependency, runs
// anywhere the repo builds):
//
// File-scope rules (tools/lint/rules.cpp):
//
//   wall-clock      The deterministic layers (core/, uwb/, sim/, fault/,
//                   config/, emg/) promise bit-identical outputs from
//                   seeds alone; wall-clock/ambient-entropy calls are
//                   banned there — dsp::Rng carries all randomness.
//   float-eq        Raw float/double ==/!= against a floating literal is
//                   a latent tolerance bug; exact equality is the parity
//                   harness's job (sim/stream_parity.*, exempt).
//   narrow-channel  PR 2's bug class: channel ids / AER addresses are
//                   u16 end-to-end; 8-bit casts/declarations truncate.
//   store-io        PR 6's retry contract: write-side file I/O in store/
//                   must go through the fault::FileIo seam.
//   rng-fork        PR 3's bug class: an Rng passed into a per-channel/
//                   per-chunk loop body without .fork() makes the draw
//                   order depend on chunking.
//   lock-scope      No manual std::mutex::lock() without a RAII guard;
//                   no guard held across a thread-pool submit/enqueue/
//                   parallel_for handoff.
//   hot-alloc       The block kernel and per-pulse hot loops
//                   (core/datc_block.hpp, uwb/receiver.cpp,
//                   core/streaming_reconstruct.*) must not allocate.
//   std-random      No std::*_distribution, std::mt19937* or
//                   std::generate_canonical in src/ outside dsp/rng.hpp:
//                   the standard leaves distribution mappings to the
//                   library, and dsp::Rng defines the repository's own.
//
// Include-graph rules (tools/lint/include_graph.cpp) — one graph, five
// rule families: include-cycle, layer-order (the src/ layer DAG),
// include-unused and include-transitive (IWYU-lite), and
// test-only-module (every header reachable from the CLI, a bench, an
// example or perfbench, not only from tests). The same graph emits
// docs/include_graph.dot, drift-checked in CI.
//
// Escape hatches: `datc-lint: allow(<rule>)` in a comment on/above the
// offending line (use with a written reason), and `datc-lint:
// export(Name, ...)` in a header to declare symbols the heuristic
// extractor cannot see.
//
// Usage:
//   datc_lint --root DIR [--root DIR]... [FILE]...  lint; exit 1 on findings
//       --graph           also run the include-graph pass over each root
//       --diff BASE       only report findings in files changed vs BASE
//                         (every test-only-module finding once a
//                         consumer file changed or was deleted)
//       --sarif OUT       write findings as SARIF 2.1.0 (code scanning)
//       --dot OUT         write the directory-level include graph as DOT
//   datc_lint --self-test FIXTURE_DIR               fixture mode
//   datc_lint --list-rules

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/include_graph.hpp"
#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace {

namespace fs = std::filesystem;

using datc_lint::Finding;
using datc_lint::IncludeGraph;
using datc_lint::LayerSpec;

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    std::cerr << "datc_lint: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool lintable(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::string norm(const std::string& p) {
  return fs::path(p).lexically_normal().generic_string();
}

// ------------------------------------------------------------- diff mode

/// Files changed or deleted relative to BASE (git diff), normalized. A
/// deleted file has no findings of its own, but deleting a consumer can
/// orphan a header (see diff_scope). Exits 2 when git cannot answer — a
/// silent empty set would make --diff mode pass vacuously.
std::set<std::string> git_changed_files(const std::string& base) {
  const std::string cmd =
      "git diff --name-only " + base + " -- '*.cpp' '*.hpp' '*.cc' '*.h'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    std::cerr << "datc_lint: cannot run git for --diff " << base << "\n";
    std::exit(2);
  }
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, got);
  }
  const int rc = pclose(pipe);
  if (rc != 0) {
    std::cerr << "datc_lint: `" << cmd << "` failed (exit " << rc << ")\n";
    std::exit(2);
  }
  std::set<std::string> files;
  std::stringstream ss(output);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) files.insert(norm(line));
  }
  return files;
}

/// True when `path` lies under one of the consumer directories beside
/// `root` (spelled as the root is: both relative to the same directory).
bool in_consumer_dir(const std::string& path, const std::string& root,
                     const LayerSpec& spec) {
  fs::path base = fs::path(root).lexically_normal();
  if (!base.has_filename()) base = base.parent_path();  // "src/" -> "src"
  base = base.parent_path();
  const auto under = [&](const std::string& dir) {
    return path.rfind(norm((base / dir).generic_string()) + "/", 0) == 0;
  };
  return std::any_of(spec.consumers.begin(), spec.consumers.end(), under) &&
         std::none_of(spec.non_consumers.begin(), spec.non_consumers.end(),
                      under);
}

/// The --diff scope: findings in the changed files. A change to a
/// consumer (tools/, bench/, examples/, perfbench/) can drop a module's
/// last include and orphan a header that did not itself change, so once
/// any consumer file changed or was deleted, every test-only-module
/// finding is reported as well.
std::vector<Finding> diff_scope(std::vector<Finding> findings,
                                const std::set<std::string>& changed,
                                const std::vector<std::string>& roots,
                                const LayerSpec& spec) {
  const bool consumer_changed =
      std::any_of(changed.begin(), changed.end(), [&](const std::string& p) {
        return std::any_of(roots.begin(), roots.end(),
                           [&](const std::string& root) {
                             return in_consumer_dir(p, root, spec);
                           });
      });
  std::vector<Finding> kept;
  for (auto& f : findings) {
    if (changed.count(norm(f.file)) != 0 ||
        (consumer_changed && f.rule == "test-only-module")) {
      kept.push_back(std::move(f));
    }
  }
  return kept;
}

// ------------------------------------------------------------------ SARIF

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// SARIF 2.1.0 with full rule metadata, consumable by GitHub code
/// scanning (upload-sarif) and by anything else that reads SARIF.
void write_sarif(std::ostream& os, const std::vector<Finding>& findings) {
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [{\n"
     << "    \"tool\": {\"driver\": {\n"
     << "      \"name\": \"datc_lint\",\n"
     << "      \"informationUri\": "
        "\"https://example.invalid/datc/README.md#correctness-tooling\",\n"
     << "      \"rules\": [\n";
  const auto& rules = datc_lint::all_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << "        {\"id\": \"" << rules[i].name
       << "\", \"shortDescription\": {\"text\": \""
       << json_escape(rules[i].summary) << "\"}}"
       << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "      ]\n    }},\n    \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "      {\"ruleId\": \"" << f.rule
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message) << "\"}, \"locations\": [{"
       << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
       << json_escape(norm(f.file)) << "\"}, \"region\": {\"startLine\": "
       << std::max(1, f.line) << "}}}]}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }]\n}\n";
}

// ------------------------------------------------------------ lint driver

struct Options {
  std::vector<std::string> roots;
  std::vector<std::string> files;
  bool graph{false};
  std::string diff_base;
  std::string sarif_out;
  std::string dot_out;
};

int write_output(const std::string& out_path, const std::string& content,
                 const char* what) {
  if (out_path == "-") {
    std::cout << content;
    return 0;
  }
  std::ofstream f(out_path, std::ios::binary);
  f << content;
  if (!f.good()) {
    std::cerr << "datc_lint: cannot write " << what << " to " << out_path
              << "\n";
    return 2;
  }
  return 0;
}

int run_lint(const Options& opt) {
  std::vector<fs::path> targets;
  for (const auto& root : opt.roots) {
    if (!fs::is_directory(root)) {
      std::cerr << "datc_lint: --root " << root << " is not a directory\n";
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        targets.push_back(entry.path());
      }
    }
  }
  for (const auto& f : opt.files) targets.emplace_back(f);
  std::sort(targets.begin(), targets.end());

  std::vector<Finding> findings;
  for (const auto& t : targets) {
    const auto file_findings =
        datc_lint::lint_source(t.generic_string(), read_file(t));
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  const LayerSpec spec = datc_lint::datc_layer_spec();
  for (const std::string& err : spec.spec_errors()) {
    std::cerr << "datc_lint: BAD LAYER TABLE: " << err << "\n";
  }
  if (!spec.spec_errors().empty()) return 2;

  if (opt.graph || !opt.dot_out.empty()) {
    if (opt.roots.empty()) {
      std::cerr << "datc_lint: --graph/--dot need at least one --root\n";
      return 2;
    }
    for (const auto& root : opt.roots) {
      const IncludeGraph graph = IncludeGraph::build(root);
      if (opt.graph) {
        if (!graph.has_consumers(spec)) {
          std::cerr << "datc_lint: no consumer directory beside " << root
                    << "; test-only-module not checked\n";
        }
        const auto graph_findings = graph.check(spec);
        findings.insert(findings.end(), graph_findings.begin(),
                        graph_findings.end());
      }
      if (!opt.dot_out.empty()) {
        // One DOT file describes one tree; multiple roots would clobber.
        if (opt.roots.size() != 1) {
          std::cerr << "datc_lint: --dot requires exactly one --root\n";
          return 2;
        }
        const int rc =
            write_output(opt.dot_out, graph.to_dot(spec), "DOT graph");
        if (rc != 0) return rc;
      }
    }
  }

  // --diff BASE: the full tree is still analyzed (graph properties are
  // global) but only findings in the diff scope are reported.
  if (!opt.diff_base.empty()) {
    const std::set<std::string> changed = git_changed_files(opt.diff_base);
    std::cout << "datc_lint: --diff " << opt.diff_base << ": "
              << changed.size() << " changed file(s) in scope\n";
    findings = diff_scope(std::move(findings), changed, opt.roots, spec);
  }
  datc_lint::sort_findings(findings);

  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "datc_lint: " << targets.size() << " files, "
            << findings.size() << " finding(s)\n";
  if (!opt.sarif_out.empty()) {
    std::ostringstream ss;
    write_sarif(ss, findings);
    const int rc = write_output(opt.sarif_out, ss.str(), "SARIF");
    if (rc != 0) return rc;
  }
  return findings.empty() ? 0 : 1;
}

// --------------------------------------------------------------- self-test

/// Flat fixture directive, first comment line:
///   datc-lint-fixture: rule=<rule|none> path=<vpath> [clean=<r1,r2,...>]
/// The fixture is linted AS IF it lived at <vpath>. rule=<r> must produce
/// >= 1 finding, all of rule <r>; rule=none must be clean, and its
/// clean= list records which rules it deliberately exercises the clean
/// side of (near-miss patterns that must NOT fire).
///
/// Graph fixtures live in FIXTURE_DIR/graph/<case>/: a mini source tree
/// plus an EXPECT file of `rule|relpath|line|message-substring` lines
/// (or the single word `none`). The include-graph pass and the file-scope
/// rules over the case's root must reproduce exactly those diagnostics. A case with a DIFF file (one changed or
/// deleted path per line, relative to the case) is filtered through the
/// --diff scope first, as if those files differed from the base. A case holding a src/ directory is linted
/// with src/ as the root, so its tools/, bench/, ... and tests/ sit
/// beside the root as in the repository (test-only-module); relpaths
/// stay relative to the case.
///
/// Coverage accounting: every file-scope rule needs >= 1 passing
/// violating fixture AND >= 1 clean fixture claiming it; every graph
/// rule needs >= 1 expected diagnostic across the graph cases, and at
/// least one graph case must be `none`. An unenforced rule is a lie in
/// the README.
int run_self_test(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    std::cerr << "datc_lint: fixture dir " << dir << " not found\n";
    return 2;
  }
  int failures = 0;
  std::set<std::string> violating_covered;
  std::set<std::string> clean_covered;

  // ---- flat fixtures: file-scope rules ----
  std::vector<fs::path> fixtures;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && lintable(entry.path())) {
      fixtures.push_back(entry.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::cerr << "datc_lint: no fixtures in " << dir << "\n";
    return 2;
  }
  for (const auto& fixture : fixtures) {
    const std::string src = read_file(fixture);
    static const std::string kTag = "datc-lint-fixture:";
    const auto tag_pos = src.find(kTag);
    std::string expected_rule;
    std::string vpath;
    std::vector<std::string> clean_claims;
    if (tag_pos != std::string::npos) {
      const std::string header =
          src.substr(tag_pos, src.find('\n', tag_pos) - tag_pos);
      std::stringstream ss(header.substr(kTag.size()));
      std::string kv;
      while (ss >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (key == "rule") expected_rule = val;
        if (key == "path") vpath = val;
        if (key == "clean") {
          std::stringstream list(val);
          std::string r;
          while (std::getline(list, r, ',')) {
            if (!r.empty()) clean_claims.push_back(r);
          }
        }
      }
    }
    bool directive_ok =
        !expected_rule.empty() && !vpath.empty() &&
        (expected_rule == "none" || datc_lint::is_known_rule(expected_rule));
    for (const auto& r : clean_claims) {
      if (!datc_lint::is_known_rule(r)) directive_ok = false;
    }
    if (!clean_claims.empty() && expected_rule != "none") {
      directive_ok = false;  // clean= only makes sense on clean fixtures
    }
    if (!directive_ok) {
      std::cerr << "FAIL " << fixture.filename().string()
                << ": missing/bad `datc-lint-fixture: rule=... path=... "
                   "[clean=...]` directive\n";
      ++failures;
      continue;
    }
    const auto findings = datc_lint::lint_source(vpath, src);
    bool ok;
    if (expected_rule == "none") {
      ok = findings.empty();
    } else {
      ok = !findings.empty() &&
           std::all_of(findings.begin(), findings.end(),
                       [&expected_rule](const Finding& f) {
                         return f.rule == expected_rule;
                       });
    }
    if (ok) {
      if (expected_rule != "none") violating_covered.insert(expected_rule);
      clean_covered.insert(clean_claims.begin(), clean_claims.end());
      std::cout << "PASS " << fixture.filename().string() << " ("
                << expected_rule << ", " << findings.size()
                << " finding(s))\n";
    } else {
      std::cerr << "FAIL " << fixture.filename().string() << ": expected "
                << (expected_rule == "none"
                        ? "no findings"
                        : ">=1 finding, all of rule '" + expected_rule + "'")
                << ", got " << findings.size() << ":\n";
      for (const auto& f : findings) {
        std::cerr << "  " << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
      }
      ++failures;
    }
  }

  // ---- the layer table itself must be a valid DAG ----
  const LayerSpec spec = datc_lint::datc_layer_spec();
  for (const std::string& err : spec.spec_errors()) {
    std::cerr << "FAIL layer table: " << err << "\n";
    ++failures;
  }

  // ---- graph fixtures: include-graph rules with exact diagnostics ----
  std::set<std::string> graph_covered;
  bool graph_clean_case = false;
  const fs::path graph_dir = fs::path(dir) / "graph";
  std::vector<fs::path> cases;
  if (fs::is_directory(graph_dir)) {
    for (const auto& entry : fs::directory_iterator(graph_dir)) {
      if (entry.is_directory()) cases.push_back(entry.path());
    }
  }
  std::sort(cases.begin(), cases.end());
  for (const auto& case_dir : cases) {
    const fs::path expect_path = case_dir / "EXPECT";
    if (!fs::is_regular_file(expect_path)) {
      std::cerr << "FAIL graph/" << case_dir.filename().string()
                << ": no EXPECT file\n";
      ++failures;
      continue;
    }
    struct Expected {
      std::string rule, rel, substring;
      int line{0};
    };
    std::vector<Expected> expected;
    bool expect_none = false;
    {
      std::stringstream ss(read_file(expect_path));
      std::string line;
      while (std::getline(ss, line)) {
        if (line.empty() || line[0] == '#') continue;
        if (line == "none") {
          expect_none = true;
          continue;
        }
        Expected e;
        std::stringstream parts(line);
        std::string field;
        std::getline(parts, e.rule, '|');
        std::getline(parts, e.rel, '|');
        std::getline(parts, field, '|');
        std::getline(parts, e.substring);
        e.line = field.empty() ? 0 : std::stoi(field);
        expected.push_back(std::move(e));
      }
    }
    const fs::path case_root = fs::is_directory(case_dir / "src")
                                   ? case_dir / "src"
                                   : case_dir;
    const IncludeGraph graph = IncludeGraph::build(case_root.string());
    auto findings = graph.check(spec);
    for (const auto& entry : fs::recursive_directory_iterator(case_root)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      const auto file_findings = datc_lint::lint_source(
          entry.path().generic_string(), read_file(entry.path()));
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
    if (fs::is_regular_file(case_dir / "DIFF")) {
      std::set<std::string> changed;
      std::stringstream ss(read_file(case_dir / "DIFF"));
      std::string line;
      while (std::getline(ss, line)) {
        if (line.empty() || line[0] == '#') continue;
        changed.insert((case_dir / line).lexically_normal().generic_string());
      }
      findings =
          diff_scope(std::move(findings), changed, {case_root.string()}, spec);
    }
    bool ok = true;
    std::string why;
    if (expect_none) {
      ok = findings.empty();
      if (!ok) why = "expected no findings";
    } else {
      // Exact set match: every expected diagnostic present (rule, file,
      // line, message substring) and no unexpected ones.
      if (findings.size() != expected.size()) {
        ok = false;
        why = "expected " + std::to_string(expected.size()) +
              " finding(s), got " + std::to_string(findings.size());
      }
      for (const auto& e : expected) {
        const std::string want_file =
            (case_dir / e.rel).lexically_normal().generic_string();
        const bool found = std::any_of(
            findings.begin(), findings.end(), [&](const Finding& f) {
              return f.rule == e.rule && norm(f.file) == want_file &&
                     f.line == e.line &&
                     f.message.find(e.substring) != std::string::npos;
            });
        if (!found) {
          ok = false;
          why = "missing diagnostic " + e.rule + "|" + e.rel + "|" +
                std::to_string(e.line) + "|" + e.substring;
          break;
        }
      }
    }
    if (ok) {
      if (expect_none) graph_clean_case = true;
      for (const auto& e : expected) graph_covered.insert(e.rule);
      std::cout << "PASS graph/" << case_dir.filename().string() << " ("
                << (expect_none ? "none"
                                : std::to_string(expected.size()) +
                                      " diagnostic(s)")
                << ")\n";
    } else {
      std::cerr << "FAIL graph/" << case_dir.filename().string() << ": "
                << why << "; actual findings:\n";
      for (const auto& f : findings) {
        std::cerr << "  " << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
      }
      ++failures;
    }
  }

  // ---- coverage accounting ----
  for (const auto& r : datc_lint::file_rules()) {
    if (violating_covered.count(r.name) == 0) {
      std::cerr << "FAIL: rule '" << r.name
                << "' has no passing violating fixture in " << dir << "\n";
      ++failures;
    }
    if (clean_covered.count(r.name) == 0) {
      std::cerr << "FAIL: rule '" << r.name
                << "' has no clean fixture claiming it (clean=" << r.name
                << ") in " << dir << "\n";
      ++failures;
    }
  }
  const auto& file_rules = datc_lint::file_rules();
  for (const auto& r : datc_lint::all_rules()) {
    const bool graph_rule =
        std::none_of(file_rules.begin(), file_rules.end(),
                     [&r](const auto& f) {
                       return std::string(f.name) == r.name;
                     });
    if (graph_rule && graph_covered.count(r.name) == 0) {
      std::cerr << "FAIL: graph rule '" << r.name
                << "' has no graph fixture case expecting it\n";
      ++failures;
    }
  }
  if (!cases.empty() && !graph_clean_case) {
    std::cerr << "FAIL: no clean graph fixture case (EXPECT `none`)\n";
    ++failures;
  }
  if (cases.empty()) {
    std::cerr << "FAIL: no graph fixture cases in "
              << graph_dir.generic_string() << "\n";
    ++failures;
  }

  std::cout << "datc_lint self-test: " << fixtures.size() << " fixtures + "
            << cases.size() << " graph case(s), " << failures
            << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string self_test_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opt.roots.emplace_back(argv[++i]);
    } else if (arg == "--self-test" && i + 1 < argc) {
      self_test_dir = argv[++i];
    } else if (arg == "--graph") {
      opt.graph = true;
    } else if (arg == "--diff" && i + 1 < argc) {
      opt.diff_base = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      opt.sarif_out = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      opt.dot_out = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& r : datc_lint::all_rules()) {
        std::cout << r.name << "\t" << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: datc_lint [--root DIR]... [FILE]...\n"
             "         [--graph] [--diff BASE] [--sarif OUT] [--dot OUT]\n"
             "       datc_lint --self-test FIXTURE_DIR\n"
             "       datc_lint --list-rules\n"
             "OUT may be '-' for stdout. Exit: 0 clean, 1 findings, "
             "2 usage/IO error.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "datc_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      opt.files.push_back(arg);
    }
  }
  if (!self_test_dir.empty()) return run_self_test(self_test_dir);
  if (opt.roots.empty() && opt.files.empty()) {
    std::cerr << "datc_lint: nothing to lint (pass --root or files)\n";
    return 2;
  }
  return run_lint(opt);
}
