#include "lint/include_graph.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace fs = std::filesystem;

namespace datc_lint {
namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

bool header_ext(const std::string& rel) {
  return rel.size() > 2 && (rel.rfind(".hpp") == rel.size() - 4 ||
                            rel.rfind(".h") == rel.size() - 2);
}

std::string stem_of(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  return dot == std::string::npos ? rel : rel.substr(0, dot);
}

std::string dir_of(const std::string& rel) {
  const std::size_t slash = rel.find('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

std::size_t match_angle(const std::vector<Token>& ts, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < ts.size(); ++j) {
    if (is_punct(ts[j], "<")) ++depth;
    if ((is_punct(ts[j], ">") && --depth == 0) ||
        (is_punct(ts[j], ">>") && (depth -= 2) <= 0)) {
      return j;
    }
  }
  return ts.size();
}

/// Heuristic extraction of the names a file declares at namespace scope:
/// type names, using-aliases, typedefs, #defines, and function/variable
/// names. Over-approximates (a call in a namespace-scope initializer can
/// slip in); that direction only weakens include-unused, never breaks
/// the build-facing checks.
std::set<std::string> extract_decls(const std::vector<Token>& ts) {
  // Standard-library vocabulary types leak in through functional casts
  // (`std::uint64_t{0}`) and using-declarations; no repo header is their
  // provider, so they never belong in the export set.
  static const std::set<std::string> kStdNames = {
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "int8_t",
      "int16_t",  "int32_t",  "int64_t",  "size_t",   "ptrdiff_t",
      "intptr_t", "uintptr_t", "string",  "vector",   "byte",
      "nullptr_t"};
  std::set<std::string> out;
  std::vector<char> braces;  // 'n' = namespace/extern block, 'o' = other
  bool pending_ns = false;
  const auto top_level = [&] {
    return std::all_of(braces.begin(), braces.end(),
                       [](char b) { return b == 'n'; });
  };
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (t.in_directive) {
      if (is_ident(t, "define") && i > 0 && is_punct(ts[i - 1], "#") &&
          i + 1 < ts.size() && ts[i + 1].kind == TokKind::kIdent) {
        out.insert(ts[i + 1].text);
      }
      continue;
    }
    if (is_punct(t, "{")) {
      braces.push_back(pending_ns ? 'n' : 'o');
      pending_ns = false;
      continue;
    }
    if (is_punct(t, "}")) {
      if (!braces.empty()) braces.pop_back();
      continue;
    }
    if (is_punct(t, ";") || is_punct(t, "=")) pending_ns = false;
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "template" && i + 1 < ts.size() &&
        is_punct(ts[i + 1], "<")) {
      i = match_angle(ts, i + 1);  // skip the parameter list entirely
      continue;
    }
    if (t.text == "namespace") {
      pending_ns = true;
      continue;
    }
    if (!top_level()) continue;
    if (t.text == "extern") {
      pending_ns = true;  // extern "C" { ... } blocks stay transparent
      continue;
    }
    if (t.text == "class" || t.text == "struct" || t.text == "union" ||
        t.text == "enum") {
      std::size_t j = i + 1;
      if (j < ts.size() &&
          (is_ident(ts[j], "class") || is_ident(ts[j], "struct"))) {
        ++j;  // enum class
      }
      if (j < ts.size() && ts[j].kind == TokKind::kIdent) {
        out.insert(ts[j].text);
      }
      continue;
    }
    if (t.text == "using") {
      if (i + 1 < ts.size() && is_ident(ts[i + 1], "namespace")) continue;
      std::string last;
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        if (is_punct(ts[j], "=")) {
          if (!last.empty()) out.insert(last);  // using Alias = ...;
          break;
        }
        if (is_punct(ts[j], ";")) {
          if (!last.empty()) out.insert(last);  // using ns::Name;
          break;
        }
        if (ts[j].kind == TokKind::kIdent) last = ts[j].text;
      }
      continue;
    }
    if (t.text == "typedef") {
      std::string last;
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        if (is_punct(ts[j], ";")) break;
        if (is_punct(ts[j], "(") && j + 2 < ts.size() &&
            is_punct(ts[j + 1], "*") &&
            ts[j + 2].kind == TokKind::kIdent) {
          last = ts[j + 2].text;  // typedef ret (*name)(args);
          break;
        }
        if (ts[j].kind == TokKind::kIdent) last = ts[j].text;
      }
      if (!last.empty()) out.insert(last);
      continue;
    }
    // Function or variable name: `Type name(` / `Type name =` / ... —
    // the previous token must look like the tail of a type.
    if (i > 0 && i + 1 < ts.size() && t.text != "operator") {
      const Token& prev = ts[i - 1];
      const bool typed_prev =
          prev.kind == TokKind::kIdent || is_punct(prev, ">") ||
          is_punct(prev, "*") || is_punct(prev, "&") || is_punct(prev, "::");
      const Token& next = ts[i + 1];
      const bool decl_next = is_punct(next, "(") || is_punct(next, "=") ||
                             is_punct(next, ";") || is_punct(next, "{") ||
                             is_punct(next, "[");
      if (typed_prev && decl_next) out.insert(t.text);
    }
  }
  for (const std::string& name : kStdNames) out.erase(name);
  return out;
}

/// The directory holding `root`, where the consumer directories live.
fs::path beside_root(const std::string& root) {
  fs::path p = fs::absolute(root).lexically_normal();
  if (!p.has_filename()) p = p.parent_path();  // "src/" -> "src"
  return p.parent_path();
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------ LayerSpec

const Layer* LayerSpec::find(const std::string& dir) const {
  for (const Layer& l : layers) {
    if (l.dir == dir) return &l;
  }
  return nullptr;
}

std::vector<std::string> LayerSpec::spec_errors() const {
  std::vector<std::string> errs;
  std::set<std::string> seen;
  for (const Layer& l : layers) {
    if (!seen.insert(l.dir).second) {
      errs.push_back("layer table lists '" + l.dir + "' twice");
    }
    for (const std::string& dep : l.allowed) {
      const Layer* d = find(dep);
      if (d == nullptr) {
        errs.push_back("layer '" + l.dir + "' allows unknown layer '" +
                       dep + "'");
      } else if (d->rank >= l.rank) {
        errs.push_back("layer '" + l.dir + "' (rank " +
                       std::to_string(l.rank) + ") allows '" + dep +
                       "' (rank " + std::to_string(d->rank) +
                       ") — allowed deps must rank strictly lower");
      }
    }
  }
  return errs;
}

LayerSpec datc_layer_spec() {
  // Keep in sync with the table in README.md "Correctness tooling".
  LayerSpec spec;
  spec.layers = {
      {"dsp", 0, {}},
      {"afe", 1, {"dsp"}},
      {"fault", 1, {"dsp"}},
      {"simd", 1, {"dsp"}},
      {"core", 2, {"dsp", "afe", "simd"}},
      {"emg", 3, {"dsp", "core"}},
      {"rtl", 3, {"dsp", "core"}},
      {"uwb", 3, {"dsp", "afe", "core", "simd"}},
      {"synth", 4, {"dsp", "core", "rtl"}},
      {"store", 4, {"dsp", "core", "fault"}},
      {"runtime", 5, {"dsp", "afe", "core", "emg", "uwb", "fault", "store"}},
      {"sim", 6,
       {"dsp", "afe", "core", "emg", "uwb", "fault", "store", "runtime"}},
      {"config", 7,
       {"dsp", "afe", "core", "emg", "uwb", "fault", "store", "runtime",
        "sim"}},
      {"net", 8, {"dsp", "core", "store", "runtime", "config"}},
  };
  // The CLI, the benches, the examples and perfbench link the library;
  // tests/ does not count. The lint fixtures quote-include paths that
  // would resolve against src/, so they are no consumer either.
  spec.consumers = {"tools", "bench", "examples", "perfbench"};
  spec.non_consumers = {"tools/lint_fixtures"};
  return spec;
}

// --------------------------------------------------------- IncludeGraph

IncludeGraph IncludeGraph::build(const std::string& root) {
  IncludeGraph g;
  g.root_ = root;
  std::vector<std::string> rels;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file() || !lintable(it->path())) continue;
    std::string rel = fs::relative(it->path(), root).generic_string();
    rels.push_back(std::move(rel));
  }
  std::sort(rels.begin(), rels.end());

  std::map<std::string, std::size_t>& index = g.index_;
  for (std::size_t i = 0; i < rels.size(); ++i) index[rels[i]] = i;

  for (const std::string& rel : rels) {
    GraphFile f;
    f.rel = rel;
    f.dir = dir_of(rel);
    f.header = header_ext(rel);
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string src = ss.str();
    LexedSource lexed = lex(src);
    f.tokens = std::move(lexed.tokens);
    f.allow = collect_allow_markers(src);
    f.declared = extract_decls(f.tokens);
    if (f.header) {
      f.exported = f.declared;
      for (const std::string& name : collect_export_markers(src)) {
        f.exported.insert(name);
      }
    }
    for (const IncludeDirective& inc : lexed.includes) {
      if (inc.angled) continue;  // system/external headers are out of scope
      auto it = index.find(inc.path);
      if (it == index.end()) {
        // Quote-include relative to the including file's directory.
        const std::string base = fs::path(rel).parent_path().generic_string();
        const std::string joined =
            base.empty() ? inc.path : base + "/" + inc.path;
        it = index.find(fs::path(joined).lexically_normal().generic_string());
      }
      if (it != index.end()) {
        f.direct.push_back(it->second);
        f.direct_lines.push_back(inc.line);
      }
    }
    g.files_.push_back(std::move(f));
  }
  return g;
}

std::string IncludeGraph::display(std::size_t idx) const {
  return root_.empty() ? files_[idx].rel : root_ + "/" + files_[idx].rel;
}

void IncludeGraph::check_cycles(std::vector<Finding>& out) const {
  enum { kWhite, kGray, kBlack };
  std::vector<int> color(files_.size(), kWhite);
  std::vector<std::size_t> stack;

  // Iterative DFS with an explicit edge cursor so the gray stack is the
  // current path and cycles reconstruct exactly.
  struct Frame {
    std::size_t node;
    std::size_t next_edge;
  };
  for (std::size_t start = 0; start < files_.size(); ++start) {
    if (color[start] != kWhite) continue;
    std::vector<Frame> frames{{start, 0}};
    color[start] = kGray;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const GraphFile& file = files_[f.node];
      if (f.next_edge >= file.direct.size()) {
        color[f.node] = kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::size_t e = f.next_edge++;
      const std::size_t to = file.direct[e];
      if (color[to] == kGray) {
        std::vector<std::string> path;
        bool in_cycle = false;
        for (std::size_t n : stack) {
          if (n == to) in_cycle = true;
          if (in_cycle) path.push_back(files_[n].rel);
        }
        path.push_back(files_[to].rel);
        out.push_back({display(f.node), file.direct_lines[e],
                       "include-cycle",
                       "include cycle: " + join(path, " -> ")});
      } else if (color[to] == kWhite) {
        color[to] = kGray;
        stack.push_back(to);
        frames.push_back({to, 0});
      }
    }
  }
}

void IncludeGraph::check_layers(const LayerSpec& spec,
                                std::vector<Finding>& out) const {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const GraphFile& f = files_[i];
    if (f.dir.empty()) continue;
    const Layer* from = spec.find(f.dir);
    for (std::size_t e = 0; e < f.direct.size(); ++e) {
      const GraphFile& g = files_[f.direct[e]];
      if (g.dir.empty() || g.dir == f.dir) continue;
      if (from == nullptr) {
        out.push_back({display(i), f.direct_lines[e], "layer-order",
                       "directory '" + f.dir +
                           "/' is not in the layer table — add it to "
                           "datc_layer_spec() with an explicit rank"});
        break;  // one finding per unknown directory is enough
      }
      if (std::find(from->allowed.begin(), from->allowed.end(), g.dir) ==
          from->allowed.end()) {
        out.push_back(
            {display(i), f.direct_lines[e], "layer-order",
             f.dir + "/ may not include " + g.dir + "/ (" + f.rel +
                 " -> " + g.rel + "); allowed deps of " + f.dir + "/: [" +
                 join(std::vector<std::string>(from->allowed.begin(),
                                               from->allowed.end()),
                      ", ") +
                 "]"});
      }
    }
  }
}

void IncludeGraph::check_iwyu(const LayerSpec& spec,
                              std::vector<Finding>& out) const {
  // Unique provider per exported symbol (headers only).
  std::map<std::string, std::vector<std::size_t>> providers;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].header) continue;
    for (const std::string& sym : files_[i].exported) {
      providers[sym].push_back(i);
    }
  }

  for (std::size_t i = 0; i < files_.size(); ++i) {
    const GraphFile& f = files_[i];
    // Identifiers referenced, with the first line each appears on.
    std::map<std::string, int> used;
    for (const Token& t : f.tokens) {
      if (t.kind == TokKind::kIdent) used.emplace(t.text, t.line);
    }
    // Transitive closure of includes (excluding f itself unless cyclic).
    std::set<std::size_t> closure;
    std::vector<std::size_t> work(f.direct.begin(), f.direct.end());
    while (!work.empty()) {
      const std::size_t n = work.back();
      work.pop_back();
      if (!closure.insert(n).second) continue;
      for (std::size_t d : files_[n].direct) work.push_back(d);
    }

    // include-unused: a direct include contributing no referenced symbol.
    for (std::size_t e = 0; e < f.direct.size(); ++e) {
      const GraphFile& g = files_[f.direct[e]];
      if (!g.header || g.exported.empty()) continue;
      if (stem_of(g.rel) == stem_of(f.rel)) continue;  // companion header
      const bool contributes =
          std::any_of(g.exported.begin(), g.exported.end(),
                      [&](const std::string& sym) {
                        return used.count(sym) != 0;
                      });
      if (!contributes) {
        out.push_back({display(i), f.direct_lines[e], "include-unused",
                       "direct include \"" + g.rel +
                           "\" is unused — no symbol it exports appears "
                           "in this file (remove it, or mark the line "
                           "with datc-lint: allow(include-unused) if it "
                           "is a deliberate re-export)"});
      }
    }

    // include-transitive: a used symbol whose unique declaring header is
    // reachable but not included directly.
    const std::set<std::size_t> direct_set(f.direct.begin(), f.direct.end());
    const Layer* from = f.dir.empty() ? nullptr : spec.find(f.dir);
    std::map<std::size_t, std::pair<std::string, int>> missing;
    for (const auto& [sym, line] : used) {
      if (sym.size() < 4 || f.declared.count(sym) != 0) continue;
      const auto it = providers.find(sym);
      if (it == providers.end() || it->second.size() != 1) continue;
      const std::size_t p = it->second.front();
      if (p == i || direct_set.count(p) != 0 || closure.count(p) == 0) {
        continue;
      }
      const GraphFile& ph = files_[p];
      if (stem_of(ph.rel) == stem_of(f.rel)) continue;
      // Only demand a direct include the layer table permits.
      if (ph.dir != f.dir && from != nullptr &&
          std::find(from->allowed.begin(), from->allowed.end(), ph.dir) ==
              from->allowed.end()) {
        continue;
      }
      missing.emplace(p, std::make_pair(sym, line));
    }
    for (const auto& [p, sym_line] : missing) {
      out.push_back({display(i), sym_line.second, "include-transitive",
                     "uses '" + sym_line.first + "' from \"" +
                         files_[p].rel +
                         "\" but only includes it transitively — include "
                         "it directly so refactors of intermediate "
                         "headers cannot break this file"});
    }
  }
}

bool IncludeGraph::has_consumers(const LayerSpec& spec) const {
  const fs::path base = beside_root(root_);
  return std::any_of(spec.consumers.begin(), spec.consumers.end(),
                     [&](const std::string& dir) {
                       return fs::is_directory(base / dir);
                     });
}

void IncludeGraph::check_test_only(const LayerSpec& spec,
                                   std::vector<Finding>& out) const {
  if (!has_consumers(spec)) return;
  // Seeds: every root file a consumer quote-includes by root path.
  const fs::path base = beside_root(root_);
  std::vector<std::size_t> work;
  for (const std::string& dir : spec.consumers) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base / dir, ec), end;
         it != end; it.increment(ec)) {
      if (ec) break;
      const std::string rel =
          fs::relative(it->path(), base).generic_string();
      const bool excluded = std::any_of(
          spec.non_consumers.begin(), spec.non_consumers.end(),
          [&](const std::string& skip) {
            return rel == skip || rel.rfind(skip + "/", 0) == 0;
          });
      if (excluded) {
        if (it->is_directory()) it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || !lintable(it->path())) continue;
      std::ifstream in(it->path(), std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      for (const IncludeDirective& inc : lex(ss.str()).includes) {
        const auto hit = index_.find(inc.path);
        if (!inc.angled && hit != index_.end()) work.push_back(hit->second);
      }
    }
  }
  // Walk the includes; a reached header also pulls in its same-stem
  // .cpp, because that translation unit is linked in with it.
  std::vector<bool> reached(files_.size(), false);
  while (!work.empty()) {
    const std::size_t n = work.back();
    work.pop_back();
    if (reached[n]) continue;
    reached[n] = true;
    const GraphFile& f = files_[n];
    work.insert(work.end(), f.direct.begin(), f.direct.end());
    if (f.header) {
      const auto unit = index_.find(stem_of(f.rel) + ".cpp");
      if (unit != index_.end()) work.push_back(unit->second);
    }
  }
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (!files_[i].header || reached[i]) continue;
    out.push_back({display(i), 1, "test-only-module",
                   "module \"" + files_[i].rel +
                       "\" is reached from no consumer (" +
                       join(spec.consumers, "/, ") +
                       "/), directly or through a linked .cpp — wire it "
                       "into the chain or delete it with its tests"});
  }
}

std::vector<Finding> IncludeGraph::check(const LayerSpec& spec) const {
  std::vector<Finding> raw;
  check_cycles(raw);
  check_layers(spec, raw);
  check_iwyu(spec, raw);
  check_test_only(spec, raw);
  // Allow-marker filtering uses the per-file marker maps gathered at
  // build time, keyed by the finding's root-relative display path.
  std::map<std::string, const GraphFile*> by_display;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    by_display[display(i)] = &files_[i];
  }
  std::vector<Finding> out;
  for (auto& f : raw) {
    const auto it = by_display.find(f.file);
    if (it != by_display.end()) {
      const auto line_it = it->second->allow.find(f.line);
      if (line_it != it->second->allow.end() &&
          line_it->second.count(f.rule) != 0) {
        continue;
      }
    }
    out.push_back(std::move(f));
  }
  sort_findings(out);
  return out;
}

std::string IncludeGraph::to_dot(const LayerSpec& spec) const {
  // Directory-level condensation: one node per top-level directory, one
  // edge per dependency with the number of file-level includes behind it.
  std::set<std::string> dirs;
  std::map<std::pair<std::string, std::string>, int> edges;
  for (const GraphFile& f : files_) {
    if (f.dir.empty()) continue;
    dirs.insert(f.dir);
    for (std::size_t d : f.direct) {
      const GraphFile& g = files_[d];
      if (g.dir.empty() || g.dir == f.dir) continue;
      ++edges[{f.dir, g.dir}];
    }
  }
  std::ostringstream dot;
  dot << "// Generated by `datc_lint --root src --dot "
         "docs/include_graph.dot`.\n"
      << "// Do not edit: CI regenerates this file and fails on drift.\n"
      << "digraph datc_include_graph {\n"
      << "  rankdir=BT;\n"
      << "  node [shape=box, fontname=\"Helvetica\", style=filled, "
         "fillcolor=\"#eef4fb\"];\n"
      << "  edge [fontname=\"Helvetica\", fontsize=10, color=\"#446688\"];\n";
  // Same-rank directories sit on the same row so the DAG reads bottom-up.
  std::map<int, std::vector<std::string>> by_rank;
  for (const std::string& d : dirs) {
    const Layer* l = spec.find(d);
    by_rank[l != nullptr ? l->rank : 99].push_back(d);
  }
  for (const auto& [rank, row] : by_rank) {
    dot << "  { rank=same;";
    for (const std::string& d : row) dot << " \"" << d << "\";";
    dot << " }  // rank " << rank << "\n";
  }
  for (const auto& [edge, count] : edges) {
    dot << "  \"" << edge.first << "\" -> \"" << edge.second
        << "\" [label=\"" << count << "\"];\n";
  }
  dot << "}\n";
  return dot.str();
}

}  // namespace datc_lint
