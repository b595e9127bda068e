#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <tuple>

namespace datc_lint {
namespace {

// ------------------------------------------------------------ registries

const std::vector<RuleInfo>& file_rules_impl() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock",
       "no wall-clock/ambient-entropy calls in the deterministic layers "
       "(core/, uwb/, sim/, fault/, config/, emg/)"},
      {"float-eq",
       "no raw float/double ==/!= against floating literals outside the "
       "parity harness"},
      {"narrow-channel",
       "no narrowing of channel ids / AER addresses below u16"},
      {"store-io",
       "no write-side file I/O in store/ bypassing the fault::FileIo seam"},
      {"rng-fork",
       "no shared Rng passed by reference inside a per-channel/per-chunk "
       "loop without fork() (the PR 3 seed-ordering bug class)"},
      {"lock-scope",
       "no manual std::mutex lock() without a RAII guard, and no lock "
       "held across a thread-pool submit/enqueue/parallel_for call"},
      {"hot-alloc",
       "no allocation (new/make_unique/unreserved push_back) inside the "
       "block-kernel and per-pulse hot loops"},
      {"hot-rng",
       "no per-sample scalar RNG draws (gaussian/gaussian_bm/uniform) "
       "inside the chunk loops of uwb/ and fault/ — batch them with "
       "Rng::fill_gaussian()/fill_uniform()"},
      {"std-random",
       "no std::*_distribution, std::mt19937* or std::generate_canonical "
       "in src/ outside dsp/rng.hpp — draws go through dsp::Rng, whose "
       "mappings the repository defines"},
  };
  return kRules;
}

const std::vector<RuleInfo>& graph_rules_impl() {
  static const std::vector<RuleInfo> kRules = {
      {"include-cycle", "no cycles in the file-level include graph"},
      {"layer-order",
       "cross-directory includes must follow the declared layer DAG "
       "(no back-edges like core/ -> runtime/)"},
      {"include-unused",
       "every direct include must contribute at least one referenced "
       "symbol (IWYU-lite)"},
      {"include-transitive",
       "a symbol's declaring header must be included directly, not "
       "reached through another header's includes (IWYU-lite)"},
      {"test-only-module",
       "every src/ header must be reachable from a consumer (tools/, "
       "bench/, examples/, perfbench/), not only from tests/"},
  };
  return kRules;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// ------------------------------------------------------------- layer map

std::string norm_path(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool in_dir(const std::string& path, const char* dir) {
  const std::string p = norm_path(path);
  const std::string mid = std::string("/") + dir + "/";
  const std::string pre = std::string(dir) + "/";
  return p.find(mid) != std::string::npos || p.rfind(pre, 0) == 0;
}

bool in_deterministic_layer(const std::string& path) {
  return in_dir(path, "core") || in_dir(path, "uwb") ||
         in_dir(path, "sim") || in_dir(path, "fault") ||
         in_dir(path, "config") || in_dir(path, "emg");
}

bool is_parity_harness(const std::string& path) {
  return norm_path(path).find("stream_parity.") != std::string::npos;
}

/// `path` is the file `rel` (a path under src/, e.g. "dsp/rng.hpp").
bool is_file(const std::string& path, const std::string& rel) {
  const std::string p = norm_path(path);
  return p == rel || (p.size() > rel.size() &&
                      p.compare(p.size() - rel.size() - 1, rel.size() + 1,
                                "/" + rel) == 0);
}

bool is_hot_file(const std::string& path) {
  for (const char* hot :
       {"core/datc_block.hpp", "uwb/receiver.cpp",
        "core/streaming_reconstruct.cpp", "core/streaming_reconstruct.hpp"}) {
    if (is_file(path, hot)) return true;
  }
  return false;
}

// --------------------------------------------------------- token helpers

using Tokens = std::vector<Token>;

/// Index of the token matching the opener at `i` ("(" or "{" or "<"), or
/// tokens.size() when unbalanced.
std::size_t match(const Tokens& ts, std::size_t i, const char* open,
                  const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < ts.size(); ++j) {
    if (is_punct(ts[j], open)) ++depth;
    if (is_punct(ts[j], close) && --depth == 0) return j;
  }
  return ts.size();
}

/// Brace depth before each token ('{' counted after, '}' before).
std::vector<int> brace_depths(const Tokens& ts) {
  std::vector<int> depth(ts.size(), 0);
  int d = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (is_punct(ts[i], "}")) d = std::max(0, d - 1);
    depth[i] = d;
    if (is_punct(ts[i], "{")) ++d;
  }
  return depth;
}

struct Loop {
  std::size_t header_begin{0};  ///< first token inside the for/while parens
  std::size_t header_end{0};    ///< the closing ')'
  std::size_t body_begin{0};    ///< first token of the body
  std::size_t body_end{0};      ///< one past the last body token
};

std::vector<Loop> find_loops(const Tokens& ts) {
  std::vector<Loop> loops;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].in_directive) continue;
    if (!is_ident(ts[i], "for") && !is_ident(ts[i], "while")) continue;
    if (!is_punct(ts[i + 1], "(")) continue;
    const std::size_t close = match(ts, i + 1, "(", ")");
    if (close >= ts.size() || close + 1 >= ts.size()) continue;
    Loop loop;
    loop.header_begin = i + 2;
    loop.header_end = close;
    if (is_punct(ts[close + 1], "{")) {
      const std::size_t end = match(ts, close + 1, "{", "}");
      loop.body_begin = close + 2;
      loop.body_end = std::min(end, ts.size());
    } else {
      // Single-statement body: up to the ';' at this nesting level.
      std::size_t j = close + 1;
      int paren = 0;
      while (j < ts.size() &&
             !(paren == 0 && is_punct(ts[j], ";"))) {
        paren += is_punct(ts[j], "(") - is_punct(ts[j], ")");
        ++j;
      }
      loop.body_begin = close + 1;
      loop.body_end = j;
    }
    loops.push_back(loop);
  }
  return loops;
}

// ----------------------------------------------------------------- rules

void check_wall_clock(const std::string& path, const Tokens& ts,
                      std::vector<Finding>& out) {
  if (!in_deterministic_layer(path)) return;
  static const std::set<std::string> kBannedAnywhere = {
      "system_clock", "random_device", "gettimeofday", "clock_gettime",
      "timespec_get"};
  static const std::set<std::string> kBannedCalls = {"time", "rand", "srand",
                                                     "clock"};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    bool hit = kBannedAnywhere.count(t.text) != 0;
    if (!hit && kBannedCalls.count(t.text) != 0 && i + 1 < ts.size() &&
        is_punct(ts[i + 1], "(")) {
      // `x.time(...)`, `foo::time(...)` are someone else's API; bare and
      // std-qualified calls are the libc/chrono ambient sources.
      bool member_or_foreign = false;
      if (i > 0 && (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->"))) {
        member_or_foreign = true;
      } else if (i > 1 && is_punct(ts[i - 1], "::") &&
                 !is_ident(ts[i - 2], "std")) {
        member_or_foreign = true;
      }
      hit = !member_or_foreign;
    }
    if (hit) {
      out.push_back({path, t.line, "wall-clock",
                     "'" + t.text +
                         "' in a deterministic layer — outputs must be a "
                         "pure function of seeds (use dsp::Rng / passed-in "
                         "times)"});
    }
  }
}

bool is_float_literal(std::string t) {
  while (!t.empty() && (t.back() == 'f' || t.back() == 'F' ||
                        t.back() == 'l' || t.back() == 'L')) {
    t.pop_back();
  }
  if (t.empty()) return false;
  if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    return t.find('p') != std::string::npos ||
           t.find('P') != std::string::npos;
  }
  return t.find('.') != std::string::npos ||
         t.find('e') != std::string::npos ||
         t.find('E') != std::string::npos;
}

void check_float_eq(const std::string& path, const Tokens& ts,
                    std::vector<Finding>& out) {
  if (is_parity_harness(path)) return;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (ts[i].in_directive) continue;
    if (!is_punct(ts[i], "==") && !is_punct(ts[i], "!=")) continue;
    bool literal = false;
    if (i > 0 && ts[i - 1].kind == TokKind::kNumber &&
        is_float_literal(ts[i - 1].text)) {
      literal = true;
    }
    std::size_t r = i + 1;
    if (r < ts.size() && (is_punct(ts[r], "-") || is_punct(ts[r], "+"))) {
      ++r;
    }
    if (r < ts.size() && ts[r].kind == TokKind::kNumber &&
        is_float_literal(ts[r].text)) {
      literal = true;
    }
    if (literal) {
      out.push_back({path, ts[i].line, "float-eq",
                     "raw floating ==/!= against a literal — compare with "
                     "a tolerance, or route exactness through the parity "
                     "harness (sim/stream_parity)"});
    }
  }
}

/// An identifier naming a channel id or AER address. Identifiers ending
/// in "bits" are widths (addr_bits), not ids.
bool channel_like(const std::string& ident) {
  const std::string low = lower(ident);
  if (low.size() >= 4 && low.rfind("bits") == low.size() - 4) return false;
  return low.find("channel") != std::string::npos ||
         low.find("addr") != std::string::npos;
}

bool range_mentions_channel(const Tokens& ts, std::size_t begin,
                            std::size_t end) {
  for (std::size_t i = begin; i < end && i < ts.size(); ++i) {
    if (ts[i].kind == TokKind::kIdent && channel_like(ts[i].text)) {
      return true;
    }
  }
  return false;
}

void check_narrow_channel(const std::string& path, const Tokens& ts,
                          std::vector<Finding>& out) {
  static const std::set<std::string> kNarrow = {
      "std::uint8_t", "uint8_t", "std::int8_t", "int8_t",
      "unsignedchar", "signedchar", "char"};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    // Pattern A: static_cast<narrow>(...channel/addr...).
    if (is_ident(ts[i], "static_cast") && i + 1 < ts.size() &&
        is_punct(ts[i + 1], "<")) {
      const std::size_t close = match(ts, i + 1, "<", ">");
      if (close >= ts.size()) continue;
      std::string type;
      for (std::size_t j = i + 2; j < close; ++j) type += ts[j].text;
      if (kNarrow.count(type) != 0 && close + 1 < ts.size() &&
          is_punct(ts[close + 1], "(")) {
        const std::size_t args_end = match(ts, close + 1, "(", ")");
        if (range_mentions_channel(ts, close + 2, args_end)) {
          out.push_back(
              {path, ts[i].line, "narrow-channel",
               "narrowing a channel id / address to " + type +
                   " — ids are u16 end-to-end (the PR 2 truncation bug)"});
        }
      }
      continue;
    }
    // Pattern B: `uint8_t <name-with-channel/addr>` declarations; the
    // declared name may be separated by *, &, && and cv-qualifiers.
    const bool narrow8 =
        is_ident(ts[i], "uint8_t") || is_ident(ts[i], "int8_t") ||
        (is_ident(ts[i], "char") && i > 0 &&
         (is_ident(ts[i - 1], "unsigned") || is_ident(ts[i - 1], "signed")));
    if (!narrow8) continue;
    std::size_t j = i + 1;
    std::string name;
    while (j < ts.size()) {
      if (is_punct(ts[j], "*") || is_punct(ts[j], "&") ||
          is_punct(ts[j], "&&") || is_ident(ts[j], "const") ||
          is_ident(ts[j], "volatile")) {
        ++j;
        continue;
      }
      if (ts[j].kind == TokKind::kIdent) name = ts[j].text;
      break;
    }
    if (!name.empty() && channel_like(name)) {
      out.push_back({path, ts[i].line, "narrow-channel",
                     "declaring '" + name + "' as " + ts[i].text +
                         " — channel ids / addresses are u16 end-to-end"});
    }
  }
}

void check_store_io(const std::string& path, const Tokens& ts,
                    std::vector<Finding>& out) {
  if (!in_dir(path, "store")) return;
  static const std::set<std::string> kBanned = {
      "ofstream", "fopen", "freopen", "fwrite", "fprintf", "fputs",
      "fputc", "creat", "FILE"};
  for (const Token& t : ts) {
    if (t.kind == TokKind::kIdent && !t.in_directive &&
        kBanned.count(t.text) != 0) {
      out.push_back({path, t.line, "store-io",
                     "'" + t.text +
                         "' writes in store/ bypassing the fault::FileIo "
                         "seam — use fault::write_file / LogWriterConfig::io "
                         "so faults inject and retries stay positional"});
    }
  }
}

void check_std_random(const std::string& path, const Tokens& ts,
                      std::vector<Finding>& out) {
  // The standard leaves every distribution's mapping to the library, so
  // a std distribution or engine outside dsp::Rng would make outputs
  // depend on the toolchain again.
  if (!in_dir(path, "src") || is_file(path, "dsp/rng.hpp")) return;
  const auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  for (std::size_t i = 2; i < ts.size(); ++i) {
    const Token& t = ts[i];
    if (t.kind != TokKind::kIdent || t.in_directive) continue;
    if (!is_punct(ts[i - 1], "::") || !is_ident(ts[i - 2], "std")) continue;
    if (ends_with(t.text, "_distribution") || t.text.rfind("mt19937", 0) == 0 ||
        t.text == "generate_canonical") {
      out.push_back({path, t.line, "std-random",
                     "'std::" + t.text +
                         "' outside dsp/rng.hpp — its mapping is the "
                         "library's, not the repository's; draw through "
                         "dsp::Rng"});
    }
  }
}

/// A loop whose header iterates channels or chunks: any identifier
/// containing "chan"/"chunk", or the conventional short names.
bool per_channel_loop(const Tokens& ts, const Loop& loop) {
  for (std::size_t i = loop.header_begin; i < loop.header_end; ++i) {
    if (ts[i].kind != TokKind::kIdent) continue;
    const std::string low = lower(ts[i].text);
    if (low.find("chan") != std::string::npos ||
        low.find("chunk") != std::string::npos || low == "ch" ||
        low == "n_ch" || low == "nch") {
      return true;
    }
  }
  return false;
}

/// True when `name` is declared (or re-seeded via fork) inside
/// [begin, use): `Rng name`, `auto name = ...`, `dsp::Rng name(...)`.
bool declared_in_range(const Tokens& ts, std::size_t begin, std::size_t use,
                       const std::string& name) {
  for (std::size_t j = begin; j < use; ++j) {
    if (ts[j].kind != TokKind::kIdent || ts[j].text != name) continue;
    std::size_t k = j;
    while (k > begin &&
           (is_punct(ts[k - 1], "&") || is_punct(ts[k - 1], "*") ||
            is_punct(ts[k - 1], "&&") || is_ident(ts[k - 1], "const"))) {
      --k;
    }
    if (k > begin && (is_ident(ts[k - 1], "Rng") ||
                      is_ident(ts[k - 1], "auto"))) {
      return true;
    }
  }
  return false;
}

void check_rng_fork(const std::string& path, const Tokens& ts,
                    std::vector<Finding>& out) {
  const auto loops = find_loops(ts);
  std::set<std::pair<int, std::string>> reported;
  for (const Loop& loop : loops) {
    if (!per_channel_loop(ts, loop)) continue;
    for (std::size_t i = loop.body_begin;
         i < loop.body_end && i + 1 < ts.size(); ++i) {
      const Token& t = ts[i];
      if (t.kind != TokKind::kIdent ||
          lower(t.text).find("rng") == std::string::npos) {
        continue;
      }
      if (i == 0) continue;
      // Bare pass as a call argument: `(rng`, `, rng`, `(&rng`, `, &rng`
      // followed by `,` or `)`. Member calls (`rng.fork()`, `rng.chance`)
      // and constructions (`Rng(seed ^ i)`) do not match.
      std::size_t lhs = i - 1;
      if (is_punct(ts[lhs], "&") && lhs > 0) --lhs;
      const bool arg_left =
          is_punct(ts[lhs], "(") || is_punct(ts[lhs], ",");
      const bool arg_right =
          is_punct(ts[i + 1], ",") || is_punct(ts[i + 1], ")");
      if (!arg_left || !arg_right) continue;
      if (declared_in_range(ts, loop.body_begin, i, t.text)) continue;
      if (reported.emplace(t.line, t.text).second) {
        out.push_back(
            {path, t.line, "rng-fork",
             "'" + t.text +
                 "' is passed into a per-channel/per-chunk loop body "
                 "without fork() — each iteration must own an independent "
                 "stream or chunk boundaries change the draw order (the "
                 "PR 3 seed-ordering bug class)"});
      }
    }
  }
}

bool mutex_like(const std::string& ident) {
  const std::string low = lower(ident);
  return low.find("mutex") != std::string::npos ||
         low.find("mtx") != std::string::npos || low == "mu_" || low == "mu";
}

void check_lock_scope(const std::string& path, const Tokens& ts,
                      std::vector<Finding>& out) {
  const auto depth = brace_depths(ts);
  for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
    // (a) manual mutex lock: `mu_.lock()` — take std::lock_guard instead,
    // so no exception path can leave the mutex held.
    if (ts[i].kind == TokKind::kIdent && mutex_like(ts[i].text) &&
        (is_punct(ts[i + 1], ".") || is_punct(ts[i + 1], "->")) &&
        is_ident(ts[i + 2], "lock") && is_punct(ts[i + 3], "(")) {
      out.push_back({path, ts[i].line, "lock-scope",
                     "manual '" + ts[i].text +
                         ".lock()' — use std::lock_guard/std::unique_lock "
                         "so every exit path (including exceptions) "
                         "releases the mutex"});
    }
    // (b) RAII guard held across a thread-pool handoff.
    if (ts[i].kind == TokKind::kIdent &&
        (ts[i].text == "lock_guard" || ts[i].text == "unique_lock" ||
         ts[i].text == "scoped_lock")) {
      std::size_t j = i + 1;
      if (j < ts.size() && is_punct(ts[j], "<")) {
        j = match(ts, j, "<", ">") + 1;
      }
      if (j >= ts.size() || ts[j].kind != TokKind::kIdent) continue;
      const std::string guard = ts[j].text;
      if (j + 1 >= ts.size() ||
          !(is_punct(ts[j + 1], "(") || is_punct(ts[j + 1], "{"))) {
        continue;
      }
      const int guard_depth = depth[j];
      for (std::size_t k = j + 2; k < ts.size() && depth[k] >= guard_depth;
           ++k) {
        if (is_ident(ts[k], guard.c_str()) && k + 2 < ts.size() &&
            is_punct(ts[k + 1], ".") && is_ident(ts[k + 2], "unlock")) {
          break;  // explicitly released before any handoff below
        }
        if (ts[k].kind == TokKind::kIdent && k + 1 < ts.size() &&
            is_punct(ts[k + 1], "(") &&
            (ts[k].text == "submit" || ts[k].text == "enqueue" ||
             ts[k].text == "parallel_for")) {
          out.push_back(
              {path, ts[k].line, "lock-scope",
               "'" + ts[k].text + "' called while '" + guard +
                   "' holds a lock — release the guard before handing "
                   "work to the thread pool (lock-ordering/latency "
                   "hazard)"});
          break;
        }
      }
    }
  }
}

void check_hot_alloc(const std::string& path, const Tokens& ts,
                     std::vector<Finding>& out) {
  if (!is_hot_file(path)) return;
  const auto loops = find_loops(ts);
  std::set<int> reported;
  auto report = [&](const Token& t, const std::string& what) {
    if (!reported.insert(t.line).second) return;
    out.push_back({path, t.line, "hot-alloc",
                   what + " inside a hot loop — the block kernel and "
                          "per-pulse paths must not allocate (reserve "
                          "outside the loop, reuse arenas); this paves the "
                          "SIMD roadmap item"});
  };
  auto reserved_before = [&](const std::string& container, std::size_t idx) {
    for (std::size_t j = 3; j < idx; ++j) {
      if (is_ident(ts[j], "reserve") && is_punct(ts[j + 1], "(") &&
          (is_punct(ts[j - 1], ".") || is_punct(ts[j - 1], "->")) &&
          ts[j - 2].text == container) {
        return true;
      }
    }
    return false;
  };
  for (const Loop& loop : loops) {
    for (std::size_t i = loop.body_begin;
         i < loop.body_end && i < ts.size(); ++i) {
      const Token& t = ts[i];
      if (t.kind != TokKind::kIdent || t.in_directive) continue;
      if (t.text == "new" && (i == 0 || !is_punct(ts[i - 1], "::"))) {
        report(t, "'new'");
      } else if (t.text == "make_unique" || t.text == "make_shared" ||
                 t.text == "malloc" || t.text == "calloc" ||
                 t.text == "realloc") {
        report(t, "'" + t.text + "'");
      } else if ((t.text == "push_back" || t.text == "emplace_back") &&
                 i >= 2 &&
                 (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->"))) {
        const std::string container =
            ts[i - 2].kind == TokKind::kIdent ? ts[i - 2].text : "";
        if (container.empty() || !reserved_before(container, i)) {
          report(t, "'" + t.text + "' without a visible '" +
                        (container.empty() ? std::string("<container>")
                                           : container) +
                        ".reserve()' earlier in the file");
        }
      }
    }
  }
}

void check_hot_rng(const std::string& path, const Tokens& ts,
                   std::vector<Finding>& out) {
  // The chunk loops of the channel/receiver/fault layers: one scalar
  // distribution draw per sample discards distribution state and blocks
  // the vectorised polar tail. chance() stays legal — erasure gating is
  // inherently per pulse and consumes the uniform stream one value at a
  // time by contract.
  if (!in_dir(path, "uwb") && !in_dir(path, "fault")) return;
  const auto loops = find_loops(ts);
  std::set<int> reported;
  for (const Loop& loop : loops) {
    for (std::size_t i = loop.body_begin;
         i < loop.body_end && i + 3 < ts.size(); ++i) {
      const Token& recv = ts[i];
      if (recv.kind != TokKind::kIdent || recv.in_directive) continue;
      if (lower(recv.text).find("rng") == std::string::npos) continue;
      if (!is_punct(ts[i + 1], ".") && !is_punct(ts[i + 1], "->")) continue;
      const Token& call = ts[i + 2];
      if (call.kind != TokKind::kIdent ||
          (call.text != "gaussian" && call.text != "gaussian_bm" &&
           call.text != "uniform")) {
        continue;
      }
      if (!is_punct(ts[i + 3], "(")) continue;
      if (!reported.insert(call.line).second) continue;
      out.push_back({path, call.line, "hot-rng",
                     "per-sample '" + recv.text + "." + call.text +
                         "()' inside a chunk loop — hoist the draws into "
                         "one Rng::fill_gaussian()/fill_uniform() batch "
                         "before the loop (identical stream, vectorised "
                         "tail)"});
    }
  }
}

}  // namespace

// ----------------------------------------------------------- public API

const std::vector<RuleInfo>& file_rules() { return file_rules_impl(); }

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kAll = [] {
    std::vector<RuleInfo> rules = file_rules_impl();
    const auto& graph = graph_rules_impl();
    rules.insert(rules.end(), graph.begin(), graph.end());
    return rules;
  }();
  return kAll;
}

bool is_known_rule(const std::string& name) {
  for (const auto& r : all_rules()) {
    if (name == r.name) return true;
  }
  return false;
}

std::map<int, std::set<std::string>> collect_allow_markers(
    const std::string& src) {
  std::vector<std::string> lines;
  {
    std::stringstream ss(src);
    std::string line;
    while (std::getline(ss, line)) lines.push_back(line);
  }
  const auto comment_only = [](const std::string& line) {
    const auto b = line.find_first_not_of(" \t");
    return b != std::string::npos && line.compare(b, 2, "//") == 0;
  };
  std::map<int, std::set<std::string>> allow;
  static const std::string kTag = "datc-lint: allow(";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto pos = lines[i].find(kTag);
    if (pos == std::string::npos) continue;
    const std::size_t open = pos + kTag.size();
    const std::size_t close = lines[i].find(')', open);
    if (close == std::string::npos) continue;
    std::set<std::string> rules;
    std::stringstream list(lines[i].substr(open, close - open));
    std::string rule;
    while (std::getline(list, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                 rule.end());
      if (!rule.empty()) rules.insert(rule);
    }
    // Marker line, trailing comment-only lines, first code line after.
    std::size_t j = i;
    allow[static_cast<int>(j + 1)].insert(rules.begin(), rules.end());
    while (j + 1 < lines.size() && comment_only(lines[j + 1])) {
      ++j;
      allow[static_cast<int>(j + 1)].insert(rules.begin(), rules.end());
    }
    allow[static_cast<int>(j + 2)].insert(rules.begin(), rules.end());
  }
  return allow;
}

std::set<std::string> collect_export_markers(const std::string& src) {
  std::set<std::string> names;
  static const std::string kTag = "datc-lint: export(";
  std::size_t pos = 0;
  while ((pos = src.find(kTag, pos)) != std::string::npos) {
    const std::size_t open = pos + kTag.size();
    const std::size_t close = src.find(')', open);
    if (close == std::string::npos) break;
    std::stringstream list(src.substr(open, close - open));
    std::string name;
    while (std::getline(list, name, ',')) {
      name.erase(std::remove_if(name.begin(), name.end(), ::isspace),
                 name.end());
      if (!name.empty()) names.insert(name);
    }
    pos = close;
  }
  return names;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& src) {
  const LexedSource lexed = lex(src);
  const auto allow = collect_allow_markers(src);
  std::vector<Finding> raw;
  check_wall_clock(path, lexed.tokens, raw);
  check_float_eq(path, lexed.tokens, raw);
  check_narrow_channel(path, lexed.tokens, raw);
  check_store_io(path, lexed.tokens, raw);
  check_rng_fork(path, lexed.tokens, raw);
  check_lock_scope(path, lexed.tokens, raw);
  check_hot_alloc(path, lexed.tokens, raw);
  check_hot_rng(path, lexed.tokens, raw);
  check_std_random(path, lexed.tokens, raw);
  std::vector<Finding> out;
  for (auto& f : raw) {
    const auto it = allow.find(f.line);
    if (it != allow.end() && it->second.count(f.rule) != 0) continue;
    out.push_back(std::move(f));
  }
  sort_findings(out);
  return out;
}

}  // namespace datc_lint
