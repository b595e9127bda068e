#pragma once
// Spans recorded by the benchmark around its calls into each layer's
// public functions. Spans are kept in memory and reduced when the run
// ends; a disabled tracer records nothing, so the untraced run pays one
// branch per call site.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name{""};  ///< "<layer>.<operation>", e.g. "core.encode"
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int64_t parent{-1};   ///< index of the causing span; -1 = root
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (-1 when disabled).
  std::int64_t begin(const char* name, std::int64_t parent);
  void end(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_{
      std::chrono::steady_clock::now()};
  mutable std::mutex mu_;
  std::vector<Span> spans_;

  [[nodiscard]] std::int64_t now_ns() const;
};

/// RAII span. Without an explicit parent it nests under the innermost open
/// Scope of the calling thread.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name);
  Scope(Tracer& tracer, const char* name, std::int64_t parent);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  std::int64_t prev_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap, e.g. when
/// they ran on several threads).
[[nodiscard]] std::vector<double> self_times_ns(const std::vector<Span>& spans);

/// Layer accounting over root spans that ran one after another: `wall_ns`
/// is the summed root duration, `self_ns` the self time per layer (the
/// span-name prefix before the first '.') and `unaccounted_ns` the roots'
/// own self time — time inside the traced window no layer span covered.
struct Accounting {
  double wall_ns{0.0};
  double unaccounted_ns{0.0};
  std::map<std::string, double> self_ns;      ///< by layer
  std::map<std::string, double> span_self_ns;  ///< by full span name
  std::map<std::string, std::size_t> calls;    ///< by full span name
};

[[nodiscard]] Accounting account(const std::vector<Span>& spans);

}  // namespace perfbench
