#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {
thread_local std::int64_t t_current = -1;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, t, t, parent});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Scope::Scope(Tracer& tracer, const char* name)
    : Scope(tracer, name, t_current) {}

Scope::Scope(Tracer& tracer, const char* name, std::int64_t parent)
    : tracer_(tracer), id_(tracer.begin(name, parent)), prev_(t_current) {
  if (id_ >= 0) t_current = id_;
}

Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.end(id_);
  t_current = prev_;
}

std::vector<double> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 &&
        static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return self;
}

Accounting account(const std::vector<Span>& spans) {
  Accounting acc;
  const std::vector<double> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      acc.wall_ns += static_cast<double>(s.end_ns - s.start_ns);
      acc.unaccounted_ns += self[i];
      continue;
    }
    const std::string name(s.name);
    acc.self_ns[name.substr(0, name.find('.'))] += self[i];
    acc.span_self_ns[name] += self[i];
    acc.calls[name] += 1;
  }
  return acc;
}

}  // namespace perfbench
