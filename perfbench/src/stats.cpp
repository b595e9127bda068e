#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

std::size_t samples_beyond(std::size_t n, double q) {
  // Integer per-mille arithmetic, so 1000 samples support p99 exactly.
  const auto permille = static_cast<std::size_t>(std::llround(q * 1000.0));
  const std::size_t rank = (n * permille + 999) / 1000;
  return n - std::min(rank, n);
}

Tail supported_tail(std::size_t n) {
  static const std::array<Tail, 4> kLadder{{{0.999, "p99.9"},
                                            {0.99, "p99"},
                                            {0.9, "p90"},
                                            {0.5, "p50"}}};
  for (const Tail& t : kLadder) {
    if (samples_beyond(n, t.q) >= kTailSupport) return t;
  }
  return kLadder.back();
}

double median_of_window_quantiles(
    const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(quantile(w, q));
  }
  return median(std::move(per_window));
}

}  // namespace perfbench
