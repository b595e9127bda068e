#pragma once
// Order statistics for the benchmark's timings: linear-interpolated
// quantiles, and the tail percentile a sample actually supports.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] of unsorted samples, linearly interpolated between
/// order statistics (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it is one outlier, not a percentile.
inline constexpr std::size_t kTailSupport = 10;

struct Tail {
  double q{0.5};
  std::string label{"p50"};
};

/// The highest of p99.9, p99, p90 and p50 with at least kTailSupport of
/// `n` samples beyond it (p50 when even that is not supported).
[[nodiscard]] Tail supported_tail(std::size_t n);

/// Samples strictly beyond the q-quantile's rank: n - ceil(q * n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Median over windows of each window's q-quantile: a burst confined to
/// one window of the run moves one window's value, not the reported one.
[[nodiscard]] double median_of_window_quantiles(
    const std::vector<std::vector<double>>& windows, double q);

}  // namespace perfbench
