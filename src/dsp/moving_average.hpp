#pragma once
// Sliding-window smoothers: moving average (the receiver's "low-complexity
// windowing", ref [9]/[10]).

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

/// O(N) causal moving average over `window` samples. y[n] is the mean of
/// the most recent min(n+1, window) inputs (warm-up uses the samples seen
/// so far rather than zero-padding, which would bias the envelope onset).
[[nodiscard]] std::vector<Real> moving_average(std::span<const Real> x,
                                               std::size_t window);

/// Zero-lag (centred) moving average: y[n] = mean(x[n-h .. n+h]) with
/// h = window/2, clamped at the record boundaries. This is the form used
/// for ground-truth ARV envelopes so that correlation is not penalised by
/// group delay.
[[nodiscard]] std::vector<Real> centered_moving_average(
    std::span<const Real> x, std::size_t window);

/// centered_moving_average(rectify(x), window) without the rectified
/// copy: |x| goes straight into the prefix sums (the ARV envelope's
/// smoother).
[[nodiscard]] std::vector<Real> centered_moving_average_abs(
    std::span<const Real> x, std::size_t window);

/// Streaming causal moving average (used inside the receiver models).
class MovingAverager {
 public:
  explicit MovingAverager(std::size_t window);

  [[nodiscard]] Real process(Real x);
  void reset();
  [[nodiscard]] std::size_t window() const { return buf_.size(); }

 private:
  std::vector<Real> buf_;
  std::size_t head_{0};
  std::size_t filled_{0};
  Real sum_{0.0};
};

}  // namespace datc::dsp
