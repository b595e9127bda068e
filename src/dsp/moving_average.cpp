#include "dsp/moving_average.hpp"
#include "dsp/types.hpp"

#include <algorithm>
#include <cmath>

namespace datc::dsp {

std::vector<Real> moving_average(std::span<const Real> x, std::size_t window) {
  require(window >= 1, "moving_average: window must be >= 1");
  std::vector<Real> y(x.size());
  Real sum = 0.0;
  for (std::size_t n = 0; n < x.size(); ++n) {
    sum += x[n];
    if (n >= window) sum -= x[n - window];
    const std::size_t effective = std::min(n + 1, window);
    y[n] = sum / static_cast<Real>(effective);
  }
  return y;
}

namespace {

/// Centred moving average of g(x): prefix sums, then the record edges
/// with the window clamped and the interior divided by the constant
/// 2h + 1 (a loop the compiler vectorises; a lane division is the scalar
/// IEEE division, so the bits are the clamped expression's).
template <class G>
std::vector<Real> centered_average(std::span<const Real> x,
                                   std::size_t window, G g) {
  require(window >= 1, "centered_moving_average: window must be >= 1");
  const std::size_t n = x.size();
  std::vector<Real> y(n);
  if (n == 0) return y;
  std::vector<Real> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + g(x[i]);
  const std::size_t h = window / 2;
  const auto clamped = [&](std::size_t k) {
    const std::size_t lo = k >= h ? k - h : 0;
    const std::size_t hi = std::min(k + h, n - 1);
    y[k] = (prefix[hi + 1] - prefix[lo]) / static_cast<Real>(hi - lo + 1);
  };
  // Interior [h, n - h): empty when n <= 2h.
  const std::size_t lead = std::min(h, n);
  const std::size_t tail = std::max(lead, n > h ? n - h : 0);
  const auto count = static_cast<Real>(2 * h + 1);
  for (std::size_t k = 0; k < lead; ++k) clamped(k);
  for (std::size_t k = lead; k < tail; ++k) {
    y[k] = (prefix[k + h + 1] - prefix[k - h]) / count;
  }
  for (std::size_t k = tail; k < n; ++k) clamped(k);
  return y;
}

}  // namespace

std::vector<Real> centered_moving_average(std::span<const Real> x,
                                          std::size_t window) {
  return centered_average(x, window, [](Real v) { return v; });
}

std::vector<Real> centered_moving_average_abs(std::span<const Real> x,
                                              std::size_t window) {
  return centered_average(x, window, [](Real v) { return std::abs(v); });
}

MovingAverager::MovingAverager(std::size_t window) : buf_(window, 0.0) {
  require(window >= 1, "MovingAverager: window must be >= 1");
}

Real MovingAverager::process(Real x) {
  sum_ -= buf_[head_];
  buf_[head_] = x;
  sum_ += x;
  head_ = (head_ + 1) % buf_.size();
  if (filled_ < buf_.size()) ++filled_;
  return sum_ / static_cast<Real>(filled_);
}

void MovingAverager::reset() {
  std::fill(buf_.begin(), buf_.end(), 0.0);
  head_ = 0;
  filled_ = 0;
  sum_ = 0.0;
}

}  // namespace datc::dsp
