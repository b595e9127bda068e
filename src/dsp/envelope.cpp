#include "dsp/envelope.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/moving_average.hpp"
#include "dsp/types.hpp"

namespace datc::dsp {

std::vector<Real> rectify(std::span<const Real> x) {
  std::vector<Real> y(x.size());
  std::transform(x.begin(), x.end(), y.begin(),
                 [](Real v) { return std::abs(v); });
  return y;
}

std::size_t window_samples(Real fs_hz, Real window_s) {
  require(fs_hz > 0.0 && window_s > 0.0,
          "window_samples: fs and window must be positive");
  auto n = static_cast<std::size_t>(std::lround(fs_hz * window_s));
  if (n < 1) n = 1;
  if (n % 2 == 0) ++n;  // odd so the centred window is symmetric
  return n;
}

std::vector<Real> arv_envelope(std::span<const Real> x, Real fs_hz,
                               Real window_s) {
  return centered_moving_average_abs(x, window_samples(fs_hz, window_s));
}

}  // namespace datc::dsp
