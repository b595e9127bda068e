#include "dsp/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/fft.hpp"
#include "dsp/types.hpp"

namespace datc::dsp {
namespace {
constexpr Real kPi = std::numbers::pi_v<Real>;
}

std::vector<Real> make_window(WindowKind kind, std::size_t n) {
  require(n >= 1, "make_window: n must be >= 1");
  std::vector<Real> w(n, 1.0);
  const Real denom = static_cast<Real>(n);  // periodic window
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = 2.0 * kPi * static_cast<Real>(i) / denom;
    switch (kind) {
      case WindowKind::kRect:
        w[i] = 1.0;
        break;
      case WindowKind::kHann:
        w[i] = 0.5 * (1.0 - std::cos(t));
        break;
      case WindowKind::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(t);
        break;
      case WindowKind::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(t) + 0.08 * std::cos(2.0 * t);
        break;
    }
  }
  return w;
}

PsdEstimate welch_psd(std::span<const Real> x, Real fs_hz, std::size_t segment,
                      WindowKind window) {
  require(fs_hz > 0.0, "welch_psd: fs must be positive");
  require(!x.empty(), "welch_psd: empty input");
  require(segment >= 2, "welch_psd: segment must be >= 2");
  const std::size_t nseg = next_pow2(std::min(segment, x.size()));
  const std::size_t hop = std::max<std::size_t>(1, nseg / 2);
  const auto w = make_window(window, nseg);
  Real win_power = 0.0;
  for (const Real v : w) win_power += v * v;

  const std::size_t nbins = nseg / 2 + 1;
  std::vector<Real> acc(nbins, 0.0);
  std::size_t count = 0;
  std::vector<Complex> buf(nseg);
  for (std::size_t start = 0; start + nseg <= x.size(); start += hop) {
    for (std::size_t i = 0; i < nseg; ++i) {
      buf[i] = Complex{x[start + i] * w[i], 0.0};
    }
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) {
      acc[k] += std::norm(buf[k]);
    }
    ++count;
  }
  if (count == 0) {
    // Record shorter than one segment: single zero-padded segment.
    buf.assign(nseg, Complex{0.0, 0.0});
    for (std::size_t i = 0; i < x.size(); ++i) {
      buf[i] = Complex{x[i] * w[i % nseg], 0.0};
    }
    fft_inplace(buf);
    for (std::size_t k = 0; k < nbins; ++k) acc[k] += std::norm(buf[k]);
    count = 1;
  }

  PsdEstimate out;
  out.freq_hz.resize(nbins);
  out.psd_v2_hz.resize(nbins);
  const Real scale = 1.0 / (fs_hz * win_power * static_cast<Real>(count));
  for (std::size_t k = 0; k < nbins; ++k) {
    out.freq_hz[k] =
        static_cast<Real>(k) * fs_hz / static_cast<Real>(nseg);
    Real p = acc[k] * scale;
    // One-sided: double the interior bins.
    if (k != 0 && k != nbins - 1) p *= 2.0;
    out.psd_v2_hz[k] = p;
  }
  return out;
}

}  // namespace datc::dsp
