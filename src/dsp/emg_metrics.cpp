#include "dsp/emg_metrics.hpp"
#include "dsp/spectral.hpp"
#include "dsp/types.hpp"

#include <cmath>
#include <numbers>

namespace datc::dsp {

Real median_frequency_hz(const PsdEstimate& psd) {
  require(!psd.psd_v2_hz.empty(), "median_frequency_hz: empty PSD");
  Real total = 0.0;
  for (const Real p : psd.psd_v2_hz) total += p;
  require(total > 0.0, "median_frequency_hz: zero-power PSD");
  Real acc = 0.0;
  for (std::size_t k = 0; k < psd.psd_v2_hz.size(); ++k) {
    const Real next = acc + psd.psd_v2_hz[k];
    if (next >= total / 2.0) {
      // Linear interpolation inside the crossing bin.
      const Real need = total / 2.0 - acc;
      const Real frac = psd.psd_v2_hz[k] > 0.0 ? need / psd.psd_v2_hz[k] : 0.0;
      const Real df = k + 1 < psd.freq_hz.size()
                          ? psd.freq_hz[k + 1] - psd.freq_hz[k]
                          : (k > 0 ? psd.freq_hz[k] - psd.freq_hz[k - 1]
                                   : 0.0);
      return psd.freq_hz[k] + frac * df;
    }
    acc = next;
  }
  return psd.freq_hz.back();
}

Real mean_frequency_hz(const PsdEstimate& psd) {
  require(!psd.psd_v2_hz.empty(), "mean_frequency_hz: empty PSD");
  Real total = 0.0;
  Real weighted = 0.0;
  for (std::size_t k = 0; k < psd.psd_v2_hz.size(); ++k) {
    total += psd.psd_v2_hz[k];
    weighted += psd.psd_v2_hz[k] * psd.freq_hz[k];
  }
  require(total > 0.0, "mean_frequency_hz: zero-power PSD");
  return weighted / total;
}

Real median_frequency_hz(std::span<const Real> x, Real fs_hz,
                         std::size_t segment) {
  return median_frequency_hz(welch_psd(x, fs_hz, segment));
}

Real goertzel_power(std::span<const Real> x, Real fs_hz, Real f_hz) {
  require(!x.empty(), "goertzel_power: empty input");
  require(fs_hz > 0.0 && f_hz >= 0.0 && f_hz <= fs_hz / 2.0,
          "goertzel_power: frequency outside [0, fs/2]");
  const Real w = 2.0 * std::numbers::pi_v<Real> * f_hz / fs_hz;
  const Real coeff = 2.0 * std::cos(w);
  Real s0 = 0.0;
  Real s1 = 0.0;
  Real s2 = 0.0;
  for (const Real v : x) {
    s0 = v + coeff * s1 - s2;
    s2 = s1;
    s1 = s0;
  }
  const Real n = static_cast<Real>(x.size());
  const Real power =
      (s1 * s1 + s2 * s2 - coeff * s1 * s2) / (n * n / 4.0);
  return power;  // ~A^2 for a tone of amplitude A at f_hz
}

}  // namespace datc::dsp
