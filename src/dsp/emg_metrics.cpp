#include "dsp/emg_metrics.hpp"
#include "dsp/spectral.hpp"
#include "dsp/types.hpp"

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

}  // namespace datc::dsp
