#pragma once
// Spectral figures only the tests read: the powerline share of a record
// (one Goertzel bin over the total power) and the peak of a PSD in a band
// in dBm/MHz, the unit of the FCC UWB mask.

#include <algorithm>
#include <cstddef>
#include <span>

#include "dsp/emg_metrics.hpp"
#include "dsp/spectral.hpp"
#include "dsp/types.hpp"

namespace datc::testutil {

using dsp::Real;

/// Ratio of power at f_hz (Goertzel, one bin) to total power.
inline Real tone_power_fraction(std::span<const Real> x, Real fs_hz,
                                Real f_hz) {
  Real total = 0.0;
  for (const Real v : x) total += v * v;
  if (total <= 0.0) return 0.0;
  const Real tone = dsp::goertzel_power(x, fs_hz, f_hz) *
                    static_cast<Real>(x.size()) / 2.0;
  return std::min(tone / total, Real{1.0});
}

/// Maximum of a PSD in dBm/MHz over the band [f_lo, f_hi].
inline Real peak_dbm_per_mhz(const dsp::PsdEstimate& psd, Real f_lo_hz,
                             Real f_hi_hz, Real ohms = 50.0) {
  dsp::require(f_lo_hz <= f_hi_hz, "peak_dbm_per_mhz: need f_lo <= f_hi");
  Real best = -300.0;
  for (std::size_t k = 0; k < psd.freq_hz.size(); ++k) {
    if (psd.freq_hz[k] < f_lo_hz || psd.freq_hz[k] > f_hi_hz) continue;
    best = std::max(best, dsp::psd_to_dbm_per_mhz(psd.psd_v2_hz[k], ohms));
  }
  return best;
}

}  // namespace datc::testutil
