#pragma once
// Spectral figures only the tests read: the powerline share of a record
// (one Goertzel bin over the total power) and the peak of a PSD in a band
// in dBm/MHz, the unit of the FCC UWB mask.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>

#include "dsp/emg_metrics.hpp"
#include "dsp/spectral.hpp"
#include "dsp/types.hpp"

namespace datc::testutil {

using dsp::Real;

/// Goertzel algorithm: power of a single frequency bin (V^2), exact for
/// tones at bin centres and far cheaper than a full FFT for one bin.
inline Real goertzel_power(std::span<const Real> x, Real fs_hz, Real f_hz) {
  dsp::require(!x.empty(), "goertzel_power: empty input");
  dsp::require(fs_hz > 0.0 && f_hz >= 0.0 && f_hz <= fs_hz / 2.0,
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

/// Converts a one-sided PSD in V^2/Hz (across a resistance of `ohms`)
/// to dBm/MHz — the unit of the FCC UWB mask (-41.3 dBm/MHz).
inline Real psd_to_dbm_per_mhz(Real psd_v2_hz, Real ohms = 50.0) {
  dsp::require(ohms > 0.0, "psd_to_dbm_per_mhz: resistance must be positive");
  // V^2/Hz -> W/Hz -> mW/MHz: * 1e3 (mW/W) * 1e6 (Hz/MHz).
  const Real mw_per_mhz = psd_v2_hz / ohms * 1.0e9;
  if (mw_per_mhz <= 0.0) return -300.0;  // floor for empty bins
  return 10.0 * std::log10(mw_per_mhz);
}

/// Ratio of power at f_hz (Goertzel, one bin) to total power.
inline Real tone_power_fraction(std::span<const Real> x, Real fs_hz,
                                Real f_hz) {
  Real total = 0.0;
  for (const Real v : x) total += v * v;
  if (total <= 0.0) return 0.0;
  const Real tone = goertzel_power(x, fs_hz, f_hz) *
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
    best = std::max(best, psd_to_dbm_per_mhz(psd.psd_v2_hz[k], ohms));
  }
  return best;
}

}  // namespace datc::testutil
