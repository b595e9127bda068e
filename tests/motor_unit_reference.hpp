#pragma once
// Test-only reference for motor-unit-pool synthesis: the original
// per-sample x per-unit scan, kept verbatim in expression and draw order,
// so the library's due-time scheduler (MotorUnitPool::synthesize) is
// checked against independent code rather than against itself.
//
// Every sample visits every unit in index order: a unit below threshold
// is de-recruited; a newly recruited one draws a uniform phase within one
// ISI; each unit whose next spike is due stamps its MUAP and draws a
// gaussian ISI at the rate of the current excitation. The sum is then
// scaled by the pool's ARV normalisation and measurement noise is added.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"

namespace datc::oracle {

/// The original MUAP kernel: h(x) = x exp(-x^2/2) over +-4 sigma,
/// peak-normalised to the unit's amplitude.
inline std::vector<dsp::Real> reference_muap_waveform(
    const emg::MotorUnit& mu, dsp::Real fs_hz) {
  using dsp::Real;
  const Real shape_peak = std::exp(-0.5);
  const auto half = static_cast<std::size_t>(
      std::ceil(4.0 * mu.sigma_s * fs_hz));
  const std::size_t len = 2 * half + 1;
  std::vector<Real> w(len);
  for (std::size_t i = 0; i < len; ++i) {
    const Real t = (static_cast<Real>(i) - static_cast<Real>(half)) / fs_hz;
    const Real x = t / mu.sigma_s;
    w[i] = mu.amplitude * (x * std::exp(-x * x / 2.0)) / shape_peak;
  }
  return w;
}

/// The original synthesis body. `rng` plays the role of the pool's own
/// stream: seed it as the pool was seeded (the constructor draws nothing)
/// and it continues across calls the same way.
inline dsp::TimeSeries reference_synthesize(const emg::MotorUnitPool& pool,
                                            dsp::Rng& rng,
                                            const emg::ForceProfile& drive) {
  using dsp::Real;
  const auto& units = pool.units();
  const auto& config = pool.config();
  const Real fs = drive.sample_rate_hz;
  const std::size_t n = drive.fraction_mvc.size();
  std::vector<Real> out(n, 0.0);
  if (n == 0) return dsp::TimeSeries(std::move(out), fs);

  // Precompute MUAP kernels.
  std::vector<std::vector<Real>> kernels;
  kernels.reserve(units.size());
  for (const auto& mu : units) {
    kernels.push_back(reference_muap_waveform(mu, fs));
  }

  // Per-unit firing state: time of next spike (in samples); negative means
  // currently de-recruited.
  constexpr Real kInactive = -1.0;
  std::vector<Real> next_spike(units.size(), kInactive);

  const Real min_isi_frac = 0.3;  // refractory floor as a fraction of 1/rate
  for (std::size_t s = 0; s < n; ++s) {
    const Real e = std::clamp(drive.fraction_mvc[s], 0.0, 1.0);
    for (std::size_t u = 0; u < units.size(); ++u) {
      const Real rate = pool.firing_rate(u, e);
      if (rate <= 0.0) {
        next_spike[u] = kInactive;
        continue;
      }
      const Real mean_isi_samples = fs / rate;
      if (next_spike[u] < 0.0) {
        // Newly recruited: random phase within one ISI.
        next_spike[u] = static_cast<Real>(s) +
                        rng.uniform() * mean_isi_samples;
      }
      while (next_spike[u] <= static_cast<Real>(s)) {
        // Stamp this unit's MUAP centred at the spike sample.
        const auto& k = kernels[u];
        const auto half = (k.size() - 1) / 2;
        const auto centre = static_cast<std::ptrdiff_t>(
            std::llround(next_spike[u]));
        for (std::size_t j = 0; j < k.size(); ++j) {
          const std::ptrdiff_t idx =
              centre + static_cast<std::ptrdiff_t>(j) -
              static_cast<std::ptrdiff_t>(half);
          if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(n)) {
            out[static_cast<std::size_t>(idx)] += k[j];
          }
        }
        const Real isi =
            mean_isi_samples *
            std::max(min_isi_frac,
                     1.0 + config.isi_cv * rng.gaussian());
        next_spike[u] += isi;
      }
    }
  }

  // Normalise so ARV at sustained 100 % MVC ~ 1, then add measurement noise.
  for (auto& v : out) v *= pool.arv_norm();
  if (config.noise_rms > 0.0) {
    for (auto& v : out) v += config.noise_rms * rng.gaussian();
  }
  return dsp::TimeSeries(std::move(out), fs);
}

}  // namespace datc::oracle
