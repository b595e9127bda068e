#include "emg/force_profile.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/biquad.hpp"
#include "dsp/filter_design.hpp"
#include "dsp/types.hpp"

namespace datc::emg {
namespace {

std::size_t count_samples(Real duration_s, Real fs_hz) {
  dsp::require(duration_s > 0.0 && fs_hz > 0.0,
               "force profile: duration and fs must be positive");
  return static_cast<std::size_t>(std::llround(duration_s * fs_hz));
}

void check_level(Real level) {
  dsp::require(level >= 0.0 && level <= 1.0,
               "force profile: MVC fraction must lie in [0,1]");
}

}  // namespace

ForceProfile constant_force(Real level, Real duration_s, Real fs_hz) {
  check_level(level);
  ForceProfile p;
  p.sample_rate_hz = fs_hz;
  p.fraction_mvc.assign(count_samples(duration_s, fs_hz), level);
  return p;
}

ForceProfile trapezoid_force(Real level, Real ramp_s, Real hold_s, Real rest_s,
                             Real fs_hz) {
  check_level(level);
  const auto n_ramp = count_samples(std::max(ramp_s, 1.0 / fs_hz), fs_hz);
  const auto n_hold = count_samples(std::max(hold_s, 1.0 / fs_hz), fs_hz);
  const auto n_rest = count_samples(std::max(rest_s, 1.0 / fs_hz), fs_hz);
  ForceProfile p;
  p.sample_rate_hz = fs_hz;
  auto& f = p.fraction_mvc;
  f.insert(f.end(), n_rest, 0.0);
  for (std::size_t i = 0; i < n_ramp; ++i) {
    f.push_back(level * static_cast<Real>(i) / static_cast<Real>(n_ramp));
  }
  f.insert(f.end(), n_hold, level);
  for (std::size_t i = 0; i < n_ramp; ++i) {
    f.push_back(level *
                (1.0 - static_cast<Real>(i) / static_cast<Real>(n_ramp)));
  }
  f.insert(f.end(), n_rest, 0.0);
  return p;
}

ForceProfile grip_protocol(dsp::Rng& rng, Real start_level, Real duration_s,
                           Real fs_hz) {
  check_level(start_level);
  const auto n_total = count_samples(duration_s, fs_hz);
  ForceProfile p;
  p.sample_rate_hz = fs_hz;
  p.fraction_mvc.reserve(n_total);

  // Plateau levels descend from start_level to 0 with multiplicative jitter;
  // plateau durations are 1.5-3.5 s with brief relaxations in between.
  Real level = start_level;
  while (p.fraction_mvc.size() < n_total) {
    const Real plateau_s = rng.uniform(1.5, 3.5);
    const Real gap_s = rng.uniform(0.3, 0.8);
    const auto n_plateau = count_samples(plateau_s, fs_hz);
    const auto n_gap = count_samples(gap_s, fs_hz);
    const Real jittered =
        std::clamp(level * rng.uniform(0.85, 1.1), 0.0, 1.0);
    for (std::size_t i = 0; i < n_plateau && p.fraction_mvc.size() < n_total;
         ++i) {
      // Small physiological tremor on top of the plateau.
      p.fraction_mvc.push_back(
          std::clamp(jittered * (1.0 + 0.03 * rng.gaussian()), 0.0, 1.0));
    }
    for (std::size_t i = 0; i < n_gap && p.fraction_mvc.size() < n_total;
         ++i) {
      p.fraction_mvc.push_back(0.0);
    }
    level = std::max(0.0, level - start_level * rng.uniform(0.12, 0.25));
  }
  p.fraction_mvc.resize(n_total);
  return smooth_profile(p);
}

ForceProfile smooth_profile(const ForceProfile& p, Real fc_hz) {
  dsp::require(fc_hz > 0.0 && fc_hz < p.sample_rate_hz / 2.0,
               "smooth_profile: cutoff must lie in (0, fs/2)");
  dsp::BiquadCascade lp(
      dsp::butterworth_lowpass(2, fc_hz, p.sample_rate_hz));
  ForceProfile out;
  out.sample_rate_hz = p.sample_rate_hz;
  out.fraction_mvc = lp.filter(p.fraction_mvc);
  for (auto& v : out.fraction_mvc) v = std::clamp(v, 0.0, 1.0);
  return out;
}

}  // namespace datc::emg
