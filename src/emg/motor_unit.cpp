#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

namespace datc::emg {
namespace {

/// Normalised biphasic MUAP shape: h(x) = x * exp(-x^2 / 2), peak ~ 0.607.
Real muap_shape(Real x) { return x * std::exp(-x * x / 2.0); }

/// Peak of |muap_shape| (at x = 1).
const Real kShapePeak = std::exp(-0.5);

}  // namespace

MotorUnitPool::MotorUnitPool(const MotorUnitPoolConfig& config, dsp::Rng rng)
    : config_(config), rng_(rng) {
  dsp::require(config_.num_units >= 1, "MotorUnitPool: need >= 1 unit");
  dsp::require(config_.recruitment_range > 1.0 &&
                   config_.amplitude_range >= 1.0,
               "MotorUnitPool: ranges must exceed 1");
  dsp::require(config_.peak_rate_hz >= config_.min_rate_hz &&
                   config_.min_rate_hz > 0.0,
               "MotorUnitPool: rates must satisfy 0 < min <= peak");
  // With a non-negative gain a unit's rate is positive exactly when the
  // excitation reaches its threshold; synthesize() recruits on that alone.
  dsp::require(std::isfinite(config_.rate_gain_hz) &&
                   config_.rate_gain_hz >= 0.0,
               "MotorUnitPool: rate_gain_hz must be finite and >= 0");

  const auto n = config_.num_units;
  units_.resize(n);
  // All units are recruited by 70 % excitation (upper recruitment limit for
  // hand muscles); recruitment thresholds and amplitudes follow the
  // exponential size-principle distributions of Fuglevand et al.
  constexpr Real kMaxRecruitExcitation = 0.7;
  for (std::size_t i = 0; i < n; ++i) {
    const Real frac =
        n == 1 ? 0.0
               : static_cast<Real>(i) / static_cast<Real>(n - 1);
    units_[i].recruitment_threshold =
        kMaxRecruitExcitation *
        std::exp(std::log(config_.recruitment_range) * (frac - 1.0));
    units_[i].amplitude =
        std::exp(std::log(config_.amplitude_range) * frac);
    units_[i].sigma_s =
        config_.muap_sigma_s *
        (1.0 + (config_.muap_sigma_spread - 1.0) * frac);
  }
  // synthesize() relies on this: the recruited units form a prefix.
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = units_[i].recruitment_threshold;
    dsp::require(std::isfinite(t) &&
                     (i == 0 || units_[i - 1].recruitment_threshold <= t),
                 "MotorUnitPool: recruitment thresholds must be finite and "
                 "non-decreasing");
  }

  // Campbell's theorem calibration: for a shot-noise superposition the
  // variance is sum_i rate_i * integral h_i(t)^2 dt. With h peak-normalised
  // to amplitude a and time constant sigma, integral h^2 = a^2 sigma
  // sqrt(pi)/2 / kShapePeak^2. A dense interference pattern is ~Gaussian,
  // so ARV = sigma_signal * sqrt(2/pi).
  Real var_full = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real rate = firing_rate(i, 1.0);
    const Real h2 = units_[i].amplitude * units_[i].amplitude *
                    units_[i].sigma_s * (std::sqrt(std::numbers::pi_v<Real>) / 2.0) /
                    (kShapePeak * kShapePeak);
    var_full += rate * h2;
  }
  const Real arv_full =
      std::sqrt(var_full) * std::sqrt(2.0 / std::numbers::pi_v<Real>);
  dsp::require(arv_full > 0.0, "MotorUnitPool: degenerate calibration");
  arv_norm_ = 1.0 / arv_full;
}

Real MotorUnitPool::firing_rate(std::size_t u, Real e) const {
  dsp::require(u < units_.size(), "firing_rate: unit index out of range");
  const auto& mu = units_[u];
  if (e < mu.recruitment_threshold) return 0.0;
  const Real r = config_.min_rate_hz +
                 config_.rate_gain_hz * (e - mu.recruitment_threshold);
  return std::min(r, config_.peak_rate_hz);
}

std::vector<Real> MotorUnitPool::muap_waveform(const MotorUnit& mu,
                                               Real fs_hz) const {
  // Support of +-4 sigma around the centre.
  const auto half = static_cast<std::size_t>(
      std::ceil(4.0 * mu.sigma_s * fs_hz));
  const std::size_t len = 2 * half + 1;
  std::vector<Real> w(len);
  for (std::size_t i = 0; i < len; ++i) {
    const Real t = (static_cast<Real>(i) - static_cast<Real>(half)) / fs_hz;
    w[i] = mu.amplitude * muap_shape(t / mu.sigma_s) / kShapePeak;
  }
  return w;
}

dsp::TimeSeries MotorUnitPool::synthesize(const ForceProfile& drive) {
  const Real fs = drive.sample_rate_hz;
  dsp::require(fs > 0.0, "synthesize: sample rate must be positive");
  const auto& excitation = drive.fraction_mvc;
  dsp::require(std::all_of(excitation.begin(), excitation.end(),
                           [](Real v) { return std::isfinite(v); }),
               "synthesize: drive samples must be finite");
  const std::size_t n = excitation.size();
  std::vector<Real> out(n, 0.0);
  if (n == 0) return dsp::TimeSeries(std::move(out), fs);

  // Precompute MUAP kernels.
  const std::size_t num_units = units_.size();
  std::vector<std::vector<Real>> kernels;
  kernels.reserve(num_units);
  for (const auto& mu : units_) kernels.push_back(muap_waveform(mu, fs));

  // Per-unit firing state: time of next spike (in samples); negative means
  // currently de-recruited.
  constexpr Real kInactive = -1.0;
  std::vector<Real> next_spike(num_units, kInactive);

  // Recruited units wait in a min-heap on (due sample, unit), due sample =
  // ceil(next spike). Every entry due at a sample is popped at that
  // sample, so within it units come out in index order: the order in
  // which a scan over all units draws from rng_.
  struct Due {
    Real sample;
    std::size_t unit;
  };
  const auto later = [](const Due& a, const Due& b) {
    return a.sample != b.sample ? a.sample > b.sample : a.unit > b.unit;
  };
  std::vector<Due> queue;
  queue.reserve(num_units);

  const Real min_isi_frac = 0.3;  // refractory floor as a fraction of 1/rate
  // Fires every spike of recruited unit `u` due at or before sample `s` at
  // excitation `e` (drawing its phase first if it was just recruited),
  // then queues the unit for its next spike.
  const auto fire = [&](std::size_t u, Real e, std::size_t s) {
    const Real rate = firing_rate(u, e);
    const Real mean_isi_samples = fs / rate;
    if (next_spike[u] < 0.0) {
      // Newly recruited: random phase within one ISI.
      next_spike[u] = static_cast<Real>(s) +
                      rng_.uniform() * mean_isi_samples;
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
                   1.0 + config_.isi_cv * rng_.gaussian());
      next_spike[u] += isi;
    }
    queue.push_back({std::ceil(next_spike[u]), u});
    std::push_heap(queue.begin(), queue.end(), later);
  };

  // Thresholds are non-decreasing, so units [0, recruited) are exactly
  // those with threshold <= e; the count walks from its previous value.
  std::size_t recruited = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const Real e = std::clamp(excitation[s], 0.0, 1.0);
    const std::size_t was_recruited = recruited;
    while (recruited < num_units &&
           units_[recruited].recruitment_threshold <= e) {
      ++recruited;
    }
    while (recruited > 0 &&
           e < units_[recruited - 1].recruitment_threshold) {
      --recruited;
      next_spike[recruited] = kInactive;
    }
    if (recruited < was_recruited) {
      // Their entries leave the queue; recruited again, they draw a phase.
      std::erase_if(queue, [&](const Due& d) { return d.unit >= recruited; });
      std::make_heap(queue.begin(), queue.end(), later);
    }
    const auto now = static_cast<Real>(s);
    while (!queue.empty() && queue.front().sample <= now) {
      std::pop_heap(queue.begin(), queue.end(), later);
      const std::size_t u = queue.back().unit;
      queue.pop_back();
      fire(u, e, s);
    }
    // Newly recruited units have the highest indices recruited so far.
    for (std::size_t u = was_recruited; u < recruited; ++u) fire(u, e, s);
  }

  // Normalise so ARV at sustained 100 % MVC ~ 1, then add measurement noise.
  for (auto& v : out) v *= arv_norm_;
  if (config_.noise_rms > 0.0) {
    for (auto& v : out) v += config_.noise_rms * rng_.gaussian();
  }
  return dsp::TimeSeries(std::move(out), fs);
}

}  // namespace datc::emg
