#include "core/reconstruct.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/streaming_reconstruct.hpp"
#include "dsp/moving_average.hpp"
#include "dsp/stats.hpp"
#include "dsp/types.hpp"

namespace datc::core {
namespace {

/// ARV of a zero-mean Gaussian with RMS sigma.
constexpr Real kArvOfSigma = 0.7978845608028654;  // sqrt(2/pi)

std::size_t output_length(Real duration_s, Real fs) {
  return static_cast<std::size_t>(std::llround(duration_s * fs));
}

}  // namespace

EnvelopeParity compare_envelopes(std::span<const Real> reference,
                                 std::span<const Real> candidate) {
  EnvelopeParity out;
  out.samples = reference.size();
  if (reference.size() != candidate.size()) {
    out.equal = false;
    out.max_abs_diff = std::numeric_limits<Real>::infinity();
    return out;
  }
  out.equal = true;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Real d = std::abs(reference[i] - candidate[i]);
    out.max_abs_diff = std::max(out.max_abs_diff, d);
    if (reference[i] != candidate[i]) out.equal = false;
  }
  return out;
}

std::vector<Real> event_rate_estimate(const EventStream& events,
                                      Real duration_s, Real window_s,
                                      Real output_fs_hz) {
  dsp::require(duration_s > 0.0 && window_s > 0.0 && output_fs_hz > 0.0,
               "event_rate_estimate: parameters must be positive");
  dsp::require(events.is_time_sorted(),
               "event_rate_estimate: events must be time sorted");
  const std::size_t n = output_length(duration_s, output_fs_hz);
  std::vector<Real> rate(n, 0.0);
  const auto& ev = events.events();
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / output_fs_hz;
    const Real t_lo = t - window_s / 2.0;
    const Real t_hi = t + window_s / 2.0;
    while (lo < ev.size() && ev[lo].time_s < t_lo) ++lo;
    while (hi < ev.size() && ev[hi].time_s < t_hi) ++hi;
    // Boundary windows are truncated by the record edges; normalise by the
    // overlap so onset/offset are not biased low.
    const Real w_eff = std::min(t_hi, duration_s) - std::max(t_lo, 0.0);
    rate[i] = static_cast<Real>(hi - lo) / std::max(w_eff, 1e-9);
  }
  return rate;
}

AtcReconstructor::AtcReconstructor(Real threshold_v,
                                   ReconstructionConfig config,
                                   CalibrationPtr calibration,
                                   AtcDecodeMode mode)
    : threshold_v_(threshold_v),
      config_(config),
      cal_(std::move(calibration)),
      mode_(mode) {
  dsp::require(threshold_v_ > 0.0,
               "AtcReconstructor: threshold must be positive");
  dsp::require(cal_ != nullptr, "AtcReconstructor: null calibration");
}

std::vector<Real> AtcReconstructor::reconstruct(const EventStream& events,
                                                Real duration_s) const {
  auto rate = event_rate_estimate(events, duration_s, config_.window_s,
                                  config_.output_fs_hz);
  if (mode_ == AtcDecodeMode::kLinearRate) {
    // Scale the rate into ARV units via a single linear calibration point
    // (mid-curve), the proportionality the paper's baseline relies on.
    // Pearson correlation is scale-invariant, so the exact factor only
    // matters for plots.
    const Real u_mid = 1.5;
    const Real r_mid = std::max(cal_->rate_for_u(u_mid), Real{1e-9});
    const Real scale = kArvOfSigma * (threshold_v_ / u_mid) / r_mid;
    for (auto& r : rate) r *= scale;
    return rate;
  }
  std::vector<Real> arv(rate.size());
  for (std::size_t i = 0; i < rate.size(); ++i) {
    const Real u = cal_->u_for_rate(rate[i]);
    arv[i] = kArvOfSigma * threshold_v_ / u;
  }
  return arv;
}

DatcReconstructor::DatcReconstructor(ReconstructionConfig config,
                                     CalibrationPtr calibration,
                                     DatcDecodeMode mode)
    : config_(config), cal_(std::move(calibration)), mode_(mode) {
  dsp::require(cal_ != nullptr, "DatcReconstructor: null calibration");
}

Real DatcReconstructor::duty_mid_of_code(unsigned c) const {
  const unsigned levels = 1u << config_.dac_bits;
  const Real step = levels > 1 ? (config_.duty_hi - config_.duty_lo) /
                                     static_cast<Real>(levels - 1)
                               : 0.0;
  if (c <= config_.min_code) {
    // Floor interval is one-sided: duty in [0, level(min_code + 1)).
    return (config_.duty_lo + step * static_cast<Real>(config_.min_code + 1)) /
           2.0;
  }
  return std::min(config_.duty_lo + step * (static_cast<Real>(c) + 0.5),
                  Real{0.95});
}

std::vector<Real> DatcReconstructor::code_trajectory(
    const EventStream& events, Real duration_s) const {
  const std::size_t n = output_length(duration_s, config_.output_fs_hz);
  std::vector<Real> code(n);
  const auto& ev = events.events();
  std::size_t next = 0;
  Real held = static_cast<Real>(config_.min_code);
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / config_.output_fs_hz;
    while (next < ev.size() && ev[next].time_s <= t) {
      held = static_cast<Real>(ev[next].vth_code);
      ++next;
    }
    code[i] = held;
  }
  return code;
}

std::vector<Real> DatcReconstructor::reconstruct(const EventStream& events,
                                                 Real duration_s) const {
  // Rate inversion is the streaming core run over the record as one
  // chunk: the window-averaged threshold over the inverted event rate.
  StreamingDatcReconstructor stream(config_, cal_);
  stream.push_events(events.events());
  stream.finish(duration_s);
  std::vector<Real> arv_rate;
  stream.drain(arv_rate);
  if (mode_ == DatcDecodeMode::kRateInversion) return arv_rate;

  // kCodeDuty: each transmitted code k testifies that the weighted duty
  // average measured over the *preceding* frames — at the thresholds then
  // in effect — landed in interval k of the Eqn-2 table. The receiver
  // replays the DTC feedback: it tracks the last three codes it saw, forms
  // the same weighted threshold mix as Eqn. 1, and inverts the duty law
  // P(|x| > v) = 2 Q(v / sigma).
  const unsigned levels = 1u << config_.dac_bits;
  const Real lsb = config_.dac_vref / static_cast<Real>(levels);

  // Build the sigma estimate as a step function sampled at event times.
  const std::size_t n = arv_rate.size();
  const auto w = static_cast<std::size_t>(
      std::llround(config_.window_s * config_.output_fs_hz));
  std::vector<Real> sigma_code(n, 0.0);
  std::array<unsigned, 3> hist{config_.min_code, config_.min_code,
                               config_.min_code};  // newest first
  const Real wsum = 1.0 + 0.65 + 0.35;
  // Pre-first-event hold: the receiver assumes the reset code with an
  // all-min_code history (v_eff = lsb * min_code) and the same one-sided
  // floor duty the in-loop inversion uses — the silent leading segment is
  // then continuous with the first min_code event instead of biased by the
  // two-sided midpoint.
  Real held_sigma =
      lsb * static_cast<Real>(config_.min_code) /
      std::max(dsp::normal_q_inv(duty_mid_of_code(config_.min_code) / 2.0),
               Real{1e-6});
  std::size_t next = 0;
  const auto& ev = events.events();
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / config_.output_fs_hz;
    while (next < ev.size() && ev[next].time_s <= t) {
      const unsigned c = std::min<unsigned>(ev[next].vth_code, levels - 1);
      const Real v_eff = lsb *
                         (1.0 * static_cast<Real>(hist[0]) +
                          0.65 * static_cast<Real>(hist[1]) +
                          0.35 * static_cast<Real>(hist[2])) /
                         wsum;
      const Real u = dsp::normal_q_inv(duty_mid_of_code(c) / 2.0);
      held_sigma = v_eff / std::max(u, Real{1e-6});
      if (c != hist[0]) {
        hist[2] = hist[1];
        hist[1] = hist[0];
        hist[0] = c;
      }
      ++next;
    }
    sigma_code[i] = held_sigma;
  }
  sigma_code = dsp::centered_moving_average(sigma_code,
                                            std::max<std::size_t>(w, 1));

  const auto code = code_trajectory(events, duration_s);
  const auto code_sm =
      dsp::centered_moving_average(code, std::max<std::size_t>(w, 1));

  const Real floor_code = static_cast<Real>(config_.min_code) + 0.5;
  for (std::size_t i = 0; i < n; ++i) {
    Real arv = kArvOfSigma * sigma_code[i];
    if (code_sm[i] <= floor_code) {
      // At the code floor the duty interval is one-sided (the signal may
      // be far below the lowest threshold); the rate tail disambiguates.
      // Scaling by the positive constant commutes with min() bit for bit
      // (rounding is monotone), so the rate arm's ARV serves directly.
      arv = std::min(arv, arv_rate[i]);
    }
    arv_rate[i] = arv;
  }
  return arv_rate;
}

}  // namespace datc::core
