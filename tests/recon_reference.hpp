#pragma once
// Test-only reference for D-ATC rate inversion: the original batch body,
// kept verbatim in expression order (its moving average is the original
// one in score_reference.hpp) so the library's one implementation
// (StreamingDatcReconstructor, which DatcReconstructor delegates to) is
// checked against independent code rather than against itself.
//
//   rate[i]  = events in [t - W/2, t + W/2) / truncated window width
//   vth[i]   = held threshold (reset code until the first event)
//   vth_sm   = centred moving average of vth over round(W * fs) samples
//   arv[i]   = vth_sm[i] / u_for_rate(rate[i]) * sqrt(2/pi)

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/events.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "score_reference.hpp"

namespace datc::oracle {

inline std::vector<dsp::Real> reference_rate_inversion(
    const core::EventStream& events, dsp::Real duration_s,
    const core::ReconstructionConfig& config,
    const core::RateCalibration& cal) {
  using dsp::Real;
  const auto rate = core::event_rate_estimate(
      events, duration_s, config.window_s, config.output_fs_hz);
  const std::size_t n = rate.size();
  const auto w = static_cast<std::size_t>(
      std::llround(config.window_s * config.output_fs_hz));

  const Real lsb = config.dac_vref / static_cast<Real>(1u << config.dac_bits);
  std::vector<Real> vth(n);
  const auto& ev = events.events();
  std::size_t next = 0;
  Real held = lsb * 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / config.output_fs_hz;
    while (next < ev.size() && ev[next].time_s <= t) {
      held = lsb * static_cast<Real>(ev[next].vth_code);
      ++next;
    }
    vth[i] = held;
  }
  vth = reference_centered_moving_average(vth, std::max<std::size_t>(w, 1));

  constexpr Real kArvOfSigma = 0.7978845608028654;  // sqrt(2/pi)
  std::vector<Real> arv(n);
  for (std::size_t i = 0; i < n; ++i) {
    arv[i] = vth[i] / cal.u_for_rate(rate[i]) * kArvOfSigma;
  }
  return arv;
}

}  // namespace datc::oracle
