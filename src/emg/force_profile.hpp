#pragma once
// Muscle-force (% MVC) trajectory generators. The paper's dataset follows a
// cylindrical power-grip protocol sweeping from 70 % MVC down to 0 %; these
// profiles drive the motor-unit pool in src/emg/motor_unit.hpp.

#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace datc::emg {

using dsp::Real;

/// A force profile is a normalised excitation trajectory in [0, 1]
/// (fraction of MVC) sampled at a given rate.
struct ForceProfile {
  std::vector<Real> fraction_mvc;  ///< values in [0, 1]
  Real sample_rate_hz{1.0};

  [[nodiscard]] dsp::TimeSeries as_series() const {
    return dsp::TimeSeries(fraction_mvc, sample_rate_hz);
  }
};

/// Constant hold at `level` MVC.
[[nodiscard]] ForceProfile constant_force(Real level, Real duration_s,
                                          Real fs_hz);

/// Trapezoid: rest, linear ramp up to `level`, hold, ramp down, rest.
[[nodiscard]] ForceProfile trapezoid_force(Real level, Real ramp_s,
                                           Real hold_s, Real rest_s,
                                           Real fs_hz);

/// Randomised grip-session protocol: a sequence of plateaus whose levels
/// descend (with jitter) from about `start_level` to 0, separated by short
/// transitions, then low-pass smoothed so the drive is physiological.
/// Total duration is exactly `duration_s`.
[[nodiscard]] ForceProfile grip_protocol(dsp::Rng& rng, Real start_level,
                                         Real duration_s, Real fs_hz);

/// Smooths a profile with a 2nd-order Butterworth low-pass at `fc_hz`
/// (default 2 Hz — voluntary force bandwidth) and clamps to [0, 1].
[[nodiscard]] ForceProfile smooth_profile(const ForceProfile& p,
                                          Real fc_hz = 2.0);

}  // namespace datc::emg
