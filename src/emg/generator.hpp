#pragma once
// High-level sEMG synthesis entry points. Two models are provided:
//
//  * kMotorUnitPool — physiological Fuglevand pool (default; used for the
//    dataset reproduction),
//  * kFilteredNoise — amplitude-modulated band-limited Gaussian noise
//    (classic phenomenological EMG model, used by property sweeps that
//    need thousands of records; it costs about as much as the pool, ~8 vs
//    ~10 ms per 20 s record at 2.5 kHz).
//
// Both produce signals normalised so that ARV(100 % MVC) ~ 1 "unit"; the
// analog front end (or the dataset factory) scales that to volts.

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"

namespace datc::emg {

enum class EmgModel { kMotorUnitPool, kFilteredNoise };

struct FilteredNoiseConfig {
  Real band_lo_hz{20.0};
  Real band_hi_hz{450.0};
  int filter_order{4};
  Real noise_floor_rms{0.01};  ///< measurement noise relative to MVC ARV
};

/// Band-limited Gaussian noise whose instantaneous ARV tracks the drive.
[[nodiscard]] dsp::TimeSeries synthesize_filtered_noise(
    const ForceProfile& drive, const FilteredNoiseConfig& config,
    dsp::Rng& rng);

/// Physiological synthesis through a freshly constructed motor-unit pool.
[[nodiscard]] dsp::TimeSeries synthesize_pool(const ForceProfile& drive,
                                              const MotorUnitPoolConfig& config,
                                              dsp::Rng& rng);

/// Dispatches on `model` with default per-model configurations.
[[nodiscard]] dsp::TimeSeries synthesize(EmgModel model,
                                         const ForceProfile& drive,
                                         dsp::Rng& rng);

}  // namespace datc::emg
