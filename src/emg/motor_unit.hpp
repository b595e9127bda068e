#pragma once
// Fuglevand-style motor-unit pool model of surface EMG generation
// (Fuglevand, Winter & Patla 1993). Units are recruited by the size
// principle; each active unit fires stochastically and contributes a
// biphasic motor-unit action potential (MUAP) to the surface signal.
//
// This is the physiological substitute for the paper's 190 recorded
// patterns: the encoding schemes only see the resulting amplitude
// statistics and 20-450 Hz bandwidth, both of which this model reproduces.

#include <cstdint>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/force_profile.hpp"

namespace datc::emg {

/// Parameters of the motor-unit pool. Defaults follow the classic
/// Fuglevand configuration scaled for a forearm-flexor surface recording.
struct MotorUnitPoolConfig {
  std::size_t num_units{120};
  Real recruitment_range{30.0};   ///< RTE_max / RTE_min (exp distribution)
  Real amplitude_range{30.0};     ///< largest/smallest MUAP amplitude
  Real min_rate_hz{8.0};          ///< firing rate at recruitment
  Real peak_rate_hz{35.0};        ///< saturation firing rate
  Real rate_gain_hz{40.0};        ///< Hz of rate per unit of excitation (>= 0)
  Real isi_cv{0.2};               ///< ISI coefficient of variation
  Real muap_sigma_s{0.6e-3};      ///< MUAP half-width of the smallest unit
  Real muap_sigma_spread{1.4};    ///< duration ratio largest/smallest unit
  Real noise_rms{0.01};           ///< additive measurement noise (relative)
};

/// One motor unit's static properties.
struct MotorUnit {
  Real recruitment_threshold{};  ///< excitation at which the unit turns on
  Real amplitude{};              ///< MUAP peak amplitude (arbitrary units)
  Real sigma_s{};                ///< MUAP time constant
};

/// Generates surface EMG from an excitation (% MVC) trajectory.
///
/// The output is normalised so that a sustained 100 % MVC contraction has
/// an ARV of approximately 1.0 "unit"; the analog front end then applies
/// the subject/electrode gain.
class MotorUnitPool {
 public:
  MotorUnitPool(const MotorUnitPoolConfig& config, dsp::Rng rng);

  /// Synthesises sEMG driven by `drive` (values clamped to [0, 1]; every
  /// sample must be finite). Output sample rate equals the drive's.
  ///
  /// Recruited units wait in a due-time queue, so the cost scales with
  /// samples + spikes rather than samples x units; the random draws
  /// happen in the order of a per-sample scan over the units by index.
  [[nodiscard]] dsp::TimeSeries synthesize(const ForceProfile& drive);

  [[nodiscard]] const std::vector<MotorUnit>& units() const { return units_; }
  [[nodiscard]] const MotorUnitPoolConfig& config() const { return config_; }

  /// Output scale applied before the measurement noise: 1 / ARV of a
  /// sustained 100 % MVC contraction (Campbell calibration).
  [[nodiscard]] Real arv_norm() const { return arv_norm_; }

  /// Instantaneous firing rate of unit `u` at excitation `e` (Hz; 0 when
  /// not recruited). Exposed for tests of the recruitment model.
  [[nodiscard]] Real firing_rate(std::size_t u, Real e) const;

 private:
  MotorUnitPoolConfig config_;
  dsp::Rng rng_;
  std::vector<MotorUnit> units_;
  Real arv_norm_{1.0};  ///< normalisation so ARV(100% MVC) ~ 1

  [[nodiscard]] std::vector<Real> muap_waveform(const MotorUnit& mu,
                                                Real fs_hz) const;
};

}  // namespace datc::emg
