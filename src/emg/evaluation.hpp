#pragma once
// End-to-end scheme evaluation on one recording: encode, reconstruct at
// the receiver, and score against the ground-truth ARV envelope — the
// pipeline behind every figure in the paper's evaluation section.

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/atc_encoder.hpp"
#include "core/datc_encoder.hpp"
#include "core/dtc.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "emg/dataset.hpp"

namespace datc::emg {

using dsp::Real;

struct EvalConfig {
  Real window_s{0.25};          ///< RX windowing and ground-truth ARV window
  Real datc_clock_hz{2000.0};
  core::DtcConfig dtc{};
  Real dac_vref{1.0};
  Real analog_fs_hz{2500.0};    ///< dataset sample rate (for calibration)
  Real band_lo_hz{20.0};        ///< assumed sEMG band at the receiver
  Real band_hi_hz{450.0};
  core::AtcDecodeMode atc_mode{core::AtcDecodeMode::kLinearRate};
  core::DatcDecodeMode datc_mode{core::DatcDecodeMode::kRateInversion};
};

/// The ONE EvalConfig -> transmitter mapping. Every path that encodes
/// D-ATC (Evaluator, PipelineRunner, streaming sessions via
/// runtime::make_session_config, config::PipelineFactory) derives its
/// encoder from here, so a default cannot drift between them.
[[nodiscard]] core::DatcEncoderConfig datc_encoder_config(
    const EvalConfig& config);

/// The ONE EvalConfig -> receiver-reconstruction mapping (same contract).
/// The DTC interval-table span travels with it, as the reconstructor's
/// code-duty inversion must match the transmitter's Eqn-2 table.
[[nodiscard]] core::ReconstructionConfig datc_reconstruction_config(
    const EvalConfig& config);

/// The ONE EvalConfig -> Monte-Carlo-calibration mapping; `count_fs_hz`
/// is the rate crossings are counted at (DTC clock for D-ATC, the analog
/// rate for ATC).
[[nodiscard]] core::RateCalibrationConfig calibration_config(
    const EvalConfig& config, Real count_fs_hz);

/// The scorer: the only truth-vs-envelope scoring path in the library.
/// Every figure that correlates a reconstructed envelope with the
/// ground-truth ARV envelope (Evaluator, PipelineRunner) comes through
/// here or through Evaluator::score.
/// Envelope k is scored over the common length n = min(truth.size(),
/// env.size()); the result is bit for bit dsp::correlation_percent(
/// truth[:n], env[:n]). Two neighbouring envelopes of one length (rx
/// and tx) share one means pass and one moments pass (dsp::pearson_many),
/// so mean(truth) and its sum of squares are computed once for the pair.
/// Throws like dsp::pearson when n < 2.
[[nodiscard]] std::vector<Real> score_against(
    std::span<const Real> truth,
    std::initializer_list<std::span<const Real>> envelopes);

struct SchemeEvaluation {
  std::string scheme;
  std::size_t num_events{0};
  core::SymbolCounts symbols{};
  Real correlation_pct{0.0};
  Real mean_rate_hz{0.0};
  Real duty_cycle{0.0};  ///< comparator duty (diagnostics)
};

/// Builds the (expensive) receiver calibrations once and evaluates many
/// recordings against them.
class Evaluator {
 public:
  explicit Evaluator(const EvalConfig& config = {});

  /// Fixed-threshold ATC at the given threshold voltage.
  [[nodiscard]] SchemeEvaluation atc(const Recording& rec,
                                     Real threshold_v) const;

  /// D-ATC with the configured DTC.
  [[nodiscard]] SchemeEvaluation datc(const Recording& rec) const;

  /// Ground-truth ARV envelope used for scoring.
  [[nodiscard]] std::vector<Real> ground_truth(
      const Recording& rec) const;

  /// score_against(ground_truth(rec), envelopes).
  [[nodiscard]] std::vector<Real> score(
      const Recording& rec,
      std::initializer_list<std::span<const Real>> envelopes) const;

  /// Reconstructed envelopes (for benches that print the waveforms).
  [[nodiscard]] std::vector<Real> reconstruct_atc(
      const core::EventStream& events, Real threshold_v,
      Real duration_s) const;
  [[nodiscard]] std::vector<Real> reconstruct_datc(
      const core::EventStream& events, Real duration_s) const;

  [[nodiscard]] const EvalConfig& config() const { return config_; }
  [[nodiscard]] core::CalibrationPtr atc_calibration() const {
    return atc_cal_;
  }
  [[nodiscard]] core::CalibrationPtr datc_calibration() const {
    return datc_cal_;
  }

 private:
  EvalConfig config_;
  core::CalibrationPtr atc_cal_;   ///< crossings counted at the analog rate
  core::CalibrationPtr datc_cal_;  ///< crossings counted at the DTC clock
};

}  // namespace datc::emg
