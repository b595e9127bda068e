#include "emg/evaluation.hpp"

#include <algorithm>

#include "core/atc_encoder.hpp"
#include "core/datc_encoder.hpp"
#include "core/predictor.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/envelope.hpp"
#include "dsp/stats.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"

namespace datc::emg {

core::DatcEncoderConfig datc_encoder_config(const EvalConfig& config) {
  core::DatcEncoderConfig enc;
  enc.dtc = config.dtc;
  enc.clock_hz = config.datc_clock_hz;
  enc.dac_vref = config.dac_vref;
  return enc;
}

core::ReconstructionConfig datc_reconstruction_config(
    const EvalConfig& config) {
  core::ReconstructionConfig rc;
  rc.window_s = config.window_s;
  rc.output_fs_hz = config.analog_fs_hz;
  rc.dac_vref = config.dac_vref;
  rc.dac_bits = config.dtc.dac_bits;
  rc.duty_lo = config.dtc.duty_lo;
  rc.duty_hi = config.dtc.duty_hi;
  rc.min_code = config.dtc.min_code;
  return rc;
}

core::RateCalibrationConfig calibration_config(const EvalConfig& config,
                                               Real count_fs_hz) {
  core::RateCalibrationConfig c;
  c.analog_fs_hz = config.analog_fs_hz;
  c.band_lo_hz = config.band_lo_hz;
  c.band_hi_hz = config.band_hi_hz;
  c.count_fs_hz = count_fs_hz;
  return c;
}

Evaluator::Evaluator(const EvalConfig& config) : config_(config) {
  // Memoised: repeated Evaluator construction (scenario grid points,
  // per-point runners) shares the immutable tables.
  atc_cal_ = core::shared_rate_calibration(
      calibration_config(config_, config_.analog_fs_hz));
  datc_cal_ = core::shared_rate_calibration(
      calibration_config(config_, config_.datc_clock_hz));
}

namespace {

/// Each envelope cut to its common length with a truth of `n` samples.
std::vector<std::span<const Real>> cut_to(
    std::size_t n, std::initializer_list<std::span<const Real>> envelopes) {
  std::vector<std::span<const Real>> cut;
  cut.reserve(envelopes.size());
  for (const auto env : envelopes) {
    cut.push_back(env.first(std::min(env.size(), n)));
  }
  return cut;
}

std::vector<Real> to_percent(std::vector<Real> r) {
  for (Real& p : r) p *= 100.0;  // dsp::correlation_percent
  return r;
}

}  // namespace

std::vector<Real> score_against(
    std::span<const Real> truth,
    std::initializer_list<std::span<const Real>> envelopes) {
  const auto cut = cut_to(truth.size(), envelopes);
  std::vector<Real> r(cut.size());
  dsp::pearson_many(truth, cut, r);
  return to_percent(std::move(r));
}

std::vector<Real> Evaluator::ground_truth(const Recording& rec) const {
  return dsp::arv_envelope(rec.emg_v.view(), rec.emg_v.sample_rate_hz(),
                           config_.window_s);
}

std::vector<Real> Evaluator::score(
    const Recording& rec,
    std::initializer_list<std::span<const Real>> envelopes) const {
  return score_against(ground_truth(rec), envelopes);
}

std::vector<Real> Evaluator::reconstruct_atc(const core::EventStream& events,
                                             Real threshold_v,
                                             Real duration_s) const {
  const core::AtcReconstructor recon(threshold_v,
                                     datc_reconstruction_config(config_),
                                     atc_cal_, config_.atc_mode);
  return recon.reconstruct(events, duration_s);
}

std::vector<Real> Evaluator::reconstruct_datc(const core::EventStream& events,
                                              Real duration_s) const {
  const core::DatcReconstructor recon(datc_reconstruction_config(config_),
                                      datc_cal_, config_.datc_mode);
  return recon.reconstruct(events, duration_s);
}

SchemeEvaluation Evaluator::atc(const Recording& rec,
                                Real threshold_v) const {
  core::AtcEncoderConfig enc;
  enc.threshold_v = threshold_v;
  const auto result = core::encode_atc(rec.emg_v, enc);
  const Real duration = rec.emg_v.duration_s();

  SchemeEvaluation ev;
  ev.scheme = "ATC(Vth=" + std::to_string(threshold_v).substr(0, 4) + "V)";
  ev.num_events = result.events.size();
  ev.symbols = core::atc_symbols(ev.num_events);
  ev.mean_rate_hz = result.events.mean_rate_hz(duration);
  ev.duty_cycle = result.duty_cycle;

  const auto recon = reconstruct_atc(result.events, threshold_v, duration);
  ev.correlation_pct = score(rec, {recon}).front();
  return ev;
}

SchemeEvaluation Evaluator::datc(const Recording& rec) const {
  const auto result =
      core::encode_datc(rec.emg_v, datc_encoder_config(config_));
  const Real duration = rec.emg_v.duration_s();

  SchemeEvaluation ev;
  ev.scheme = "D-ATC";
  ev.num_events = result.events.size();
  ev.symbols = core::datc_symbols(ev.num_events, config_.dtc.dac_bits);
  ev.mean_rate_hz = result.events.mean_rate_hz(duration);
  std::size_t ones = 0;
  for (const auto b : result.trace.d_out) ones += b;
  ev.duty_cycle = result.trace.d_out.empty()
                      ? 0.0
                      : static_cast<Real>(ones) /
                            static_cast<Real>(result.trace.d_out.size());

  const auto recon = reconstruct_datc(result.events, duration);
  ev.correlation_pct = score(rec, {recon}).front();
  return ev;
}

}  // namespace datc::emg
