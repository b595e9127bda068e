#include "config/factory.hpp"

#include "config/scenario.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "emg/artifacts.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "emg/fatigue.hpp"
#include "emg/force_profile.hpp"
#include "emg/generator.hpp"
#include "emg/motor_unit.hpp"
#include "fault/fault.hpp"
#include "fault/file_io.hpp"
#include "fault/health.hpp"
#include "runtime/faulty_session.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/session.hpp"
#include "sim/stream_parity.hpp"
#include "store/recorder.hpp"
#include "uwb/link_pipeline.hpp"

namespace datc::config {

PipelineFactory::PipelineFactory(ScenarioSpec spec)
    : spec_(std::move(spec)) {
  spec_.validate_or_throw();
}

emg::EvalConfig PipelineFactory::eval_config() const {
  emg::EvalConfig eval;
  eval.window_s = spec_.encoder.window_s;
  eval.datc_clock_hz = spec_.encoder.clock_hz;
  eval.dtc.dac_bits = spec_.encoder.dac_bits;
  eval.dtc.frame = spec_.encoder.frame;
  eval.dac_vref = spec_.encoder.dac_vref;
  eval.analog_fs_hz = spec_.source.sample_rate_hz;
  eval.band_lo_hz = spec_.encoder.band_lo_hz;
  eval.band_hi_hz = spec_.encoder.band_hi_hz;
  return eval;
}

uwb::LinkConfig PipelineFactory::link_config() const {
  uwb::LinkConfig link;
  link.seed = spec_.link.seed;
  link.modulator.shape.amplitude_v = spec_.link.pulse_amplitude_v;
  link.modulator.symbol_period_s = spec_.link.symbol_period_s;
  link.modulator.code_bits = spec_.encoder.dac_bits;
  link.channel.distance_m = spec_.link.distance_m;
  link.channel.ref_loss_db = spec_.link.ref_loss_db;
  link.channel.path_loss_exponent = spec_.link.path_loss_exponent;
  link.channel.erasure_prob = spec_.link.erasure_prob;
  link.channel.jitter_rms_s = spec_.link.jitter_rms_s;
  link.detector.false_alarm_prob = spec_.link.false_alarm_prob;
  return link;
}

uwb::SharedAerConfig PipelineFactory::shared_config() const {
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = spec_.resolved_address_bits();
  shared.aer.min_spacing_s = spec_.aer.min_spacing_s;
  shared.aer.max_queue_delay_s = spec_.aer.max_queue_delay_s;
  return shared;
}

runtime::RunnerConfig PipelineFactory::runner_config() const {
  runtime::RunnerConfig cfg;
  cfg.jobs = spec_.session.jobs;
  cfg.link_mode = spec_.aer.topology == LinkTopology::kSharedAer
                      ? runtime::LinkMode::kSharedAer
                      : runtime::LinkMode::kPerChannel;
  cfg.shared = shared_config();
  cfg.eval = eval_config();
  cfg.link = link_config();
  return cfg;
}

core::CalibrationPtr PipelineFactory::calibration() const {
  if (calibration_ == nullptr) {
    const auto eval = eval_config();
    calibration_ = core::shared_rate_calibration(
        emg::calibration_config(eval, eval.datc_clock_hz));
  }
  return calibration_;
}

runtime::SessionConfig PipelineFactory::session_config() const {
  auto cfg = runtime::make_session_config(eval_config(), link_config(),
                                          calibration());
  cfg.health = health_config();
  return cfg;
}

fault::FaultPlan PipelineFactory::fault_plan() const {
  fault::FaultPlan plan;
  plan.seed = spec_.fault.seed;
  plan.store.write_fail_prob = spec_.fault.store_write_fail_prob;
  plan.store.fsync_fail_prob = spec_.fault.store_fsync_fail_prob;
  plan.store.enospc_every_ops = spec_.fault.store_enospc_every_ops;
  plan.store.enospc_window_ops = spec_.fault.store_enospc_window_ops;
  plan.session.chunk_drop_prob = spec_.fault.chunk_drop_prob;
  plan.session.chunk_dup_prob = spec_.fault.chunk_dup_prob;
  plan.session.chunk_stall_prob = spec_.fault.chunk_stall_prob;
  plan.session.chunk_stall_ms = spec_.fault.chunk_stall_ms;
  plan.session.chunk_poison_prob = spec_.fault.chunk_poison_prob;
  plan.session.sensor_dropout_prob = spec_.fault.sensor_dropout_prob;
  plan.session.sensor_saturate_prob = spec_.fault.sensor_saturate_prob;
  plan.session.sensor_rail_v = spec_.fault.sensor_rail_v;
  return plan;
}

fault::LinkHealthConfig PipelineFactory::health_config() const {
  fault::LinkHealthConfig health;
  health.starvation_s = spec_.fault.health_starvation_s;
  health.bad_rate = spec_.fault.health_bad_rate;
  health.window_s = spec_.fault.health_window_s;
  return health;
}

store::RecorderConfig PipelineFactory::recorder_config(
    const std::string& dir) const {
  store::RecorderConfig cfg;
  cfg.log.dir = dir;
  const auto plan = fault_plan();
  if (plan.store.any()) {
    cfg.log.io = std::make_shared<fault::FaultyFileIo>(plan.store,
                                                       plan.store_seed());
  }
  return cfg;
}

std::unique_ptr<runtime::Session> PipelineFactory::wrap_session_faults(
    std::unique_ptr<runtime::Session> session,
    std::uint32_t channel_id) const {
  const auto plan = fault_plan();
  if (!plan.session.any()) return session;
  return std::make_unique<runtime::FaultySession>(
      std::move(session), plan.session, plan.session_seed(channel_id));
}

emg::RecordingSpec PipelineFactory::recording_spec(
    std::size_t channel) const {
  emg::RecordingSpec rs;
  rs.seed = spec_.source.seed + channel;
  rs.sample_rate_hz = spec_.source.sample_rate_hz;
  rs.duration_s = spec_.source.duration_s;
  rs.gain_v = spec_.gain_for_channel(channel);
  rs.start_mvc = spec_.source.start_mvc;
  rs.model = spec_.source.model == SourceModel::kFilteredNoise
                 ? emg::EmgModel::kFilteredNoise
                 : emg::EmgModel::kMotorUnitPool;
  rs.name = spec_.name + "-ch" + std::to_string(channel);
  return rs;
}

emg::Recording PipelineFactory::make_recording(std::size_t channel) const {
  const auto rs = recording_spec(channel);
  emg::Recording rec;
  if (spec_.source.model == SourceModel::kFatigued) {
    // Mirrors emg::make_recording's seeding (protocol then synthesis from
    // one stream) with the fatigue-capable synthesiser.
    dsp::Rng rng(rs.seed);
    rec.spec = rs;
    rec.force = emg::grip_protocol(rng, rs.start_mvc, rs.duration_s,
                                   rs.sample_rate_hz);
    emg::FatigueConfig fatigue;
    fatigue.tau_s = spec_.source.fatigue_tau_s;
    fatigue.sigma_stretch = spec_.source.fatigue_sigma_stretch;
    fatigue.amplitude_gain = spec_.source.fatigue_amplitude_gain;
    rec.emg_v = emg::synthesize_fatigued(rec.force,
                                         emg::MotorUnitPoolConfig{}, fatigue,
                                         rng);
    for (auto& v : rec.emg_v.samples()) v *= rs.gain_v;
  } else {
    rec = emg::make_recording(rs);
  }
  if (spec_.has_artifacts()) {
    emg::ArtifactConfig art;
    art.powerline_amplitude = spec_.source.powerline_amplitude_v;
    art.powerline_freq_hz = spec_.source.powerline_freq_hz;
    art.baseline_wander_amp = spec_.source.baseline_wander_amp_v;
    art.baseline_wander_hz = spec_.source.baseline_wander_hz;
    art.motion_burst_rate_hz = spec_.source.motion_burst_rate_hz;
    art.motion_burst_amp = spec_.source.motion_burst_amp_v;
    art.spike_rate_hz = spec_.source.spike_rate_hz;
    art.spike_amp = spec_.source.spike_amp_v;
    dsp::Rng rng(spec_.source.artifact_seed ^
                 static_cast<std::uint64_t>(channel));
    emg::inject_artifacts(rec.emg_v, art, rng);
  }
  return rec;
}

std::vector<emg::Recording> PipelineFactory::make_recordings() const {
  std::vector<emg::Recording> recs;
  recs.reserve(spec_.source.channels);
  for (std::size_t c = 0; c < spec_.source.channels; ++c) {
    recs.push_back(make_recording(c));
  }
  return recs;
}

std::unique_ptr<runtime::PipelineRunner> PipelineFactory::make_runner()
    const {
  return std::make_unique<runtime::PipelineRunner>(runner_config());
}

std::unique_ptr<runtime::StreamingSession>
PipelineFactory::make_streaming_session(std::uint32_t channel_id) const {
  return std::make_unique<runtime::StreamingSession>(session_config(),
                                                     channel_id);
}

std::unique_ptr<runtime::SharedAerStreamingSession>
PipelineFactory::make_shared_session() const {
  return std::make_unique<runtime::SharedAerStreamingSession>(
      session_config(), shared_config(), spec_.source.channels);
}

store::SessionManifest PipelineFactory::manifest(Real duration_s) const {
  return sim::make_session_manifest(eval_config(), spec_.session.channel,
                                    duration_s);
}

}  // namespace datc::config
