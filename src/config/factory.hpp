#pragma once
// PipelineFactory: the ONLY place a D-ATC pipeline is wired. Every
// construction path — the multi-channel batch engine
// (runtime::PipelineRunner), streaming sessions (per-channel and
// shared-AER), and the store's record/replay setup — is derived here
// from one validated ScenarioSpec, so the four paths are parameterised
// identically by construction. The factory-built pipelines
// are bit-identical to the pre-refactor hand-wired ones (gated by
// config_scenario_test's factory-vs-legacy parity suite).

#include <memory>
#include <string>
#include <vector>

#include "config/scenario.hpp"
#include "core/reconstruct.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "runtime/faulty_session.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/session.hpp"
#include "store/recorder.hpp"
#include "uwb/link_pipeline.hpp"

namespace datc::config {

class PipelineFactory {
 public:
  /// Validates the spec (throws ScenarioError on any issue).
  explicit PipelineFactory(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  // ---- derived configuration structs (one mapping each, no restating)
  [[nodiscard]] emg::EvalConfig eval_config() const;
  [[nodiscard]] uwb::LinkConfig link_config() const;
  [[nodiscard]] uwb::SharedAerConfig shared_config() const;
  [[nodiscard]] runtime::RunnerConfig runner_config() const;
  /// Includes the decode-health thresholds from fault.health_* (disabled
  /// by default, in which case sessions are bit-identical to pre-fault).
  [[nodiscard]] runtime::SessionConfig session_config() const;

  // ---- fault injection (the chaos layer; everything defaults to off)
  /// The spec's fault.* keys as one seeded FaultPlan.
  [[nodiscard]] fault::FaultPlan fault_plan() const;
  /// Decode-health monitor thresholds from fault.health_*.
  [[nodiscard]] fault::LinkHealthConfig health_config() const;
  /// Recorder config for a session directory: store faults armed in the
  /// spec route segment I/O through a seeded FaultyFileIo (owned by the
  /// returned config), otherwise the real filesystem.
  [[nodiscard]] store::RecorderConfig recorder_config(
      const std::string& dir) const;
  /// Wraps a session in a FaultySession (chunk/sensor faults, stream
  /// seeded per `channel_id`) when the spec arms any session fault;
  /// returns the session unchanged otherwise.
  [[nodiscard]] std::unique_ptr<runtime::Session> wrap_session_faults(
      std::unique_ptr<runtime::Session> session,
      std::uint32_t channel_id) const;

  /// The D-ATC rate calibration (expensive Monte Carlo run): built on
  /// first use, shared by every session/reconstructor from this factory.
  [[nodiscard]] core::CalibrationPtr calibration() const;

  // ---- signal source
  [[nodiscard]] emg::RecordingSpec recording_spec(std::size_t channel) const;
  /// Synthesises channel `channel` (fatigue model and artifact injection
  /// applied per the spec).
  [[nodiscard]] emg::Recording make_recording(std::size_t channel) const;
  /// All `source.channels` recordings, in channel order.
  [[nodiscard]] std::vector<emg::Recording> make_recordings() const;

  // ---- the four construction paths
  /// (1) Multi-channel batch engine (honours aer.topology);
  /// run_channel(rec, 0) runs one recording over channel 0's radio.
  [[nodiscard]] std::unique_ptr<runtime::PipelineRunner> make_runner() const;
  /// (2) One streaming channel over its private radio.
  [[nodiscard]] std::unique_ptr<runtime::StreamingSession>
  make_streaming_session(std::uint32_t channel_id) const;
  /// (3) All channels streamed over one arbitrated AER radio.
  [[nodiscard]] std::unique_ptr<runtime::SharedAerStreamingSession>
  make_shared_session() const;
  /// (4) Replay setup: the manifest `datc record` persists and
  /// store::replay_envelope rebuilds the receiver from.
  [[nodiscard]] store::SessionManifest manifest(Real duration_s) const;

 private:
  ScenarioSpec spec_;
  mutable core::CalibrationPtr calibration_;  ///< lazy, shared
};

}  // namespace datc::config
