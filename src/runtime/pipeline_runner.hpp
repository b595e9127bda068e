#pragma once
// Multi-channel, multi-threaded encoding engine: shards N independent EMG
// channels across a thread pool and runs encode -> UWB link -> reconstruct
// per channel through the block-mode hot paths (EventArena sink, fused
// encode kernel, cached-detection receiver).
//
// Two link topologies:
//  - kPerChannel: every channel gets its own private radio, seeded
//    Rng(link.seed ^ i), through the batch link chain.
//  - kSharedAer: all encoders contend for ONE radio. The records are fed
//    in lockstep rounds through one SharedAerStreamingSession (AER
//    arbiter, one radio, demux, per-channel reconstruction and the
//    TX <-> RX ledger); its envelopes are then scored per channel. The
//    streaming reconstructor inverts rates only, so shared mode rejects
//    the code-duty decode mode, and lockstep rounds need records of one
//    length and sample rate.
//
// Determinism contract: channel i draws from Rng(link.seed ^ i) (per-
// channel mode) or the single shared radio draws from Rng(link.seed)
// (shared mode) and every worker writes only its own output slot, so the
// parallel run is bit-identical to the serial run — and, because every
// fast path is proven bit-identical to its reference (encode_datc,
// UwbReceiver reference decode), also to the seed per-cycle pipeline
// with the same per-channel seeds (the test-only oracle in
// tests/pipeline_reference.hpp). Tests assert both properties.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/receiver.hpp"

namespace datc::runtime {

using dsp::Real;

enum class LinkMode {
  kPerChannel,  ///< one private, contention-free radio per channel
  kSharedAer,   ///< one arbitrated AER radio shared by every channel
};

struct RunnerConfig {
  std::size_t jobs{0};        ///< worker threads; 0 = hardware concurrency
  bool score_tx_side{true};   ///< also reconstruct/score the lossless stream
  bool keep_rx_events{false}; ///< retain decoded events in the report
  LinkMode link_mode{LinkMode::kPerChannel};
  uwb::SharedAerConfig shared{};  ///< arbiter/radio options (kSharedAer)
  emg::EvalConfig eval{};
  uwb::LinkConfig link{};     ///< link.seed is the base seed (xor channel id)
};

/// Per-channel outcome of one batch run.
struct ChannelReport {
  std::uint32_t channel{0};
  std::size_t events_tx{0};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};
  Real tx_correlation_pct{0.0};  ///< lossless-link score (0 when disabled)
  Real rx_correlation_pct{0.0};  ///< over-the-air score
  uwb::DecodeStats decode{};
  core::EventStream rx_events;   ///< populated when keep_rx_events
};

/// Link-wide outcome of a kSharedAer run (one radio for all channels).
struct SharedLinkReport {
  uwb::AerStats arbiter{};   ///< merge-side arbitration stats
  uwb::AerStats demux{};     ///< split-side stats (invalid addresses)
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};  ///< decoded frames before the demux
  uwb::DecodeStats decode{};
  uwb::AerLedgerCounts ledger{};  ///< decoded frames vs sent events
};

struct BatchReport {
  std::vector<ChannelReport> channels;
  LinkMode link_mode{LinkMode::kPerChannel};
  SharedLinkReport shared;          ///< meaningful when kSharedAer
  Real wall_seconds{0.0};           ///< processing time (synthesis excluded)
  Real emg_seconds_processed{0.0};  ///< sum of channel durations

  /// How many seconds of EMG the engine chews per wall second.
  [[nodiscard]] Real throughput_x_realtime() const {
    return wall_seconds > 0.0 ? emg_seconds_processed / wall_seconds : 0.0;
  }
};

class ThreadPool;

class PipelineRunner {
 public:
  explicit PipelineRunner(const RunnerConfig& config);
  ~PipelineRunner();

  /// Runs every recording as one channel (channel id = index), sharded
  /// across the pool. Output is bit-identical to run_serial(). Honours
  /// config().link_mode: private radios or one shared AER link.
  [[nodiscard]] BatchReport run(std::span<const emg::Recording> recordings);

  /// Reference serial execution of the same pipeline (either mode).
  [[nodiscard]] BatchReport run_serial(
      std::span<const emg::Recording> recordings) const;

  /// One channel over its private radio, seeded link.seed ^ channel_id
  /// (examples, benches and tests run single recordings through it).
  [[nodiscard]] ChannelReport run_channel(const emg::Recording& rec,
                                          std::uint32_t channel_id) const;

  [[nodiscard]] const emg::Evaluator& evaluator() const { return eval_; }
  [[nodiscard]] const RunnerConfig& config() const { return config_; }
  [[nodiscard]] std::size_t jobs() const;

 private:
  RunnerConfig config_;
  emg::Evaluator eval_;
  std::unique_ptr<ThreadPool> pool_;

  [[nodiscard]] BatchReport run_batch(
      std::span<const emg::Recording> recordings, ThreadPool* pool) const;
  [[nodiscard]] BatchReport run_shared(
      std::span<const emg::Recording> recordings, ThreadPool* pool) const;
  /// Scores the envelope `rx_envelope()` returns (and the reconstruction
  /// of `tx` when scored) against one ground truth.
  template <typename RxEnvelope>
  void score(const emg::Recording& rec, const core::EventStream& tx,
             const RxEnvelope& rx_envelope, Real& rx_pct,
             Real& tx_pct) const;
};

}  // namespace datc::runtime
