#pragma once
// Streaming session engine: the full D-ATC chain — encode -> modulate ->
// channel -> decode -> reconstruct — run incrementally on sample chunks
// with O(chunk + window) working set. Long-lived sessions and the daemon
// feed it chunk by chunk; PipelineRunner's shared-AER mode feeds whole
// records through it in lockstep rounds.
//
// Bit-identicality contract: for the same seeds, a session fed any
// chunking of a recording emits exactly the events, decoded stream and
// ARV samples of the batch link chain (run_datc_over_link /
// run_aer_over_link plus the batch reconstructor). Each stage guarantees
// this through watermarks and split Rng streams — see
// uwb/streaming_link.hpp and core/streaming_reconstruct.hpp; the radio is
// one uwb::StreamingRadio, the same one the batch link runs. Tests sweep
// chunk sizes {1, 7, 64, 4096, whole record} against the batch chain.
//
// SessionManager multiplexes many concurrent sessions over the thread
// pool: chunks of one session run strictly in submission order (a strand),
// different sessions run in parallel, and a bounded per-session queue
// gives the producer backpressure instead of unbounded buffering.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "core/streaming.hpp"
#include "core/streaming_reconstruct.hpp"
#include "emg/evaluation.hpp"
#include "fault/health.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace datc::runtime {

class ThreadPool;

using dsp::Real;

/// Everything one streaming channel needs; make_session_config derives it
/// from the batch EvalConfig + LinkConfig so the streaming and batch
/// pipelines are parameterised identically.
struct SessionConfig {
  core::DatcEncoderConfig encoder{};
  Real analog_fs_hz{2500.0};
  uwb::LinkConfig link{};  ///< link.seed is the base seed (xor channel id)
  core::ReconstructionConfig recon{};
  core::CalibrationPtr calibration;  ///< required (shared across sessions)
  bool keep_rx_events{false};  ///< retain decoded events (tests/debug)
  /// Decode-health thresholds; default-disabled (all zero), in which case
  /// the session is bit-identical to one without the monitor. When armed
  /// and the monitor trips, the session holds the envelope at the last
  /// good value instead of reconstructing from garbage (counted in
  /// SessionReport::arv_held / events_quarantined).
  fault::LinkHealthConfig health{};
};

/// The ONE EvalConfig + LinkConfig -> SessionConfig mapping (encoder,
/// analog rate, link, reconstruction); health stays disabled.
[[nodiscard]] SessionConfig make_session_config(
    const emg::EvalConfig& eval, const uwb::LinkConfig& link,
    core::CalibrationPtr calibration);

/// Cumulative per-session counters. SessionManager consumers read either
/// the running totals or the delta since their last poll.
struct SessionReport {
  std::uint32_t channel{0};
  std::size_t samples_in{0};
  std::size_t events_tx{0};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};
  std::size_t arv_emitted{0};
  /// Graceful-degradation counters (0 unless the health monitor is armed
  /// and tripped): decoded events withheld from reconstruction, ARV
  /// samples pinned to the last good value, and monitor trips.
  std::size_t events_quarantined{0};
  std::size_t arv_held{0};
  std::size_t health_trips{0};
  uwb::DecodeStats decode{};
};

/// Field-wise `after - before` (cumulative-counter delta).
[[nodiscard]] SessionReport session_report_delta(const SessionReport& after,
                                                 const SessionReport& before);

/// Sink for decoded events, called once per chunk with the events the
/// receiver released in that chunk (time-sorted, cumulative across calls).
/// The persistent event store's Recorder::offer is the intended target —
/// it copies and returns without blocking, so storage pressure never
/// stalls the decode strand. The tee runs on whichever thread drives the
/// session (a SessionManager strand worker, under its ordering guarantee).
using EventTee = std::function<void(std::span<const core::Event>)>;

/// Abstract chunk consumer the SessionManager schedules.
class Session {
 public:
  virtual ~Session() = default;
  /// Feed the next chunk of analog samples (layout is session-defined).
  virtual void push_chunk(std::span<const Real> samples_v) = 0;
  /// End of stream: flush every stage.
  virtual void finish() = 0;
};

/// One channel end-to-end over its private radio (the streaming
/// counterpart of PipelineRunner::run_channel; link seed = base ^ id).
class StreamingSession final : public Session {
 public:
  StreamingSession(const SessionConfig& config, std::uint32_t channel_id);

  void push_chunk(std::span<const Real> samples_v) override;
  void finish() override;

  /// Moves ARV samples emitted since the last drain into `out`.
  void drain_arv(std::vector<Real>& out);

  /// Tees every decoded chunk into `tee` (e.g. a store::Recorder). Set
  /// before the first push_chunk so the recording covers the session.
  void set_event_tee(EventTee tee) { event_tee_ = std::move(tee); }

  [[nodiscard]] SessionReport report() const;
  /// Cumulative report delta since the previous take_delta() call.
  [[nodiscard]] SessionReport take_delta();
  [[nodiscard]] const fault::DecodeHealthMonitor& health() const {
    return health_;
  }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const core::EventStream& rx_events() const {
    return rx_events_;
  }
  /// Working-set proxy: the radio's time buffers (air, jitter block,
  /// open frames), reconstruction state and the chunk buffers.
  [[nodiscard]] std::size_t buffered_bytes() const;
  [[nodiscard]] std::size_t peak_buffered_bytes() const { return peak_bytes_; }

 private:
  SessionConfig config_;
  std::uint32_t channel_id_;
  core::EventArena events_chunk_;
  core::StreamingDatcEncoderT<core::ArenaSink> encoder_;
  uwb::StreamingRadio radio_;
  core::StreamingDatcReconstructor reconstructor_;
  core::EventStream decoded_chunk_;
  std::vector<Real> arv_;
  core::EventStream rx_events_;
  EventTee event_tee_;
  std::size_t samples_in_{0};
  std::size_t events_rx_{0};
  std::size_t arv_emitted_{0};
  std::size_t peak_bytes_{0};
  fault::DecodeHealthMonitor health_;
  std::size_t events_quarantined_{0};
  std::size_t arv_held_{0};
  Real last_good_arv_{0.0};
  std::uint64_t last_bad_bits_{0};  ///< false_alarm_bits at previous chunk
  bool finished_{false};
  SessionReport last_delta_{};

  void run_link_chunk(Real watermark, bool flush);
};

/// N channels contending for ONE arbitrated AER radio, streamed: the
/// per-channel encoders push into the same uwb::AerArbiter that aer_merge
/// runs, which releases every event below the encoders' common watermark
/// in its heap (time, channel) order; then one radio chain, and
/// per-channel reconstructors after the demux. Chunks arrive in lockstep
/// rounds: push_chunk takes the samples of ALL channels, channel-major
/// ([ch0 k samples][ch1 k samples]...). An AerLedger matches the decoded
/// frames against the sent events chunk by chunk, so misrouted frames
/// are counted even where every address is valid.
class SharedAerStreamingSession final : public Session {
 public:
  SharedAerStreamingSession(const SessionConfig& config,
                            const uwb::SharedAerConfig& shared,
                            std::size_t num_channels);

  void push_chunk(std::span<const Real> samples_v) override;
  void finish() override;

  /// Tees every decoded chunk (all channels, addresses on the events)
  /// into `tee`; one recording captures the whole shared link.
  void set_event_tee(EventTee tee) { event_tee_ = std::move(tee); }

  void drain_arv(std::size_t channel, std::vector<Real>& out);
  [[nodiscard]] SessionReport report(std::size_t channel) const;
  [[nodiscard]] const uwb::AerStats& arbiter_stats() const {
    return arbiter_.stats();
  }
  [[nodiscard]] const uwb::AerStats& demux_stats() const { return demux_; }
  [[nodiscard]] const uwb::DecodeStats& decode_stats() const {
    return radio_.stats();
  }
  /// TX <-> RX ledger over every frame settled so far (all of them once
  /// finished).
  [[nodiscard]] const uwb::AerLedgerCounts& ledger() const {
    return ledger_.counts();
  }
  [[nodiscard]] std::size_t num_channels() const { return encoders_.size(); }
  [[nodiscard]] const core::EventStream& rx_events(std::size_t channel) const {
    return rx_events_[channel];
  }
  [[nodiscard]] std::size_t pulses_tx() const { return radio_.pulses_tx(); }
  [[nodiscard]] std::size_t pulses_erased() const { return radio_.erased(); }
  /// Link-wide health monitor (one radio → one monitor; bad = demux
  /// invalid-address outcomes).
  [[nodiscard]] const fault::DecodeHealthMonitor& health() const {
    return health_;
  }

 private:
  SessionConfig config_;
  core::EventArena events_chunk_;
  std::vector<std::unique_ptr<core::StreamingDatcEncoderT<core::ArenaSink>>>
      encoders_;
  uwb::AerArbiter arbiter_;
  uwb::StreamingRadio radio_;
  uwb::AerLedger ledger_;
  std::vector<std::unique_ptr<core::StreamingDatcReconstructor>>
      reconstructors_;
  uwb::AerStats demux_{};
  core::EventStream merged_chunk_;
  core::EventStream decoded_chunk_;
  EventTee event_tee_;
  std::vector<std::vector<Real>> arv_;
  std::vector<core::EventStream> rx_events_;
  std::vector<std::size_t> events_rx_;
  std::vector<std::size_t> arv_emitted_;
  fault::DecodeHealthMonitor health_;
  std::size_t events_quarantined_{0};
  std::vector<std::size_t> arv_held_;
  std::vector<Real> last_good_arv_;
  std::size_t samples_in_per_channel_{0};
  bool finished_{false};

  void run_link_chunk(Real merged_watermark, Real recon_watermark_cap,
                      bool flush);
};

/// Schedules many Sessions over one thread pool. Per-session ordering is
/// strict (chunks run in submission order, never concurrently with each
/// other); cross-session execution is parallel. submit_chunk blocks once
/// `max_pending_chunks` chunks of that session are queued — backpressure
/// towards the producer instead of unbounded memory.
///
/// Fault isolation: a session that throws is quarantined — its pending
/// work is discarded, later submissions to it are counted and dropped,
/// and its error is surfaced through health() — while every other
/// session keeps running untouched. With `rethrow_on_drain` (the
/// default) drain() additionally rethrows the first session error, which
/// single-session callers expect; chaos callers set it to false and read
/// per-session health instead. An optional watchdog thread flags strands
/// whose chunk has been executing for more than `stall_timeout_s`
/// (sticky flag, observation only — the chunk is never interrupted).
class SessionManager {
 public:
  struct Config {
    std::size_t jobs{0};  ///< worker threads; 0 = hardware concurrency
    std::size_t max_pending_chunks{4};  ///< per-session queue bound
    /// drain() rethrows the first session error (pre-quarantine
    /// behaviour). False = errors only surface through health().
    bool rethrow_on_drain{true};
    /// Watchdog: flag a strand whose single chunk/finish call has been
    /// running longer than this (wall-clock seconds; 0 = no watchdog).
    Real stall_timeout_s{0.0};
  };

  explicit SessionManager(const Config& config);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  using SessionId = std::size_t;

  /// Per-session degradation state, readable any time.
  struct SessionHealth {
    bool quarantined{false};
    std::string error;  ///< what() of the quarantining exception
    std::uint64_t chunks_discarded{0};  ///< dropped by quarantine
    bool stall_flagged{false};  ///< watchdog saw a too-long chunk (sticky)
  };

  /// Registers a session; the manager owns it. The returned id addresses
  /// submissions; the raw pointer stays valid for reading reports after
  /// drain().
  SessionId add(std::unique_ptr<Session> session);

  /// Enqueues a chunk for the session (copies the samples). Blocks while
  /// the session's queue is full. Chunks for a quarantined session are
  /// discarded and counted instead of enqueued — the producer keeps
  /// running against a failed session without blocking or throwing.
  void submit_chunk(SessionId id, std::span<const Real> samples_v);

  /// Enqueues the end-of-stream flush after every queued chunk.
  void submit_finish(SessionId id);

  /// Destroys a completed session and frees its memory: waits for the
  /// strand to go idle (requires every queued chunk/finish to have run
  /// already), then resets the slot's Session. The id stays allocated —
  /// ids are slot indices and are never reused — but submitting to or
  /// reading a released session is a contract violation; health() keeps
  /// answering (quarantine state survives release). Long-running callers
  /// (the ingest daemon) release each finished session so daemon memory
  /// tracks the ACTIVE population, not the total ever served.
  void release(SessionId id);

  /// Blocks until every queued chunk and finish has run. Rethrows the
  /// first session exception if config.rethrow_on_drain is set.
  void drain();

  [[nodiscard]] Session& session(SessionId id);
  [[nodiscard]] SessionHealth health(SessionId id) const;
  [[nodiscard]] std::size_t quarantined_count() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t jobs() const;

 private:
  struct Slot {
    std::unique_ptr<Session> session;  ///< null once released
    std::deque<std::vector<Real>> queue;
    bool finish_pending{false};
    bool active{false};  ///< a worker is currently running this strand
    bool quarantined{false};
    std::string error;
    std::uint64_t discarded{0};
    /// Watchdog view of the in-flight call: run start in steady-clock
    /// ticks (running == true while a chunk/finish executes).
    bool running{false};
    std::chrono::steady_clock::time_point run_start{};
    bool stall_flagged{false};
  };

  Config config_;
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;
  std::condition_variable cv_idle_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::exception_ptr first_error_;
  std::thread watchdog_;
  std::condition_variable cv_watchdog_;
  bool stopping_{false};

  void schedule_locked(SessionId id);
  void run_strand(SessionId id);
  void quarantine(Slot& slot, std::exception_ptr err, const char* what);
  void watchdog_loop();
};

}  // namespace datc::runtime
