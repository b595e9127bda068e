#pragma once
// Streaming (chunked, bounded-memory) counterparts of the batch UWB link
// stages: event -> pulse modulation, channel propagation and packet
// decode. Every stage carries its state (packet ids, Rng streams, reorder
// and reassembly buffers) across calls and is bit-identical to its batch
// counterpart for ANY chunking of the same input — the property the
// streaming session layer (runtime/session.hpp) is built on.
//
// The bit-identicality hinges on two disciplines:
//
//  1. Watermarks. Each stage receives, along with its input chunk, a time
//     `watermark` promising that no future input item carries a timestamp
//     below it. Outputs are released only once they are provably final
//     (no future item can sort before them / land in their packet
//     window), so chunk boundaries can never change what is emitted.
//
//  2. Split Rng streams. The batch receiver used to draw all per-pulse
//     detection randoms, then all per-frame false-alarm randoms, from one
//     engine — an order no chunked execution can reproduce. The receiver
//     now derives two independent streams from its seed Rng (detection in
//     pulse order, false alarms in frame order); each stream's draw order
//     is chunk-invariant, so batch and streaming consume identical
//     sequences. UwbReceiver (uwb/receiver.hpp) is a thin batch wrapper
//     over this core, making the equivalence hold by construction.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

/// Chunked event -> pulse modulation (D-ATC packets, optionally with an
/// AER address field). Stateless except for the diagnostic packet-id
/// counter; concatenating the chunk outputs reproduces modulate_datc /
/// modulate_aer on the concatenated events exactly.
class StreamingModulator {
 public:
  explicit StreamingModulator(const ModulatorConfig& config,
                              unsigned address_bits = 0);

  /// Appends this chunk's pulses to `train` (not cleared). Events must be
  /// the next contiguous slice of the stream, in time order.
  void modulate_chunk(std::span<const core::Event> events, PulseTrain& train);

  [[nodiscard]] std::size_t pulses_emitted() const { return pulses_; }
  [[nodiscard]] std::uint32_t packets_emitted() const { return next_id_; }
  [[nodiscard]] const ModulatorConfig& config() const { return config_; }
  [[nodiscard]] unsigned address_bits() const { return address_bits_; }

 private:
  ModulatorConfig config_;
  unsigned address_bits_{0};
  std::uint32_t next_id_{0};
  std::size_t pulses_{0};
};

/// Chunked channel propagation with carried Rng and a reorder buffer.
///
/// The batch `propagate` draws per-pulse randoms in TX (packet) order and
/// then stable-sorts the received train by time. This class draws in the
/// same order and releases received pulses in exactly that stable-sorted
/// order, holding back any pulse a future TX pulse could still sort
/// before. Jitter is Gaussian (unbounded), so the hold-back slack is a
/// 12-sigma bound: a larger excursion would break batch parity with
/// probability ~1e-33 per pulse — far below anything a test or a seed
/// sweep can encounter, and exactly zero for jitter-free channels.
///
/// The held-back remainder is already in time order and new pulses are
/// appended in TX order, so a stable reorder by time alone of the live
/// buffer (reorder_by_time: insertion, one move per inversion) equals
/// the batch order with no TX-sequence tie break. Overlapping frames on a
/// shared radio cost a few moves per pulse; a chunk that exceeds the
/// move budget falls back to a stable sort, counted in
/// reorder_fallbacks(). Released pulses advance a head index; the dead
/// prefix is reclaimed lazily.
class StreamingChannel {
 public:
  StreamingChannel(const ChannelConfig& config, dsp::Rng rng);

  /// Propagates the chunk's TX pulses (in packet order, exactly as the
  /// batch train is laid out) and advances the TX-time watermark: the
  /// caller promises every future TX pulse has time_s >= tx_watermark.
  /// Received pulses that are provably final are appended to `out`.
  void propagate_chunk(const PulseTrain& tx, Real tx_watermark,
                       PulseTrain& out);

  /// Releases everything still buffered (end of stream).
  void flush(PulseTrain& out);

  /// Every future released pulse has time_s >= this bound.
  [[nodiscard]] Real release_watermark() const { return release_watermark_; }
  [[nodiscard]] std::size_t erased() const { return erased_; }
  [[nodiscard]] std::size_t pulses_in() const { return pulses_in_; }
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() - head_;
  }
  /// Releases whose reorder ran past its move budget and stable-sorted.
  [[nodiscard]] std::size_t reorder_fallbacks() const {
    return reorder_fallbacks_;
  }

 private:
  ChannelConfig config_;
  dsp::Rng rng_;
  Real gain_;
  Real jitter_slack_;
  std::vector<PulseEmission> buffer_;  ///< live window is [head_, size)
  std::size_t head_{0};
  std::vector<Real> jitter_scratch_;  ///< batched jitter draws, reused
  std::size_t reorder_fallbacks_{0};
  std::size_t erased_{0};
  std::size_t pulses_in_{0};
  Real release_watermark_{0.0};

  void release_below(Real threshold, PulseTrain& out);
};

/// Incremental energy-detection receiver: keeps open-packet reassembly
/// state across decode_chunk() calls, so frames spanning a chunk boundary
/// are reassembled exactly as if the whole train had been decoded at
/// once. Statistics accumulate across calls (see DecodeStats).
class StreamingUwbReceiver {
 public:
  StreamingUwbReceiver(const UwbReceiverConfig& config,
                       const ChannelConfig& channel, dsp::Rng rng);

  /// Decodes the next chunk of received pulses. Pulses must arrive
  /// globally time-sorted across calls (StreamingChannel's output order);
  /// `watermark` promises no future pulse has time_s < watermark.
  /// Completed events are appended to `out` in marker-time order.
  void decode_chunk(const PulseTrain& rx, Real watermark,
                    core::EventStream& out);

  /// Closes every open frame (end of stream) and appends its events.
  void flush(core::EventStream& out);

  /// Cumulative statistics over every chunk decoded so far.
  [[nodiscard]] const DecodeStats& stats() const { return stats_; }

  /// Every future decoded event has time_s >= this bound.
  [[nodiscard]] Real event_time_watermark() const;

  /// Detected pulses awaiting frame closure.
  [[nodiscard]] std::size_t pending() const {
    return pending_.size() - pend_head_;
  }

  /// Forgets stream position (watermark, open frames) for a new
  /// independent train; Rng streams and cumulative stats carry on. The
  /// batch UwbReceiver calls this between decode() calls.
  void reset_stream();

 private:
  UwbReceiverConfig config_;
  ChannelConfig channel_;
  dsp::Rng rng_detect_;  ///< per-pulse detection draws, pulse order
  dsp::Rng rng_frame_;   ///< per-frame false-alarm draws, frame order
  DetectionModel model_;  ///< threshold solve hoisted out of the pulse loop
  DecodeStats stats_;
  Real unit_pulse_energy_;  ///< energy of the shape at 1 V peak
  Real inv_ts_;             ///< 1 / symbol period, the slot decode's scale
  Real cached_energy_{-1.0};
  Real cached_pd_{0.0};
  /// Detected, unclaimed pulses in time order. The live window is
  /// [pend_head_, size): frame closure advances the head instead of
  /// erasing from the front, and the dead prefix is reclaimed lazily.
  std::vector<PulseEmission> pending_;
  std::size_t pend_head_{0};
  std::vector<Real> scratch_amp_;     ///< SoA chunk amplitudes, reused
  std::vector<Real> scratch_energy_;  ///< SoA chunk energies, reused
  Real watermark_{0.0};
  bool saw_pulse_{false};

  void close_frames(Real closable_before, core::EventStream& out);
  void close_front_frame(core::EventStream& out);
};

}  // namespace datc::uwb
