#pragma once
// The streaming radio: one pass from events to decoded frames. It takes
// event chunks (D-ATC packets, AER frames or bare ATC markers) and emits
// each frame's pulse times, applies the channel (gain, erasures, jitter)
// in TX order, holds back only the pulses a later TX pulse could still
// jitter ahead of, detects the rest in time order and closes frames.
//
// One materialisation per pulse: a received time (one Real) in the
// radio's air buffer, and, once detected, the same time in the frame
// assembler until its frame closes. No PulseTrain is built, and the
// per-pulse amplitude is gone: every pulse of a link leaves with the
// shape's amplitude and crosses the same path loss, so the detection
// probability is one number per link (RadioPlan), computed once.
//
// The staged functions (modulate_datc / modulate_aer / modulate_atc ->
// propagate -> UwbReceiver) stay as the reference the radio reproduces
// bit for bit, for ANY chunking of the same events. Two disciplines make
// that hold:
//
//  1. Watermarks. Each push carries a TX watermark promising that no
//     future event has a timestamp below it. A received pulse is released
//     only once no future pulse can sort before it, and a frame closes
//     only once no future pulse can land in its window, so chunk
//     boundaries never change what is emitted.
//
//  2. Split Rng streams, derived from the seed exactly as the staged link
//     derives them: the receiver stream is forked off first, the channel
//     draws from what is left, and the receiver splits its stream into
//     per-pulse detection draws (time order) and per-frame false-alarm
//     draws (frame order). Each stream's order is chunk-invariant.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

/// Frame reassembly from detected pulse times: the one frame closure of
/// every receive path (StreamingRadio, and StreamingUwbReceiver beneath
/// UwbReceiver). A detected pulse not claimed by an open frame opens the
/// next one as its marker; a frame closes once the watermark has passed
/// its last bit slot plus the slot tolerance. Plain ATC links
/// (`decode_codes` false) emit every detected pulse as an event.
class FrameAssembler {
 public:
  /// `rng` is the false-alarm stream, drawn in frame order.
  FrameAssembler(const UwbReceiverConfig& config, dsp::Rng rng);

  /// Takes the next detected pulse; pulses arrive in time order.
  void accept(Real time_s, core::EventStream& out) {
    if (config_.decode_codes) {
      pending_.push_back(time_s);
    } else {
      out.add(time_s, 0);
    }
  }

  /// Promises that no future pulse has time_s < watermark, and appends
  /// every frame that promise closes to `out`, in marker-time order.
  void advance(Real watermark, core::EventStream& out);

  /// Every future event has time_s >= this bound.
  [[nodiscard]] Real event_time_watermark() const;

  /// Detected pulses awaiting frame closure.
  [[nodiscard]] std::size_t pending() const {
    return pending_.size() - head_;
  }
  [[nodiscard]] std::size_t pending_capacity() const {
    return pending_.capacity();
  }

  /// Forgets the stream position for a new independent train; requires
  /// every frame closed. The false-alarm stream and the stats carry on.
  void reset_stream();

  /// Receive-side counters. The assembler counts frames and false-alarm
  /// bits; the detection stage in front of it adds its pulse counts.
  [[nodiscard]] DecodeStats& stats() { return stats_; }
  [[nodiscard]] const DecodeStats& stats() const { return stats_; }

 private:
  UwbReceiverConfig config_;
  dsp::Rng rng_;
  Real inv_ts_;  ///< 1 / symbol period, the slot decode's scale
  DecodeStats stats_;
  /// Detected, unclaimed pulse times in time order. The live window is
  /// [head_, size): frame closure advances the head instead of erasing
  /// from the front, and the dead prefix is reclaimed lazily.
  std::vector<Real> pending_;
  std::size_t head_{0};
  Real watermark_;

  void close_front_frame(core::EventStream& out);
};

/// Energy-detection receiver over received pulse trains, fed in chunks:
/// per-pulse detection (energy from each pulse's amplitude) in front of a
/// FrameAssembler. The batch UwbReceiver decodes whole trains through it;
/// the pulses must arrive globally time-sorted across calls.
class StreamingUwbReceiver {
 public:
  StreamingUwbReceiver(const UwbReceiverConfig& config,
                       const ChannelConfig& channel, dsp::Rng rng);

  /// Decodes the next chunk; `watermark` promises no future pulse has
  /// time_s < watermark. Completed events are appended to `out`.
  void decode_chunk(const PulseTrain& rx, Real watermark,
                    core::EventStream& out);

  /// Closes every open frame (end of stream) and appends its events.
  void flush(core::EventStream& out);

  /// Cumulative statistics over every chunk decoded so far.
  [[nodiscard]] const DecodeStats& stats() const { return frames_.stats(); }

  /// Forgets the stream position for a new independent train; Rng
  /// streams and cumulative stats carry on.
  void reset_stream() { frames_.reset_stream(); }

 private:
  UwbReceiverConfig config_;
  dsp::Rng rng_detect_;   ///< per-pulse detection draws, pulse order
  DetectionModel model_;  ///< threshold solve hoisted out of the pulse loop
  Real unit_pulse_energy_;  ///< energy of the shape at 1 V peak
  Real cached_energy_{-1.0};
  Real cached_pd_{0.0};
  std::vector<Real> scratch_amp_;     ///< SoA chunk amplitudes, reused
  std::vector<Real> scratch_energy_;  ///< SoA chunk energies, reused
  FrameAssembler frames_;
};

/// What every radio of one link configuration shares: the frame layout
/// and detector (`receiver`; `decode_codes` false selects bare ATC
/// markers), the channel, and the detection probability of the one
/// received pulse amplitude. Building it costs the unit-pulse energy
/// integral and the CFAR threshold solve, so a batch runner builds one
/// and seeds a radio per channel from it.
struct RadioPlan {
  RadioPlan(const UwbReceiverConfig& receiver, const ChannelConfig& channel);

  UwbReceiverConfig receiver;
  ChannelConfig channel;
  Real pd;  ///< detection probability of every received pulse
};

/// Events to decoded frames in one pass (see the file comment). Draws
/// from the Rng streams the staged link derives from `seed`, so a radio
/// fed any chunking of an event stream and flushed reproduces
/// modulate -> propagate -> UwbReceiver::decode on the whole stream.
///
/// Jitter is Gaussian (unbounded), so the hold-back slack is 12 sigma: a
/// larger excursion would break parity with probability ~1e-33 per pulse,
/// and exactly never on a jitter-free channel. The held pulses are in
/// time order and new ones are appended in TX order, so a stable reorder
/// by time (reorder_by_time: insertion, one move per inversion) of the
/// live buffer restores the staged order (pulses of one link share one
/// amplitude, so a time is all the receiver reads of a pulse); a release
/// that exceeds the move budget sorts instead and is counted in
/// reorder_fallbacks().
class StreamingRadio {
 public:
  StreamingRadio(const RadioPlan& plan, std::uint64_t seed);

  /// Transmits the next events (none earlier than the TX watermark
  /// already given) and advances the TX watermark: every future event has
  /// time_s >= tx_watermark. Decoded events that are final are appended
  /// to `out` in time order. A time-ordered chunk is released block by
  /// block as it is transmitted; any other chunk once, at its end.
  void push(std::span<const core::Event> events, Real tx_watermark,
            core::EventStream& out);

  /// End of stream: releases every held pulse and closes every frame.
  void flush(core::EventStream& out);

  /// Every future decoded event has time_s >= this bound.
  [[nodiscard]] Real event_time_watermark() const {
    return frames_.event_time_watermark();
  }
  [[nodiscard]] const DecodeStats& stats() const { return frames_.stats(); }
  [[nodiscard]] std::size_t pulses_tx() const { return pulses_tx_; }
  [[nodiscard]] std::size_t erased() const { return erased_; }
  /// Received pulses held back for reordering.
  [[nodiscard]] std::size_t buffered() const { return air_.size() - head_; }
  /// Detected pulses awaiting frame closure.
  [[nodiscard]] std::size_t pending() const { return frames_.pending(); }
  /// Releases whose reorder ran past its move budget and sorted.
  [[nodiscard]] std::size_t reorder_fallbacks() const {
    return reorder_fallbacks_;
  }
  /// Bytes held in the radio's buffers (capacity, not live size).
  [[nodiscard]] std::size_t buffered_bytes() const;

 private:
  struct Rngs {
    dsp::Rng channel;
    dsp::Rng detect;
    dsp::Rng frame;
  };
  StreamingRadio(const RadioPlan& plan, Rngs rngs);

  RadioPlan plan_;
  dsp::Rng rng_channel_;  ///< erasure and jitter draws, TX order
  dsp::Rng rng_detect_;   ///< detection draws, release (time) order
  FrameAssembler frames_;
  Real jitter_slack_;
  std::vector<Real> air_;  ///< received times; live window [head_, size)
  std::size_t head_{0};
  std::vector<Real> jitter_;  ///< one block's jitter draws, reused
  Real release_watermark_;
  std::size_t pulses_tx_{0};
  std::size_t erased_{0};
  std::size_t reorder_fallbacks_{0};

  void transmit(std::span<const core::Event> events);
  void release_below(Real threshold, core::EventStream& out);
};

}  // namespace datc::uwb
