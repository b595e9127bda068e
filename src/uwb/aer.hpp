#pragma once
// Address-Event Representation framing (refs [9],[12]): multiple sEMG
// channels share one IR-UWB link by prepending an address to each event.
// One arbiter (AerArbiter) enforces a minimum packet spacing on air;
// colliding events are delayed (queued) or dropped beyond a configurable
// latency budget — the trade-off the multi-channel glove system of ref.
// [12] navigates. The batch merge and the streaming shared-AER session
// both run it. One ledger (AerLedger) matches the decoded frames back to
// the sent events, counting misrouted and corrupted frames.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/types.hpp"

namespace datc::uwb {

using dsp::Real;

struct AerConfig {
  unsigned address_bits{3};       ///< up to 8 electrodes, as in the dataset
  Real min_spacing_s{1e-3};       ///< one packet per UWB slot
  Real max_queue_delay_s{20e-3};  ///< events later than this are dropped
};

struct AerStats {
  std::size_t in_events{0};
  std::size_t sent{0};
  std::size_t dropped{0};
  Real max_delay_s{0.0};
  /// Demux-side: events whose decoded address lies outside [0,
  /// num_channels) — address-field bit errors on a noisy link. They are
  /// excluded from the per-channel outputs but no longer vanish silently.
  std::size_t invalid_address{0};
};

/// The one AER arbiter, fed incrementally. Each channel has a FIFO of
/// queued events; a binary min-heap over the channel fronts, keyed on
/// (time_s, channel), picks the next event in O(log channels), so equal
/// times (common: events sit on the DTC clock grid) go to the lower
/// channel and each channel keeps its FIFO order. Every popped event runs
/// the on-air recurrence: it leaves at max(time, next_free), or is dropped
/// once that delay exceeds `max_queue_delay_s`; a sent event holds the
/// air for `min_spacing_s`.
///
/// Requires `address_bits <= 16` (the width of core::Event::channel) and
/// `num_channels <= 2^address_bits` so no address can alias.
class AerArbiter {
 public:
  AerArbiter(const AerConfig& config, std::size_t num_channels);

  /// Queues the channel's next events. They must be time-ordered and no
  /// earlier than the events already pushed to that channel.
  void push(std::size_t channel, std::span<const core::Event> events);

  /// Arbitrates every queued event with time_s < watermark, in (time,
  /// channel, FIFO) order, and appends the sent ones to `out` (send
  /// time, vth code, channel address). The caller promises no event
  /// pushed later has time_s < watermark.
  void pop_below(Real watermark, core::EventStream& out);

  /// Every event sent from now on leaves the air at or after this time.
  [[nodiscard]] Real next_free() const { return next_free_; }
  [[nodiscard]] const AerStats& stats() const { return stats_; }

 private:
  struct Queue {
    std::vector<core::Event> events;  ///< live window is [head, size)
    std::size_t head{0};
    Real last_time{-std::numeric_limits<Real>::infinity()};
  };
  struct Front {
    Real time_s;
    std::uint32_t channel;
  };

  AerConfig config_;
  std::vector<Queue> queues_;
  std::vector<Front> heap_;  ///< one entry per non-empty queue
  Real next_free_{-1.0};
  AerStats stats_{};

  /// Heap order: earlier time first, equal times to the lower channel.
  static bool before(const Front& a, const Front& b);
  void sift_down(std::size_t i);
  void sift_up(std::size_t i);
};

/// TX <-> RX accounting of one shared AER link.
struct AerLedgerCounts {
  std::size_t matched{0};         ///< decoded frames matched to a sent event
  std::size_t address_errors{0};  ///< matched, but to another channel
  std::size_t code_errors{0};     ///< matched, right channel, wrong code
  std::size_t spurious{0};        ///< decoded frames with no sent counterpart

  friend bool operator==(const AerLedgerCounts&,
                         const AerLedgerCounts&) = default;
};

/// Greedy two-pointer match of the decoded frames against the sent
/// (arbitrated) events, fed incrementally. Each decoded frame, in time
/// order, takes the oldest unmatched sent event within `window_s` of it;
/// older sent events are passed over for good. The window is half the
/// arbiter spacing, or half the frame airtime when the spacing is 0: sent
/// events are at least that far apart, so each matches at most one frame.
///
/// A frame is matched only once the sent watermark has passed its time
/// plus the window, so the counts equal the one-pass match over the whole
/// streams for any chunking.
class AerLedger {
 public:
  AerLedger(const AerConfig& config, Real frame_duration_s);

  /// Appends sent events (time-ordered, no earlier than those already
  /// pushed) and decoded frames (likewise).
  void push_sent(std::span<const core::Event> sent);
  void push_decoded(std::span<const core::Event> decoded);

  /// Settles every frame that no future sent event can match: every event
  /// sent from now on has time_s >= `sent_watermark`, and every frame
  /// decoded from now on has time_s >= `decoded_watermark`. Infinity for
  /// both settles everything.
  void advance(Real sent_watermark, Real decoded_watermark);

  [[nodiscard]] const AerLedgerCounts& counts() const { return counts_; }

 private:
  Real window_s_;
  std::vector<core::Event> sent_;  ///< unmatched window is [sent_head_, size)
  std::size_t sent_head_{0};
  std::vector<core::Event> decoded_;  ///< unsettled window likewise
  std::size_t decoded_head_{0};
  AerLedgerCounts counts_{};
};

/// Merges per-channel event streams into one arbitrated AER stream:
/// every channel pushed into one AerArbiter, then popped to the end.
/// Events keep their vth codes; `channel` fields carry the address.
[[nodiscard]] core::EventStream aer_merge(
    const std::vector<core::EventStream>& channels, const AerConfig& config,
    AerStats* stats = nullptr);

/// Splits an AER stream back into per-channel streams (receiver side).
/// Events with an address >= num_channels are counted in
/// `stats->invalid_address` (when stats is given) instead of being
/// silently discarded.
[[nodiscard]] std::vector<core::EventStream> aer_split(
    const core::EventStream& merged, unsigned num_channels,
    AerStats* stats = nullptr);

/// Symbols per AER event: marker + address + code bits.
[[nodiscard]] std::size_t aer_symbols_per_event(const AerConfig& config,
                                                unsigned code_bits);

}  // namespace datc::uwb
