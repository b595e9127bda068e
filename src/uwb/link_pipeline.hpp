#pragma once
// The batch TX -> RX link stage: modulate an event stream, propagate it
// through the channel, decode with the energy-detection receiver. The
// batch engine's private radios (runtime::PipelineRunner::run_channel)
// run through these functions, and so does the streaming parity
// reference; the streaming sessions derive their Rng streams and
// receiver exactly as they do, so the paths cannot drift.

#include <cstdint>
#include <vector>

#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

struct LinkConfig {
  ModulatorConfig modulator{};
  ChannelConfig channel{};
  EnergyDetectorConfig detector{};
  std::uint64_t seed{7};
};

/// One TX -> RX pass over the UWB link: modulate the packet stream,
/// propagate, decode with an energy-detection receiver (per-pulse
/// detection probability memoised, bit-identical to the uncached
/// receiver), sort by time.
struct LinkRun {
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  core::EventStream events_rx;
  DecodeStats decode{};
};

/// D-ATC packets: marker plus `code_bits` code slots per event.
[[nodiscard]] LinkRun run_datc_over_link(const core::EventStream& tx,
                                         const LinkConfig& link,
                                         unsigned code_bits);

/// ATC: one marker pulse per event, no code slots.
[[nodiscard]] LinkRun run_atc_over_link(const core::EventStream& tx,
                                        const LinkConfig& link);

/// Shared-medium AER link: N encoders contend for ONE radio.
struct SharedAerConfig {
  AerConfig aer{};            ///< arbiter parameters (address width, slot)
  bool cache_detection{true}; ///< memoised detection (bit-identical)
};

/// One pass of the arbitrated link:
/// per-channel TX streams -> AER merge -> modulate (marker + address +
/// code slots) -> channel -> address-aware decode -> demux per channel.
struct SharedAerRun {
  core::EventStream merged_tx;  ///< arbitrated stream offered to the radio
  core::EventStream merged_rx;  ///< decoded stream
  std::vector<core::EventStream> per_channel_rx;
  AerStats arbiter{};           ///< merge-side arbitration stats
  AerStats demux{};             ///< split-side stats (invalid addresses)
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  DecodeStats decode{};
};

/// The batch reference that the streaming shared-AER session is checked
/// against (sim::check_shared_stream_parity).
[[nodiscard]] SharedAerRun run_aer_over_link(
    const std::vector<core::EventStream>& tx_channels, const LinkConfig& link,
    const SharedAerConfig& shared, unsigned code_bits);

}  // namespace datc::uwb
