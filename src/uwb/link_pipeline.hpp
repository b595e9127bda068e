#pragma once
// The batch TX -> RX link: one StreamingRadio (uwb/streaming_link.hpp)
// fed a whole event stream, then flushed. The batch engine's private
// radios (runtime::PipelineRunner::run_channel) run through these
// functions, and the streaming sessions run the same radio chunk by
// chunk, so the paths cannot drift. run_aer_over_link stays staged
// (modulate_aer -> propagate -> UwbReceiver): it is the reference the
// shared-AER session is checked against.

#include <cstdint>
#include <vector>

#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace datc::uwb {

struct LinkConfig {
  ModulatorConfig modulator{};
  ChannelConfig channel{};
  EnergyDetectorConfig detector{};
  std::uint64_t seed{7};
};

/// The radio of D-ATC packets over `link`: marker, then `address_bits`
/// AER address slots (0 = a private link), then `code_bits` code slots.
[[nodiscard]] RadioPlan datc_radio(const LinkConfig& link, unsigned code_bits,
                                   unsigned address_bits = 0);

/// The radio of plain ATC over `link`: one marker pulse per event.
[[nodiscard]] RadioPlan atc_radio(const LinkConfig& link);

/// One TX -> RX pass over the UWB link; events_rx is in time order.
struct LinkRun {
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  core::EventStream events_rx;
  DecodeStats decode{};
};

/// The whole stream through one radio of `plan` seeded `seed`, flushed.
[[nodiscard]] LinkRun run_over_link(const core::EventStream& tx,
                                    const RadioPlan& plan,
                                    std::uint64_t seed);

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
