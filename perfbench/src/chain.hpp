#pragma once
// The stage-by-stage chain: the work PipelineRunner does, spelled out as
// one call per layer so each call can carry a span. Private radios mirror
// PipelineRunner::run_channel, the shared AER radio mirrors run_shared;
// outputs must be bit-identical to the runner's (checked by callers).

#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "uwb/aer.hpp"
#include "uwb/receiver.hpp"

namespace perfbench {

struct ChainChannel {
  std::size_t events_tx{0};
  std::size_t pulses_tx{0};      ///< private radio only
  std::size_t pulses_erased{0};  ///< private radio only
  std::size_t events_rx{0};
  datc::uwb::DecodeStats decode{};  ///< private radio only
  Real rx_correlation_pct{0.0};
  Real tx_correlation_pct{0.0};
  std::uint64_t rx_envelope_hash{0};
};

struct ChainResult {
  bool shared{false};
  std::vector<ChainChannel> channels;
  datc::uwb::AerStats arbiter{};  ///< shared radio only
  datc::uwb::AerStats demux{};    ///< shared radio only
  datc::uwb::DecodeStats decode{};  ///< summed over radios
  std::size_t samples_in{0};
  std::size_t frames_on_air{0};   ///< events handed to the modulator
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t recon_out{0};       ///< envelope samples reconstructed
};

/// Runs the factory's runner pipeline (its topology, its scoring) stage by
/// stage on the calling thread, with one span per layer call.
[[nodiscard]] ChainResult run_chain(
    const datc::config::PipelineFactory& factory,
    std::span<const datc::emg::Recording> recs, Tracer& tracer);

}  // namespace perfbench
