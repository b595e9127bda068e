#pragma once
// Shared-link evaluation sweep: N D-ATC encoders arbitrated onto ONE
// IR-UWB radio, swept over channel distance, detector false-alarm rate
// and channel count. Each grid point reports per-channel reconstruction
// correlation, dropped-event % (arbitration + air losses) and address
// error % — the numbers that decide whether the AER framing survives the
// link budget the paper's wireless claim needs. Backs the `datc
// link-sweep` CLI and bench_link (BENCH_link.json).

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/types.hpp"
#include "emg/evaluation.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"

namespace datc::sim {

struct LinkSweepConfig {
  LinkSweepConfig();            ///< sets the body-area link defaults below
  std::size_t channels{8};      ///< electrodes contending for the radio
  dsp::Real duration_s{5.0};    ///< synthesised EMG length per channel
  std::uint64_t emg_seed{500};  ///< per-channel recording seeds (+ index)
  dsp::Real gain_lo{0.16};      ///< electrode gain spread (log-spaced)
  dsp::Real gain_hi{0.85};
  /// Default span crosses the energy-detector cliff for the default pulse
  /// (0.1 V peak, 30 dB body-area reference loss): ~ transparent at
  /// 0.3 m, Pd ~ 0.95 at 0.7 m, lossy at 1.2 m.
  std::vector<dsp::Real> distances_m{0.3, 0.7, 1.2};
  std::vector<dsp::Real> false_alarm_probs{1e-6};
  /// Extra channel-count axis; empty means just {channels}. Counts larger
  /// than `channels` are rejected.
  std::vector<std::size_t> channel_counts{};
  uwb::SharedAerConfig shared{};
  emg::EvalConfig eval{};
  uwb::LinkConfig link{};  ///< base link; distance/pfa overwritten per point
  /// RX->TX event matching window for the drop/address-error accounting;
  /// <= 0 selects half the arbiter slot (unique match per on-air event).
  dsp::Real match_window_s{0.0};
};

struct LinkSweepPoint {
  dsp::Real distance_m{0.0};
  dsp::Real false_alarm_prob{0.0};
  std::size_t channels{0};
  // Event accounting across the shared link.
  std::size_t events_offered{0};   ///< encoder output over all channels
  std::size_t events_sent{0};      ///< survived arbitration (on air)
  std::size_t events_decoded{0};   ///< frames the receiver reassembled
  std::size_t events_matched{0};   ///< decoded frames matched to a TX event
  std::size_t address_errors{0};   ///< matched but demuxed to wrong channel
  std::size_t code_errors{0};      ///< matched, right channel, wrong code
  std::size_t spurious_events{0};  ///< decoded frames with no TX counterpart
  dsp::Real dropped_event_pct{0.0};  ///< offered events that never matched
  dsp::Real address_error_pct{0.0};  ///< of matched events
  // Reconstruction quality per channel.
  dsp::Real mean_correlation_pct{0.0};
  dsp::Real min_correlation_pct{0.0};
  uwb::AerStats arbiter{};
  uwb::AerStats demux{};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
};

struct LinkSweepResult {
  std::vector<LinkSweepPoint> points;
};

[[nodiscard]] LinkSweepResult run_link_sweep(const LinkSweepConfig& config);

/// Aligned text table of the sweep grid (one row per point).
[[nodiscard]] std::string link_sweep_table(const LinkSweepResult& result);

/// JSON report (config echo + per-point records); returns false on I/O
/// failure. This is the BENCH_link.json schema CI gates on.
[[nodiscard]] bool write_link_sweep_json(const std::string& path,
                                         const LinkSweepConfig& config,
                                         const LinkSweepResult& result);

}  // namespace datc::sim
