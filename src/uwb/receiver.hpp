#pragma once
// Non-coherent energy-detection receiver (the low-complexity RX class of
// refs [7],[11]). Detection statistics follow the standard energy-detector
// analysis: the test statistic is chi-square with 2BT degrees of freedom
// under noise, noncentral under pulse-plus-noise; both are treated with
// the usual Gaussian approximation. Packet recovery then re-assembles
// D-ATC events from marker + OOK bit slots, with honest failure modes
// (missed markers, bit errors, stray detections promoted to markers).
//
// Frame closure lives in one place, uwb::FrameAssembler
// (uwb/streaming_link.hpp): the streaming radio feeds it detected pulse
// times, and UwbReceiver decodes whole pulse trains through
// StreamingUwbReceiver, which feeds the same assembler. UwbReceiver and
// the staged modulate / propagate functions are the reference the radio
// is checked against.

#include <cstdint>
#include <memory>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"

namespace datc::uwb {

struct EnergyDetectorConfig {
  Real integration_window_s{4e-9};
  Real bandwidth_hz{2e9};
  Real false_alarm_prob{1e-6};  ///< per bit-slot decision
};

/// Pd for a single pulse of energy `pulse_energy_v2s` (V^2 s across 50 ohm)
/// against the configured noise floor.
[[nodiscard]] Real detection_probability(const EnergyDetectorConfig& det,
                                         const ChannelConfig& ch,
                                         Real pulse_energy_v2s);

/// Energy-independent part of the detection statistic, hoisted so the
/// per-pulse hot path skips the iterative Q-inverse threshold solve (the
/// dominant cost of detection_probability). pd() evaluates the identical
/// expression sequence as detection_probability for the same det/ch, so
/// results are bit-identical; detection_probability itself delegates here.
class DetectionModel {
 public:
  DetectionModel(const EnergyDetectorConfig& det, const ChannelConfig& ch);

  /// Pd for one pulse of energy `pulse_energy_v2s` (V^2 s across 50 ohm).
  [[nodiscard]] Real pd(Real pulse_energy_v2s) const;

 private:
  Real n0_;     ///< one-sided noise PSD (W/Hz) incl. the RX noise figure
  Real m_;      ///< chi-square degrees of freedom, 2BT
  Real gamma_;  ///< CFAR threshold for the configured false-alarm rate
};

/// Upper-tail Gaussian probability Q(x) and its inverse (for thresholds).
[[nodiscard]] Real normal_q(Real x);
[[nodiscard]] Real normal_q_inv(Real p);

struct DecodeStats {
  std::size_t pulses_in{0};
  std::size_t pulses_detected{0};
  std::size_t packets_decoded{0};
  std::size_t code_bit_ones_missed{0};  ///< transmitted 1-bits not detected
  std::size_t false_alarm_bits{0};      ///< 0-slots read as 1
};

/// Field-wise difference `after - before`: the per-call view of a
/// cumulative counter snapshot.
[[nodiscard]] inline DecodeStats decode_stats_delta(const DecodeStats& after,
                                                    const DecodeStats& before) {
  return DecodeStats{after.pulses_in - before.pulses_in,
                     after.pulses_detected - before.pulses_detected,
                     after.packets_decoded - before.packets_decoded,
                     after.code_bit_ones_missed - before.code_bit_ones_missed,
                     after.false_alarm_bits - before.false_alarm_bits};
}

/// Bit-slot timing tolerance, a fraction of the symbol period Ts: a
/// detected pulse within a quarter slot of a code slot claims that slot.
inline constexpr Real kSlotTolerance = 0.25;
// The slot decode rounds dt * (1 / Ts), which can differ from dt / Ts by
// a few ulps and so round to the other slot only near a half slot. A
// tolerance below half a slot claims no pulse there with either slot.
static_assert(kSlotTolerance < 0.5,
              "slot decode needs the claim tolerance below half a slot");

struct UwbReceiverConfig {
  EnergyDetectorConfig detector{};
  ModulatorConfig modulator{};  ///< packet layout (must match the TX)
  /// Width of the AER address field between the marker and the code bits
  /// (0 = single-channel D-ATC frames). Must match the TX framing
  /// (modulate_aer); decoded addresses land in core::Event::channel.
  unsigned address_bits{0};
  bool decode_codes{true};      ///< false for plain ATC (marker-only) links
  /// Memoise detection_probability per distinct pulse energy. The detection
  /// statistic depends only on the received energy, and every pulse of a
  /// packet train shares one amplitude, so caching skips the iterative
  /// Q-inverse per pulse (~25x cheaper stage 1) while drawing the exact
  /// same Rng sequence — decoded streams are bit-identical either way
  /// (asserted in tests). Off by default: the uncached path is the
  /// reference the paper-reproduction benches time.
  bool cache_detection{false};
};

class StreamingUwbReceiver;

class UwbReceiver {
 public:
  UwbReceiver(const UwbReceiverConfig& config, const ChannelConfig& channel,
              dsp::Rng rng);
  ~UwbReceiver();
  UwbReceiver(UwbReceiver&&) noexcept;
  UwbReceiver& operator=(UwbReceiver&&) noexcept;

  /// Detects pulses and reassembles events from one complete train. For
  /// code-carrying links a detected pulse not claimed by an open packet
  /// starts a new packet. Repeated calls decode independent trains with a
  /// continuing Rng; stats() reports the last call, cumulative_stats()
  /// the running totals across every call.
  [[nodiscard]] core::EventStream decode(const PulseTrain& rx);

  /// Statistics of the most recent decode() call.
  [[nodiscard]] const DecodeStats& stats() const { return last_; }
  /// Running totals across every decode() call since construction.
  [[nodiscard]] const DecodeStats& cumulative_stats() const;

 private:
  std::unique_ptr<StreamingUwbReceiver> core_;
  DecodeStats last_;
};

}  // namespace datc::uwb
