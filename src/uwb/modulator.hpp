#pragma once
// Event-to-pulse modulator. ATC radiates one bare pulse per event; D-ATC
// radiates the Fig. 2E packet: a marker pulse followed by the Set_Vth code
// in OOK bit slots. Pulses are represented symbolically (time, amplitude);
// waveform rendering is only needed for PSD/mask analysis. The streaming
// radio (uwb/streaming_link.hpp) emits the same slot layout as bare times
// without building a PulseTrain; these staged functions are its
// reference.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "dsp/types.hpp"
#include "uwb/pulse.hpp"

namespace datc::uwb {

struct PulseEmission {
  Real time_s{0.0};
  Real amplitude_v{0.0};
  std::uint32_t packet_id{0};  ///< which event emitted it (diagnostics)
  bool is_marker{false};
};

class PulseTrain {
 public:
  void add(const PulseEmission& p) { pulses_.push_back(p); }
  void reserve(std::size_t n) { pulses_.reserve(n); }
  [[nodiscard]] const std::vector<PulseEmission>& pulses() const {
    return pulses_;
  }
  [[nodiscard]] std::size_t size() const { return pulses_.size(); }
  [[nodiscard]] bool empty() const { return pulses_.empty(); }
  /// Stable sort by time (reorder_by_time); one read-only pass when the
  /// train is already in order.
  void sort_by_time();

  /// Renders the train into a sampled waveform over [t0, t1) at fs_hz.
  /// Meant for short PSD-analysis windows — rendering 20 s at 20 GS/s is
  /// deliberately not supported (throws above `max_samples`).
  [[nodiscard]] dsp::TimeSeries render(const PulseShapeConfig& shape, Real t0,
                                       Real t1, Real fs_hz,
                                       std::size_t max_samples = 1u << 24) const;

 private:
  std::vector<PulseEmission> pulses_;
};

/// Stable in-place reorder by time_s; the result always equals
/// std::stable_sort by time_s. It runs as an insertion sort — one
/// read-only pass over input already in order, one move per inversion
/// otherwise — until 8 moves per pulse are spent, and finishes with
/// std::stable_sort past that budget. The budget bounds the time taken,
/// never the result. Returns true when the fallback ran.
[[nodiscard]] bool reorder_by_time(std::span<PulseEmission> pulses);
/// The same reorder over bare pulse times (the streaming radio's buffer).
[[nodiscard]] bool reorder_by_time(std::span<Real> times);

struct ModulatorConfig {
  PulseShapeConfig shape{};
  Real symbol_period_s{100e-9};  ///< bit-slot spacing inside a packet
  unsigned code_bits{4};         ///< threshold bits per D-ATC packet
  bool msb_first{true};
};

/// ATC: one marker pulse per event.
[[nodiscard]] PulseTrain modulate_atc(const core::EventStream& events,
                                      const ModulatorConfig& config);

/// D-ATC: marker + OOK code bits per event (1 + code_bits slots).
[[nodiscard]] PulseTrain modulate_datc(const core::EventStream& events,
                                       const ModulatorConfig& config);

/// Shared-medium AER framing: marker, then `address_bits` OOK slots
/// carrying the event's channel address, then the `code_bits` threshold
/// slots — `1 + address_bits + code_bits` slots per event, matching
/// aer_symbols_per_event. Bit order of both fields follows
/// `config.msb_first`. With address_bits == 0 this is modulate_datc.
[[nodiscard]] PulseTrain modulate_aer(const core::EventStream& events,
                                      const ModulatorConfig& config,
                                      unsigned address_bits);

/// Total on-air duration of one D-ATC packet.
[[nodiscard]] Real packet_duration_s(const ModulatorConfig& config);

/// Total on-air duration of one AER frame (marker + address + code).
[[nodiscard]] Real aer_frame_duration_s(const ModulatorConfig& config,
                                        unsigned address_bits);

}  // namespace datc::uwb
