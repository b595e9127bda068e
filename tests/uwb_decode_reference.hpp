#pragma once
// Test-only reference for the energy-detection receiver: a whole-train
// decode whose frame closure is the original close_front_frame body,
// kept in expression order, with its per-pulse division (nearest slot =
// llround(dt / Ts)) and its quarter-slot tolerance. Detection draws
// follow the receiver's two forked Rng streams (pulses, then frames), so
// the library's StreamingUwbReceiver, batch or chunked, must reproduce
// its events and DecodeStats exactly.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"

namespace datc::oracle {

struct ReferenceDecode {
  core::EventStream events;
  uwb::DecodeStats stats;
};

inline ReferenceDecode reference_uwb_decode(
    const uwb::UwbReceiverConfig& config, const uwb::ChannelConfig& channel,
    dsp::Rng rng, const uwb::PulseTrain& rx) {
  using dsp::Real;
  dsp::Rng rng_detect = rng.fork();
  dsp::Rng rng_frame = rng.fork();
  const uwb::DetectionModel model(config.detector, channel);
  uwb::PulseShapeConfig unit = config.modulator.shape;
  unit.amplitude_v = 1.0;
  const Real unit_energy = uwb::pulse_energy(unit, 64.0 / unit.tau_s);

  ReferenceDecode r;
  r.stats.pulses_in = rx.size();
  std::vector<uwb::PulseEmission> pending;
  for (const auto& p : rx.pulses()) {
    const Real energy = unit_energy * p.amplitude_v * p.amplitude_v;
    if (!rng_detect.chance(model.pd(energy))) continue;
    ++r.stats.pulses_detected;
    if (config.decode_codes) {
      pending.push_back(p);
    } else {
      r.events.add(p.time_s, 0);
    }
  }

  // One frame per oldest unclaimed pulse, until none is left.
  std::size_t head = 0;
  while (head < pending.size()) {
    const Real ts = config.modulator.symbol_period_s;
    const unsigned addr_bits = config.address_bits;
    const unsigned code_bits = config.modulator.code_bits;
    const unsigned bits = addr_bits + code_bits;
    const Real tol = 0.25 * ts;

    const Real t0 = pending[head].time_s;  // this frame's marker
    std::uint32_t bit = 0;
    std::size_t scan = head + 1;
    std::size_t keep = head + 1;
    while (scan < pending.size() &&
           pending[scan].time_s <= t0 + static_cast<Real>(bits) * ts + tol) {
      const Real dt = pending[scan].time_s - t0;
      const auto slot = static_cast<long>(std::llround(dt / ts));
      if (slot >= 1 && slot <= static_cast<long>(bits) &&
          std::abs(dt - static_cast<Real>(slot) * ts) <= tol) {
        bit |= 1u << static_cast<unsigned>(slot - 1);
      } else {
        pending[keep++] = pending[scan];
      }
      ++scan;
    }
    const std::size_t kept = keep - head - 1;
    std::copy_backward(
        pending.begin() + static_cast<std::ptrdiff_t>(head + 1),
        pending.begin() + static_cast<std::ptrdiff_t>(keep),
        pending.begin() + static_cast<std::ptrdiff_t>(scan));
    head = scan - kept;

    for (unsigned b = 0; b < bits; ++b) {
      if ((bit & (1u << b)) == 0 &&
          rng_frame.chance(config.detector.false_alarm_prob)) {
        bit |= 1u << b;
        ++r.stats.false_alarm_bits;
      }
    }
    const auto field = [&](unsigned first, unsigned width) {
      std::uint32_t v = 0;
      for (unsigned b = 0; b < width; ++b) {
        const unsigned bit_index =
            config.modulator.msb_first ? width - 1 - b : b;
        if ((bit & (1u << (first + b))) != 0) v |= (1u << bit_index);
      }
      return v;
    };
    const auto address = static_cast<std::uint16_t>(field(0, addr_bits));
    const auto code = static_cast<std::uint8_t>(field(addr_bits, code_bits));
    r.events.add(t0, code, address);
    ++r.stats.packets_decoded;
  }
  return r;
}

}  // namespace datc::oracle
