#include "dsp/types.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"

#include <algorithm>
#include <cmath>

namespace datc::uwb {

namespace {

/// reorder_by_time's move budget per pulse. Jitter and overlapping frames
/// on a shared radio cost a few moves per pulse at most.
constexpr std::size_t kReorderMovesPerPulse = 8;

}  // namespace

bool reorder_by_time(std::span<PulseEmission> pulses) {
  const auto by_time = [](const PulseEmission& a, const PulseEmission& b) {
    return a.time_s < b.time_s;
  };
  const auto unsorted =
      std::is_sorted_until(pulses.begin(), pulses.end(), by_time);
  if (unsorted == pulses.end()) return false;  // in order: nothing written
  const std::size_t n = pulses.size();
  std::size_t i = static_cast<std::size_t>(unsorted - pulses.begin());
  std::size_t budget = kReorderMovesPerPulse * n;
  for (; i < n; ++i) {
    if (!(pulses[i].time_s < pulses[i - 1].time_s)) continue;
    // Shift strictly later predecessors right; equal times stay ahead of
    // the inserted pulse, which is what makes the reorder stable.
    const PulseEmission p = pulses[i];
    std::size_t j = i;
    do {
      if (budget == 0) {
        // Parking the pulse here keeps a stable permutation of the input,
        // so the stable sort of it equals the stable sort of the input.
        pulses[j] = p;
        std::stable_sort(pulses.begin(), pulses.end(), by_time);
        return true;
      }
      pulses[j] = pulses[j - 1];
      --j;
      --budget;
    } while (j > 0 && p.time_s < pulses[j - 1].time_s);
    pulses[j] = p;
  }
  return false;
}

void PulseTrain::sort_by_time() { (void)reorder_by_time(pulses_); }

dsp::TimeSeries PulseTrain::render(const PulseShapeConfig& shape, Real t0,
                                   Real t1, Real fs_hz,
                                   std::size_t max_samples) const {
  dsp::require(t1 > t0 && fs_hz > 0.0, "PulseTrain::render: bad window");
  const Real n_req = (t1 - t0) * fs_hz;
  dsp::require(n_req <= static_cast<Real>(max_samples),
               "PulseTrain::render: window too large to render");
  const auto n = static_cast<std::size_t>(std::llround(n_req));
  std::vector<Real> out(n, 0.0);
  const Real support = 6.0 * shape.tau_s;
  for (const auto& p : pulses_) {
    if (p.time_s + support < t0 || p.time_s - support > t1) continue;
    const auto i_lo = static_cast<std::ptrdiff_t>(
        std::floor((p.time_s - support - t0) * fs_hz));
    const auto i_hi = static_cast<std::ptrdiff_t>(
        std::ceil((p.time_s + support - t0) * fs_hz));
    for (std::ptrdiff_t i = std::max<std::ptrdiff_t>(i_lo, 0);
         i <= i_hi && i < static_cast<std::ptrdiff_t>(n); ++i) {
      const Real t = t0 + static_cast<Real>(i) / fs_hz;
      PulseShapeConfig unit = shape;
      unit.amplitude_v = 1.0;
      out[static_cast<std::size_t>(i)] +=
          p.amplitude_v * pulse_value(unit, t - p.time_s);
    }
  }
  return dsp::TimeSeries(std::move(out), fs_hz);
}

PulseTrain modulate_atc(const core::EventStream& events,
                        const ModulatorConfig& config) {
  PulseTrain train;
  train.reserve(events.size());
  std::uint32_t id = 0;
  for (const auto& e : events.events()) {
    train.add(PulseEmission{e.time_s, config.shape.amplitude_v, id++,
                            /*is_marker=*/true});
  }
  return train;
}

namespace {

/// Appends the OOK pulses of one `width`-bit field whose first slot is
/// `first_slot` (slot 0 is the marker).
void emit_field(PulseTrain& train, const ModulatorConfig& config, Real t0,
                std::uint32_t value, unsigned width, unsigned first_slot,
                std::uint32_t id) {
  for (unsigned b = 0; b < width; ++b) {
    const unsigned bit_index = config.msb_first ? width - 1 - b : b;
    if (((value >> bit_index) & 1u) == 0) continue;  // OOK: silence for 0
    const Real t =
        t0 + static_cast<Real>(first_slot + b) * config.symbol_period_s;
    train.add(PulseEmission{t, config.shape.amplitude_v, id,
                            /*is_marker=*/false});
  }
}

}  // namespace

namespace detail {

void emit_frame(PulseTrain& train, const ModulatorConfig& config,
                unsigned address_bits, const core::Event& event,
                std::uint32_t id) {
  // With no address field the frame is a plain D-ATC packet; the event's
  // channel tag is simply not transmitted (modulate_datc semantics).
  dsp::require(address_bits == 0 || address_bits == 16 ||
                   event.channel < (std::uint32_t{1} << address_bits),
               "modulate_aer: event address outside the address space");
  train.add(PulseEmission{event.time_s, config.shape.amplitude_v, id,
                          /*is_marker=*/true});
  emit_field(train, config, event.time_s, event.channel, address_bits,
             /*first_slot=*/1, id);
  emit_field(train, config, event.time_s, event.vth_code, config.code_bits,
             /*first_slot=*/1 + address_bits, id);
}

}  // namespace detail

PulseTrain modulate_datc(const core::EventStream& events,
                         const ModulatorConfig& config) {
  dsp::require(config.symbol_period_s > 0.0,
               "modulate_datc: symbol period must be positive");
  dsp::require(config.code_bits >= 1 && config.code_bits <= 8,
               "modulate_datc: code bits must lie in [1,8]");
  PulseTrain train;
  // Worst case one marker plus all code bits set per event.
  train.reserve(events.size() * (1 + config.code_bits));
  std::uint32_t id = 0;
  for (const auto& e : events.events()) {
    detail::emit_frame(train, config, /*address_bits=*/0, e, id);
    ++id;
  }
  return train;
}

PulseTrain modulate_aer(const core::EventStream& events,
                        const ModulatorConfig& config,
                        unsigned address_bits) {
  dsp::require(config.symbol_period_s > 0.0,
               "modulate_aer: symbol period must be positive");
  dsp::require(config.code_bits >= 1 && config.code_bits <= 8,
               "modulate_aer: code bits must lie in [1,8]");
  dsp::require(address_bits <= 16,
               "modulate_aer: address bits must lie in [0,16]");
  PulseTrain train;
  train.reserve(events.size() * (1 + address_bits + config.code_bits));
  std::uint32_t id = 0;
  for (const auto& e : events.events()) {
    detail::emit_frame(train, config, address_bits, e, id);
    ++id;
  }
  return train;
}

Real packet_duration_s(const ModulatorConfig& config) {
  return static_cast<Real>(config.code_bits + 1) * config.symbol_period_s;
}

Real aer_frame_duration_s(const ModulatorConfig& config,
                          unsigned address_bits) {
  return static_cast<Real>(1 + address_bits + config.code_bits) *
         config.symbol_period_s;
}

}  // namespace datc::uwb
