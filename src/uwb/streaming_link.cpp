#include "uwb/streaming_link.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "dsp/types.hpp"
#include "simd/dispatch.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

namespace {

constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();
constexpr Real kInf = std::numeric_limits<Real>::infinity();

/// Gaussian jitter is unbounded; 12 sigma bounds it for every practical
/// purpose (excursion probability ~1e-33 per pulse), and exactly for
/// jitter-free channels. See the StreamingRadio class comment.
constexpr Real kJitterSigmas = 12.0;

/// Events transmitted between two releases inside one push: bounds the
/// jitter block and keeps the air buffer cache-sized on whole streams.
constexpr std::size_t kBlockEvents = 256;

/// Energy of the modulator's pulse shape at 1 V peak, sampled finely
/// enough for an accurate integral.
Real unit_pulse_energy(const ModulatorConfig& modulator) {
  PulseShapeConfig unit = modulator.shape;
  unit.amplitude_v = 1.0;
  return pulse_energy(unit, 64.0 / unit.tau_s);
}

/// Reclaims a buffer's dead prefix [0, head) once it dominates the
/// buffer: amortised O(1) per item versus erasing from the front.
template <typename T>
void reclaim(std::vector<T>& buffer, std::size_t& head) {
  if (head > 1024 && head > buffer.size() / 2) {
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

/// Slot mask of one OOK field of `width` bits: bit b set when the field's
/// b-th slot carries a pulse (modulate_aer's bit order).
std::uint32_t field_slots(std::uint32_t value, unsigned width,
                          bool msb_first) {
  std::uint32_t mask = 0;
  for (unsigned b = 0; b < width; ++b) {
    const unsigned bit_index = msb_first ? width - 1 - b : b;
    mask |= ((value >> bit_index) & 1u) << b;
  }
  return mask;
}

}  // namespace

// ------------------------------------------------------- frame assembler

FrameAssembler::FrameAssembler(const UwbReceiverConfig& config, dsp::Rng rng)
    : config_(config),
      rng_(rng),
      inv_ts_(1.0 / config.modulator.symbol_period_s),
      watermark_(kNegInf) {
  dsp::require(config_.address_bits + config_.modulator.code_bits <= 24,
               "FrameAssembler: frame exceeds 24 bit slots");
}

void FrameAssembler::advance(Real watermark, core::EventStream& out) {
  watermark_ = std::max(watermark_, watermark);
  if (!config_.decode_codes) return;
  const Real ts = config_.modulator.symbol_period_s;
  const unsigned bits = config_.address_bits + config_.modulator.code_bits;
  const Real window =
      static_cast<Real>(bits) * ts + kSlotTolerance * ts;
  // A frame closes only when no future pulse can still land in its
  // window: markers open at the oldest unclaimed pulse.
  while (head_ < pending_.size() && pending_[head_] + window < watermark_) {
    close_front_frame(out);
  }
  reclaim(pending_, head_);
}

Real FrameAssembler::event_time_watermark() const {
  // The next decoded event is either the oldest pending (unclaimed) pulse
  // promoted to a marker, or a pulse not yet received.
  return head_ == pending_.size() ? watermark_
                                  : std::min(pending_[head_], watermark_);
}

void FrameAssembler::reset_stream() {
  dsp::require(head_ == pending_.size(),
               "FrameAssembler::reset_stream: open frames pending "
               "(flush first)");
  pending_.clear();
  head_ = 0;
  watermark_ = kNegInf;
}

void FrameAssembler::close_front_frame(core::EventStream& out) {
  const Real ts = config_.modulator.symbol_period_s;
  const unsigned addr_bits = config_.address_bits;
  const unsigned code_bits = config_.modulator.code_bits;
  const unsigned bits = addr_bits + code_bits;
  const Real tol = kSlotTolerance * ts;

  const std::size_t head = head_;
  const Real t0 = pending_[head];  // this frame's marker
  std::uint32_t bit = 0;  // addr_bits + code_bits <= 24, one register
  // Scan the in-window prefix (pending_ is time-sorted); pulses matching
  // a bit slot are claimed, off-slot pulses stay for the next frame.
  std::size_t scan = head + 1;  // head is the marker
  std::size_t keep = head + 1;
  while (scan < pending_.size() &&
         pending_[scan] <= t0 + static_cast<Real>(bits) * ts + tol) {
    const Real dt = pending_[scan] - t0;  // >= 0: time-sorted
    // Nearest slot without a division: dt * (1 / Ts) rounds to the slot
    // dt / Ts rounds to except near a half slot, where the tolerance
    // check rejects both (kSlotTolerance < 0.5), so the claims are the
    // same.
    const auto slot = static_cast<long>(dt * inv_ts_ + 0.5);
    if (slot >= 1 && slot <= static_cast<long>(bits) &&
        std::abs(dt - static_cast<Real>(slot) * ts) <= tol) {
      bit |= 1u << static_cast<unsigned>(slot - 1);
    } else {
      pending_[keep++] = pending_[scan];
    }
    ++scan;
  }
  // Advance the head past the marker and the claimed pulses: the kept
  // unclaimed block [head+1, keep) slides right against the untouched
  // tail at `scan`, so the live window stays contiguous and time-sorted
  // without erasing from the front.
  const std::size_t kept = keep - head - 1;
  std::copy_backward(pending_.begin() + static_cast<std::ptrdiff_t>(head + 1),
                     pending_.begin() + static_cast<std::ptrdiff_t>(keep),
                     pending_.begin() + static_cast<std::ptrdiff_t>(scan));
  head_ = scan - kept;

  // False alarms inside empty slots (frame-order Rng stream).
  for (unsigned b = 0; b < bits; ++b) {
    if ((bit & (1u << b)) == 0 &&
        rng_.chance(config_.detector.false_alarm_prob)) {
      bit |= 1u << b;
      ++stats_.false_alarm_bits;
    }
  }
  const auto field = [&](unsigned first, unsigned width) {
    std::uint32_t v = 0;
    for (unsigned b = 0; b < width; ++b) {
      const unsigned bit_index =
          config_.modulator.msb_first ? width - 1 - b : b;
      if ((bit & (1u << (first + b))) != 0) v |= (1u << bit_index);
    }
    return v;
  };
  const auto address = static_cast<std::uint16_t>(field(0, addr_bits));
  const auto code = static_cast<std::uint8_t>(field(addr_bits, code_bits));
  out.add(t0, code, address);
  ++stats_.packets_decoded;
}

// ------------------------------------------------------ pulse receiver

StreamingUwbReceiver::StreamingUwbReceiver(const UwbReceiverConfig& config,
                                           const ChannelConfig& channel,
                                           dsp::Rng rng)
    : config_(config),
      // Two independent streams forked from the seed engine: detection
      // draws in pulse order, false-alarm draws in frame order.
      rng_detect_(rng.fork()),
      model_(config.detector, channel),
      unit_pulse_energy_(unit_pulse_energy(config.modulator)),
      frames_(config, rng.fork()) {}

void StreamingUwbReceiver::decode_chunk(const PulseTrain& rx, Real watermark,
                                        core::EventStream& out) {
  // Per-pulse detection, in arrival (global time) order. The energy map
  // is a pure per-pulse function, so it runs as a batched SoA pass
  // (square_scale keeps the scalar expression order: (c*a)*a); only the
  // pd lookup and the sequential Rng decision stay in the loop.
  const std::size_t n = rx.size();
  DecodeStats& stats = frames_.stats();
  stats.pulses_in += n;
  scratch_amp_.resize(n);
  scratch_energy_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_amp_[i] = rx.pulses()[i].amplitude_v;
  }
  simd::kernels().square_scale(scratch_energy_.data(), scratch_amp_.data(),
                               unit_pulse_energy_, n);
  for (std::size_t i = 0; i < n; ++i) {
    const Real energy = scratch_energy_[i];
    Real pd;
    if (config_.cache_detection) {
      if (energy != cached_energy_) {
        cached_energy_ = energy;
        cached_pd_ = model_.pd(energy);
      }
      pd = cached_pd_;
    } else {
      pd = model_.pd(energy);
    }
    if (!rng_detect_.chance(pd)) continue;
    ++stats.pulses_detected;
    frames_.accept(rx.pulses()[i].time_s, out);
  }
  frames_.advance(watermark, out);
}

void StreamingUwbReceiver::flush(core::EventStream& out) {
  frames_.advance(kInf, out);
}

// ------------------------------------------------------------- the radio

RadioPlan::RadioPlan(const UwbReceiverConfig& receiver_config,
                     const ChannelConfig& channel_config)
    : receiver(receiver_config), channel(channel_config), pd(0.0) {
  const ModulatorConfig& mod = receiver.modulator;
  dsp::require(mod.symbol_period_s > 0.0,
               "RadioPlan: symbol period must be positive");
  dsp::require(mod.code_bits >= 1 && mod.code_bits <= 8,
               "RadioPlan: code bits must lie in [1,8]");
  dsp::require(receiver.address_bits <= 16,
               "RadioPlan: address bits must lie in [0,16]");
  dsp::require(channel.erasure_prob >= 0.0 && channel.erasure_prob <= 1.0,
               "RadioPlan: erasure probability outside [0,1]");
  // Every pulse leaves at the shape's amplitude and crosses one path
  // loss; the energy keeps the receiver's (c*a)*a expression order.
  const Real amplitude = mod.shape.amplitude_v * channel_gain(channel);
  pd = DetectionModel(receiver.detector, channel)
           .pd(unit_pulse_energy(mod) * amplitude * amplitude);
}

StreamingRadio::StreamingRadio(const RadioPlan& plan, std::uint64_t seed)
    : StreamingRadio(plan, [seed] {
        // The staged link's derivation: the receiver stream is forked off
        // the seed engine before any channel draw, then split into the
        // detection and false-alarm streams.
        dsp::Rng rng(seed);
        dsp::Rng rx = rng.fork();
        dsp::Rng detect = rx.fork();
        return Rngs{rng, detect, rx.fork()};
      }()) {}

StreamingRadio::StreamingRadio(const RadioPlan& plan, Rngs rngs)
    : plan_(plan),
      rng_channel_(rngs.channel),
      rng_detect_(rngs.detect),
      frames_(plan.receiver, rngs.frame),
      jitter_slack_(plan.channel.jitter_rms_s * kJitterSigmas),
      release_watermark_(kNegInf) {}

void StreamingRadio::push(std::span<const core::Event> events,
                          Real tx_watermark, core::EventStream& out) {
  // In a time-ordered chunk the next event's time bounds every later
  // pulse, so the radio releases block by block instead of holding the
  // whole chunk on air.
  const bool ordered = std::is_sorted(
      events.begin(), events.end(),
      [](const core::Event& a, const core::Event& b) {
        return a.time_s < b.time_s;
      });
  for (std::size_t at = 0; at < events.size(); at += kBlockEvents) {
    const std::size_t end = std::min(events.size(), at + kBlockEvents);
    transmit(events.subspan(at, end - at));
    if (ordered && end < events.size()) {
      release_below(std::min(events[end].time_s, tx_watermark) -
                        jitter_slack_,
                    out);
    }
  }
  release_below(tx_watermark - jitter_slack_, out);
}

void StreamingRadio::flush(core::EventStream& out) {
  release_below(kInf, out);
  frames_.advance(kInf, out);
}

std::size_t StreamingRadio::buffered_bytes() const {
  return (air_.capacity() + jitter_.capacity() + frames_.pending_capacity()) *
         sizeof(Real);
}

void StreamingRadio::transmit(std::span<const core::Event> events) {
  const ModulatorConfig& mod = plan_.receiver.modulator;
  const ChannelConfig& ch = plan_.channel;
  const unsigned addr_bits = plan_.receiver.address_bits;
  const Real ts = mod.symbol_period_s;
  // Each frame's pulse times in TX order: the marker, then the set slots
  // of the address and code fields (modulate_aer's layout; ATC links
  // send the marker alone).
  const auto for_each_pulse = [&](const core::Event& e, auto&& emit) {
    emit(e.time_s);
    if (!plan_.receiver.decode_codes) return;
    dsp::require(addr_bits == 0 || addr_bits == 16 ||
                     e.channel < (std::uint32_t{1} << addr_bits),
                 "StreamingRadio: event address outside the address space");
    // Bit s-1 of `slots` set: slot s carries a pulse.
    const std::uint32_t slots =
        field_slots(e.channel, addr_bits, mod.msb_first) |
        (field_slots(e.vth_code, mod.code_bits, mod.msb_first) << addr_bits);
    for (std::uint32_t rest = slots; rest != 0; rest &= rest - 1) {
      const auto slot = static_cast<unsigned>(std::countr_zero(rest)) + 1;
      emit(e.time_s + static_cast<Real>(slot) * ts);
    }
  };

  const std::size_t first = air_.size();
  if (ch.erasure_prob <= 0.0) {
    // No erasure decisions interleave with the jitter stream, so the
    // block's Gaussians batch into one fill (the same sequence as
    // per-pulse gaussian_bm() calls).
    for (const auto& e : events) {
      for_each_pulse(e, [this](Real t) { air_.push_back(t); });
    }
    const std::size_t n = air_.size() - first;
    pulses_tx_ += n;
    if (ch.jitter_rms_s > 0.0 && n > 0) {
      jitter_.resize(n);
      rng_channel_.fill_gaussian(jitter_);
      for (std::size_t i = 0; i < n; ++i) {
        air_[first + i] += ch.jitter_rms_s * jitter_[i];
      }
    }
    return;
  }
  for (const auto& e : events) {
    for_each_pulse(e, [&](Real t) {
      ++pulses_tx_;
      if (rng_channel_.chance(ch.erasure_prob)) {
        ++erased_;
        return;
      }
      if (ch.jitter_rms_s > 0.0) {
        // datc-lint: allow(hot-rng) — erasure decisions interleave with
        // the jitter stream, so the draws cannot batch without reordering.
        t += ch.jitter_rms_s * rng_channel_.gaussian_bm();
      }
      air_.push_back(t);
    });
  }
}

void StreamingRadio::release_below(Real threshold, core::EventStream& out) {
  if (threshold <= release_watermark_) return;  // the watermark is monotone
  release_watermark_ = threshold;
  if (reorder_by_time(std::span(air_).subspan(head_))) ++reorder_fallbacks_;
  // Detection in release (time) order: one draw per received pulse.
  DecodeStats& stats = frames_.stats();
  const std::size_t from = head_;
  for (; head_ < air_.size() && air_[head_] < threshold; ++head_) {
    if (!rng_detect_.chance(plan_.pd)) continue;
    ++stats.pulses_detected;
    frames_.accept(air_[head_], out);
  }
  stats.pulses_in += head_ - from;
  frames_.advance(threshold, out);
  reclaim(air_, head_);
}

}  // namespace datc::uwb
