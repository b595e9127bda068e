#include "uwb/streaming_link.hpp"

#include <algorithm>
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

/// Gaussian jitter is unbounded; 12 sigma bounds it for every practical
/// purpose (excursion probability ~1e-33 per pulse), and exactly for
/// jitter-free channels. See the StreamingChannel class comment.
constexpr Real kJitterSigmas = 12.0;

}  // namespace

// ------------------------------------------------------------- modulator

StreamingModulator::StreamingModulator(const ModulatorConfig& config,
                                       unsigned address_bits)
    : config_(config), address_bits_(address_bits) {
  dsp::require(config_.symbol_period_s > 0.0,
               "StreamingModulator: symbol period must be positive");
  dsp::require(config_.code_bits >= 1 && config_.code_bits <= 8,
               "StreamingModulator: code bits must lie in [1,8]");
  dsp::require(address_bits_ <= 16,
               "StreamingModulator: address bits must lie in [0,16]");
}

void StreamingModulator::modulate_chunk(std::span<const core::Event> events,
                                        PulseTrain& train) {
  const std::size_t before = train.size();
  for (const auto& e : events) {
    detail::emit_frame(train, config_, address_bits_, e, next_id_);
    ++next_id_;
  }
  pulses_ += train.size() - before;
}

// --------------------------------------------------------------- channel

StreamingChannel::StreamingChannel(const ChannelConfig& config, dsp::Rng rng)
    : config_(config),
      rng_(rng),
      gain_(channel_gain(config)),
      jitter_slack_(config.jitter_rms_s * kJitterSigmas),
      release_watermark_(kNegInf) {
  dsp::require(config_.erasure_prob >= 0.0 && config_.erasure_prob <= 1.0,
               "StreamingChannel: erasure probability outside [0,1]");
}

void StreamingChannel::propagate_chunk(const PulseTrain& tx, Real tx_watermark,
                                       PulseTrain& out) {
  // Per-pulse draws in TX (packet) order — the exact sequence the batch
  // propagate() consumes.
  const std::size_t n = tx.size();
  if (config_.erasure_prob <= 0.0) {
    // No erasure decisions interleave with the jitter stream, so the whole
    // chunk's Gaussians batch into one fill (Rng::fill_gaussian draws the
    // identical sequence as per-pulse gaussian_bm() calls — the default
    // jittered channel never touches the scalar polar tail).
    pulses_in_ += n;
    if (config_.jitter_rms_s > 0.0 && n > 0) {
      jitter_scratch_.resize(n);
      rng_.fill_gaussian(jitter_scratch_);
    }
    buffer_.reserve(buffer_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& p = tx.pulses()[i];
      PulseEmission rx = p;
      rx.amplitude_v = p.amplitude_v * gain_;
      if (config_.jitter_rms_s > 0.0) {
        rx.time_s += config_.jitter_rms_s * jitter_scratch_[i];
      }
      buffer_.push_back(rx);
    }
  } else {
    for (const auto& p : tx.pulses()) {
      ++pulses_in_;
      if (rng_.chance(config_.erasure_prob)) {
        ++erased_;
        continue;
      }
      PulseEmission rx = p;
      rx.amplitude_v = p.amplitude_v * gain_;
      if (config_.jitter_rms_s > 0.0) {
        // datc-lint: allow(hot-rng) — erasure decisions interleave with the
        // jitter stream, so the draws cannot batch without reordering them.
        rx.time_s += config_.jitter_rms_s * rng_.gaussian_bm();
      }
      buffer_.push_back(rx);
    }
  }
  release_below(tx_watermark - jitter_slack_, out);
}

void StreamingChannel::flush(PulseTrain& out) {
  release_below(std::numeric_limits<Real>::infinity(), out);
}

void StreamingChannel::release_below(Real threshold, PulseTrain& out) {
  if (threshold <= release_watermark_) return;  // watermark is monotone
  release_watermark_ = threshold;
  if (reorder_by_time(std::span(buffer_).subspan(head_))) {
    ++reorder_fallbacks_;
  }
  while (head_ < buffer_.size() && buffer_[head_].time_s < threshold) {
    out.add(buffer_[head_++]);
  }
  // Reclaim the dead prefix once it dominates the buffer; amortised O(1)
  // per pulse, as in StreamingUwbReceiver::close_frames.
  if (head_ > 1024 && head_ > buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

// -------------------------------------------------------------- receiver

StreamingUwbReceiver::StreamingUwbReceiver(const UwbReceiverConfig& config,
                                           const ChannelConfig& channel,
                                           dsp::Rng rng)
    : config_(config),
      channel_(channel),
      // Two independent streams forked from the seed engine: detection
      // draws in pulse order, false-alarm draws in frame order. Each
      // stream's order is chunk-invariant, which is what makes decode
      // results independent of chunk boundaries.
      rng_detect_(rng.fork()),
      rng_frame_(rng.fork()),
      model_(config.detector, channel),
      inv_ts_(1.0 / config.modulator.symbol_period_s),
      watermark_(kNegInf) {
  dsp::require(config_.address_bits + config_.modulator.code_bits <= 24,
               "StreamingUwbReceiver: frame exceeds 24 bit slots");
  PulseShapeConfig unit = config_.modulator.shape;
  unit.amplitude_v = 1.0;
  // Sample the unit pulse finely enough for an accurate energy integral.
  const Real fs = 64.0 / unit.tau_s;
  unit_pulse_energy_ = pulse_energy(unit, fs);
}

void StreamingUwbReceiver::decode_chunk(const PulseTrain& rx, Real watermark,
                                        core::EventStream& out) {
  // Stage 1: per-pulse detection, in arrival (global time) order. The
  // energy map is a pure per-pulse function, so it runs as a batched SoA
  // pass (square_scale keeps the scalar expression order: (c*a)*a); only
  // the pd lookup and the sequential Rng decision stay in the loop.
  const std::size_t n = rx.size();
  stats_.pulses_in += n;
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
    ++stats_.pulses_detected;
    if (config_.decode_codes) {
      pending_.push_back(rx.pulses()[i]);
    } else {
      out.add(rx.pulses()[i].time_s, 0);
    }
  }
  watermark_ = std::max(watermark_, watermark);
  if (config_.decode_codes) close_frames(watermark_, out);
}

void StreamingUwbReceiver::flush(core::EventStream& out) {
  watermark_ = std::numeric_limits<Real>::infinity();
  close_frames(watermark_, out);
}

void StreamingUwbReceiver::reset_stream() {
  dsp::require(pend_head_ == pending_.size(),
               "StreamingUwbReceiver::reset_stream: open frames pending "
               "(flush first)");
  pending_.clear();
  pend_head_ = 0;
  watermark_ = kNegInf;
}

Real StreamingUwbReceiver::event_time_watermark() const {
  // The next decoded event is either the oldest pending (unclaimed) pulse
  // promoted to a marker, or a pulse not yet received.
  return pend_head_ == pending_.size()
             ? watermark_
             : std::min(pending_[pend_head_].time_s, watermark_);
}

void StreamingUwbReceiver::close_frames(Real closable_before,
                                        core::EventStream& out) {
  const Real ts = config_.modulator.symbol_period_s;
  const unsigned bits = config_.address_bits + config_.modulator.code_bits;
  const Real window =
      static_cast<Real>(bits) * ts + kSlotTolerance * ts;
  // A frame closes only when no future pulse can still land in its
  // window: markers open at the oldest unclaimed pulse, exactly as the
  // batch claimed[] scan resumes at the first unclaimed index.
  while (pend_head_ < pending_.size() &&
         pending_[pend_head_].time_s + window < closable_before) {
    close_front_frame(out);
  }
  // Reclaim the dead prefix once it dominates the buffer; amortised O(1)
  // per pulse versus the old erase-per-frame front compaction.
  if (pend_head_ > 1024 && pend_head_ > pending_.size() / 2) {
    pending_.erase(pending_.begin(), pending_.begin() +
                                         static_cast<std::ptrdiff_t>(pend_head_));
    pend_head_ = 0;
  }
}

void StreamingUwbReceiver::close_front_frame(core::EventStream& out) {
  const Real ts = config_.modulator.symbol_period_s;
  const unsigned addr_bits = config_.address_bits;
  const unsigned code_bits = config_.modulator.code_bits;
  const unsigned bits = addr_bits + code_bits;
  const Real tol = kSlotTolerance * ts;

  const std::size_t head = pend_head_;
  const Real t0 = pending_[head].time_s;  // this frame's marker
  std::uint32_t bit = 0;  // addr_bits + code_bits <= 24, one register
  // Scan the in-window prefix (pending_ is time-sorted); pulses matching
  // a bit slot are claimed, off-slot pulses stay for the next frame.
  std::size_t scan = head + 1;  // head is the marker
  std::size_t keep = head + 1;
  while (scan < pending_.size() &&
         pending_[scan].time_s <= t0 + static_cast<Real>(bits) * ts + tol) {
    const Real dt = pending_[scan].time_s - t0;  // >= 0: time-sorted
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
  pend_head_ = scan - kept;

  // False alarms inside empty slots (frame-order Rng stream).
  for (unsigned b = 0; b < bits; ++b) {
    if ((bit & (1u << b)) == 0 &&
        rng_frame_.chance(config_.detector.false_alarm_prob)) {
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

}  // namespace datc::uwb
