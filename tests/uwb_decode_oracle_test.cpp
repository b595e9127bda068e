// Packet decode against an independent oracle: the original frame closure
// with its per-pulse llround(dt / Ts) (tests/uwb_decode_reference.hpp).
// The receiver's slot decode multiplies by 1 / Ts instead, which rounds
// differently only near a half slot, where neither claims the pulse; the
// trains here put pulses exactly there, exactly on the claim tolerance
// and one ulp either side of both, plus overlapping AER frames of the
// 64-channel preset, each with and without timing jitter. The batch
// UwbReceiver and a chunked StreamingUwbReceiver must reproduce the
// oracle's events and DecodeStats exactly.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"
#include "uwb_decode_reference.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr Real kTs = 100e-9;
constexpr Real kInf = std::numeric_limits<Real>::infinity();

/// A received pulse strong enough to be detected with certainty.
uwb::PulseEmission pulse_at(Real t, bool marker = false) {
  return uwb::PulseEmission{t, 1.0, 0, marker};
}

/// Frames of `bits` slots every 2 us from 1 ms: a marker, then one pulse
/// at each offset of `offsets` (in slots) past it.
uwb::PulseTrain frames_with_offsets(const std::vector<Real>& offsets,
                                    std::size_t frames) {
  uwb::PulseTrain train;
  for (std::size_t f = 0; f < frames; ++f) {
    const Real t0 = 1e-3 + 2e-6 * static_cast<Real>(f);
    train.add(pulse_at(t0, true));
    const Real off = offsets[f % offsets.size()];
    train.add(pulse_at(t0 + off * kTs));
  }
  return train;
}

/// Every pulse moved by a Gaussian of `sigma_s`, re-sorted by time.
uwb::PulseTrain jittered(const uwb::PulseTrain& train, Real sigma_s,
                         std::uint64_t seed) {
  if (sigma_s == 0.0) return train;
  dsp::Rng rng(seed);
  uwb::PulseTrain out;
  for (auto p : train.pulses()) {
    p.time_s += sigma_s * rng.gaussian();
    out.add(p);
  }
  out.sort_by_time();
  return out;
}

void expect_same(const oracle::ReferenceDecode& want,
                 const core::EventStream& got, const uwb::DecodeStats& stats,
                 const std::string& what) {
  const auto& w = want.events.events();
  const auto& g = got.events();
  ASSERT_EQ(g.size(), w.size()) << what;
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g[i].time_s),
              std::bit_cast<std::uint64_t>(w[i].time_s))
        << what << " event " << i;
    ASSERT_EQ(g[i].vth_code, w[i].vth_code) << what << " event " << i;
    ASSERT_EQ(g[i].channel, w[i].channel) << what << " event " << i;
  }
  EXPECT_EQ(stats.pulses_in, want.stats.pulses_in) << what;
  EXPECT_EQ(stats.pulses_detected, want.stats.pulses_detected) << what;
  EXPECT_EQ(stats.packets_decoded, want.stats.packets_decoded) << what;
  EXPECT_EQ(stats.code_bit_ones_missed, want.stats.code_bit_ones_missed)
      << what;
  EXPECT_EQ(stats.false_alarm_bits, want.stats.false_alarm_bits) << what;
}

/// The train decoded whole and in chunks of 7 pulses, each against the
/// oracle; returns the oracle's decode for the caller's own checks.
oracle::ReferenceDecode check_decode(const uwb::UwbReceiverConfig& rc,
                                     const uwb::PulseTrain& train,
                                     const std::string& what) {
  const uwb::ChannelConfig ch;
  const auto want = oracle::reference_uwb_decode(rc, ch, dsp::Rng(91), train);

  uwb::UwbReceiver batch(rc, ch, dsp::Rng(91));
  const auto got = batch.decode(train);
  expect_same(want, got, batch.stats(), what + " batch");

  uwb::StreamingUwbReceiver streaming(rc, ch, dsp::Rng(91));
  core::EventStream chunked;
  const auto& pulses = train.pulses();
  for (std::size_t begin = 0; begin < pulses.size(); begin += 7) {
    const std::size_t end = std::min(begin + 7, pulses.size());
    uwb::PulseTrain chunk;
    for (std::size_t i = begin; i < end; ++i) chunk.add(pulses[i]);
    streaming.decode_chunk(
        chunk, end < pulses.size() ? pulses[end].time_s : kInf, chunked);
  }
  streaming.flush(chunked);
  expect_same(want, chunked, streaming.stats(), what + " chunked");
  return want;
}

uwb::UwbReceiverConfig datc_receiver(Real false_alarm_prob) {
  uwb::UwbReceiverConfig rc;
  rc.modulator.symbol_period_s = kTs;
  rc.detector.false_alarm_prob = false_alarm_prob;
  return rc;
}

constexpr Real kSigmas[] = {0.0, 1e-4 * kTs, 0.05 * kTs};

TEST(UwbDecodeOracle, PulsesOnHalfSlots) {
  // Every half slot of a 4-bit frame, from before the first code slot to
  // past the last.
  std::vector<Real> offsets;
  for (int s = 0; s <= 5; ++s) offsets.push_back(s + 0.5);
  const auto train = frames_with_offsets(offsets, 60);
  for (const Real sigma : kSigmas) {
    for (const Real fa : {1e-6, 0.05}) {
      const auto want =
          check_decode(datc_receiver(fa), jittered(train, sigma, 5),
                       "half slots sigma " + std::to_string(sigma) + " fa " +
                           std::to_string(fa));
      if (sigma == 0.0) {
        // No pulse claimed: each stray one opens a frame of its own.
        EXPECT_EQ(want.stats.packets_decoded, 120u);
      }
    }
  }
}

TEST(UwbDecodeOracle, PulsesOnTheToleranceAndOneUlpAround) {
  // Each slot 0 .. 5 plus and minus the quarter-slot tolerance, then the
  // time one ulp below and above each of those points.
  uwb::PulseTrain train;
  std::size_t f = 0;
  for (int s = 0; s <= 5; ++s) {
    for (const Real side : {-0.25, 0.25}) {
      for (const int ulps : {-1, 0, 1}) {
        const Real t0 = 1e-3 + 2e-6 * static_cast<Real>(f++);
        Real t = t0 + (s + side) * kTs;
        if (ulps < 0) t = std::nextafter(t, -kInf);
        if (ulps > 0) t = std::nextafter(t, kInf);
        train.add(pulse_at(t0, true));
        train.add(pulse_at(t));
      }
    }
  }
  for (const Real sigma : kSigmas) {
    for (const Real fa : {1e-6, 0.05}) {
      const auto want =
          check_decode(datc_receiver(fa), jittered(train, sigma, 6),
                       "tolerance sigma " + std::to_string(sigma) + " fa " +
                           std::to_string(fa));
      if (sigma == 0.0 && fa < 1e-3) {
        // Both outcomes occur: some edge pulses are claimed, some not.
        EXPECT_GT(want.stats.packets_decoded, 36u);
        EXPECT_LT(want.stats.packets_decoded, 72u);
      }
    }
  }
}

TEST(UwbDecodeOracle, OverlappingSharedAerFrames) {
  // The 64-channel shared-AER preset's framing, without its arbiter:
  // events of all channels at random times, so frames interleave.
  const config::PipelineFactory factory(
      config::make_preset("shared-aer-64ch"));
  const auto link = factory.link_config();
  uwb::UwbReceiverConfig rc;
  rc.modulator = link.modulator;
  rc.address_bits = factory.shared_config().aer.address_bits;
  ASSERT_GE(rc.address_bits, 6u);
  const Real frame_s = static_cast<Real>(1 + rc.address_bits +
                                         rc.modulator.code_bits) *
                       rc.modulator.symbol_period_s;
  dsp::Rng rng(64);
  core::EventStream events;
  Real t = 1e-3;
  for (int i = 0; i < 1500; ++i) {
    t += frame_s * rng.canonical();  // mean gap half a frame
    events.add(t, static_cast<std::uint8_t>(rng.canonical() * 16.0),
               static_cast<std::uint16_t>(rng.canonical() * 64.0));
  }
  const auto tx = uwb::modulate_aer(events, rc.modulator, rc.address_bits);
  uwb::PulseTrain train;
  for (auto p : tx.pulses()) {
    p.amplitude_v = 1.0;
    train.add(p);
  }
  train.sort_by_time();
  const Real ts = rc.modulator.symbol_period_s;
  for (const Real sigma : {0.0, 1e-4 * ts, 0.05 * ts}) {
    for (const Real fa : {1e-6, 0.05}) {
      rc.detector.false_alarm_prob = fa;
      const auto want =
          check_decode(rc, jittered(train, sigma, 7),
                       "aer sigma " + std::to_string(sigma) + " fa " +
                           std::to_string(fa));
      EXPECT_GT(want.stats.packets_decoded, 1000u);
    }
  }
}

}  // namespace
