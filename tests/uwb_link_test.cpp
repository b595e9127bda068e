// UWB link: modulation layout, channel statistics, energy-detector
// probabilities, packet decode round-trips, AER arbitration (against a
// gather + stable_sort oracle) and the stable time reorder.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>

#include "aer_match_reference.hpp"
#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

core::EventStream make_events(std::size_t n, Real spacing_s,
                              std::uint8_t code) {
  core::EventStream ev;
  for (std::size_t i = 0; i < n; ++i) {
    ev.add(1e-3 + spacing_s * static_cast<Real>(i), code);
  }
  return ev;
}

TEST(Modulator, AtcOnePulsePerEvent) {
  const auto ev = make_events(10, 1e-3, 0);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  EXPECT_EQ(train.size(), 10u);
  for (const auto& p : train.pulses()) EXPECT_TRUE(p.is_marker);
}

TEST(Modulator, DatcPacketLayout) {
  // Code 0b1010 (10): marker + 2 one-bits = 3 pulses per event.
  const auto ev = make_events(4, 1e-3, 10);
  uwb::ModulatorConfig mod;
  const auto train = uwb::modulate_datc(ev, mod);
  EXPECT_EQ(train.size(), 4u * 3u);
  // MSB-first: bit slots 1 and 3 carry pulses for 0b1010.
  const auto& p = train.pulses();
  EXPECT_TRUE(p[0].is_marker);
  EXPECT_NEAR(p[1].time_s - p[0].time_s, 1.0 * mod.symbol_period_s, 1e-12);
  EXPECT_NEAR(p[2].time_s - p[0].time_s, 3.0 * mod.symbol_period_s, 1e-12);
}

TEST(Modulator, AllOnesCodeFullPacket) {
  const auto ev = make_events(1, 1e-3, 15);
  const auto train = uwb::modulate_datc(ev, uwb::ModulatorConfig{});
  EXPECT_EQ(train.size(), 5u);  // marker + 4 bits
  EXPECT_DOUBLE_EQ(uwb::packet_duration_s(uwb::ModulatorConfig{}),
                   5.0 * 100e-9);
}

TEST(Channel, GainDecreasesWithDistance) {
  uwb::ChannelConfig near;
  near.distance_m = 0.5;
  uwb::ChannelConfig far = near;
  far.distance_m = 3.0;
  EXPECT_GT(uwb::channel_gain(near), uwb::channel_gain(far));
  EXPECT_GT(uwb::channel_gain(near), 0.0);
}

TEST(Channel, ErasureStatistics) {
  const auto ev = make_events(2000, 1e-4, 15);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  uwb::ChannelConfig ch;
  ch.erasure_prob = 0.25;
  dsp::Rng rng(3);
  const auto out = uwb::propagate(train, ch, rng);
  EXPECT_NEAR(static_cast<Real>(out.erased), 2000.0 * 0.25, 80.0);
  EXPECT_EQ(out.received.size() + out.erased, train.size());
}

TEST(Channel, JitterPerturbsTimes) {
  const auto ev = make_events(100, 1e-4, 0);
  const auto train = uwb::modulate_atc(ev, uwb::ModulatorConfig{});
  uwb::ChannelConfig ch;
  ch.jitter_rms_s = 1e-9;
  dsp::Rng rng(5);
  const auto out = uwb::propagate(train, ch, rng);
  Real max_shift = 0.0;
  for (std::size_t i = 0; i < out.received.size(); ++i) {
    max_shift = std::max(max_shift, std::abs(out.received.pulses()[i].time_s -
                                             train.pulses()[i].time_s));
  }
  EXPECT_GT(max_shift, 1e-10);
  EXPECT_LT(max_shift, 1e-8);
}

TEST(Channel, NoiseRmsSane) {
  uwb::ChannelConfig ch;
  const Real n = uwb::noise_rms_v(ch, 2e9);
  // Thermal noise with 6 dB NF in 2 GHz across 50 ohm: tens of microvolts.
  EXPECT_GT(n, 1e-6);
  EXPECT_LT(n, 1e-3);
}

TEST(Detector, ProbabilityMonotoneInEnergy) {
  uwb::EnergyDetectorConfig det;
  uwb::ChannelConfig ch;
  Real last = 0.0;
  for (const Real e : {1e-18, 1e-17, 1e-16, 1e-15, 1e-14}) {
    const Real pd = uwb::detection_probability(det, ch, e);
    EXPECT_GE(pd, last - 1e-12);
    last = pd;
  }
  // Strong pulse: certain detection; zero energy: near the false-alarm
  // floor.
  EXPECT_GT(uwb::detection_probability(det, ch, 1e-12), 0.999);
  EXPECT_LT(uwb::detection_probability(det, ch, 0.0), 0.01);
}

uwb::ChannelConfig strong_link() {
  uwb::ChannelConfig ch;
  ch.distance_m = 0.3;
  ch.ref_loss_db = 30.0;
  return ch;
}

TEST(Receiver, LosslessRoundTripRecoversCodes) {
  const auto ev = make_events(50, 1e-3, 11);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_datc(ev, mod);
  const auto ch = strong_link();
  dsp::Rng rng(7);
  const auto prop = uwb::propagate(train, ch, rng);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(8));
  const auto decoded = rx.decode(prop.received);
  ASSERT_EQ(decoded.size(), 50u);
  for (const auto& e : decoded.events()) {
    EXPECT_EQ(e.vth_code, 11u);
  }
  EXPECT_EQ(rx.stats().packets_decoded, 50u);
  EXPECT_EQ(rx.stats().pulses_detected, rx.stats().pulses_in);
}

TEST(Receiver, WeakLinkLosesEvents) {
  const auto ev = make_events(200, 1e-3, 15);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_datc(ev, mod);
  uwb::ChannelConfig ch;
  ch.distance_m = 50.0;  // absurdly far for a body-area link
  ch.path_loss_exponent = 3.0;
  dsp::Rng rng(9);
  const auto prop = uwb::propagate(train, ch, rng);
  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(10));
  const auto decoded = rx.decode(prop.received);
  EXPECT_LT(decoded.size(), 150u);
}

TEST(Receiver, MarkerOnlyModeForAtc) {
  const auto ev = make_events(30, 1e-3, 0);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_atc(ev, mod);
  const auto ch = strong_link();
  dsp::Rng rng(1);
  const auto prop = uwb::propagate(train, ch, rng);
  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.decode_codes = false;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(2));
  EXPECT_EQ(rx.decode(prop.received).size(), 30u);
}

TEST(Aer, MergePreservesEventsAndAddresses) {
  std::vector<core::EventStream> chans(3);
  chans[0].add(0.010, 5);
  chans[1].add(0.020, 6);
  chans[2].add(0.030, 7);
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, uwb::AerConfig{}, &stats);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(stats.sent, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  const auto split = uwb::aer_split(merged, 3);
  EXPECT_EQ(split[0].size(), 1u);
  EXPECT_EQ(split[1][0].vth_code, 6u);
}

TEST(Aer, ArbitrationDelaysCollisions) {
  std::vector<core::EventStream> chans(2);
  chans[0].add(0.010, 1);
  chans[1].add(0.010, 2);  // simultaneous
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_NEAR(merged[1].time_s - merged[0].time_s, 1e-3, 1e-12);
  EXPECT_GT(stats.max_delay_s, 0.0);
}

TEST(Aer, DropsBeyondLatencyBudget) {
  std::vector<core::EventStream> chans(1);
  for (int i = 0; i < 100; ++i) chans[0].add(0.010, 0);  // burst
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  cfg.max_queue_delay_s = 5e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  EXPECT_LT(merged.size(), 100u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.sent + stats.dropped, 100u);
}

TEST(Receiver, OffSlotMarkerResumesReassembly) {
  // Regression: a pulse inside an open frame's window that misses every
  // slot tolerance (e.g. the jittered marker of the next packet) used to
  // be consumed with the frame, so that packet — and everything it
  // started — was lost. The receiver must resume reassembly at the first
  // unclaimed pulse.
  uwb::ModulatorConfig mod;  // ts = 100 ns, 4 code bits, tol 25 ns
  const Real ts = mod.symbol_period_s;
  const Real amp = 0.5;  // far above the detector floor: Pd = 1
  const Real t0 = 1e-3;
  uwb::PulseTrain train;
  // Packet A: bare marker (code 0).
  train.add({t0, amp, 0, true});
  // Packet B: marker jittered to 1.5 slots after A — inside A's window,
  // off every slot. Code 15 -> all four bit slots pulsed.
  const Real tb = t0 + 1.5 * ts;
  train.add({tb, amp, 1, true});
  for (unsigned b = 1; b <= 4; ++b) {
    train.add({tb + static_cast<Real>(b) * ts, amp, 1, false});
  }
  // Packet C: well clear of both, code 5 = 0b0101 -> slots 2 and 4.
  const Real tc = t0 + 3e-6;
  train.add({tc, amp, 2, true});
  train.add({tc + 2.0 * ts, amp, 2, false});
  train.add({tc + 4.0 * ts, amp, 2, false});

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, strong_link(), dsp::Rng(21));
  const auto decoded = rx.decode(train);
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_DOUBLE_EQ(decoded[0].time_s, t0);
  EXPECT_EQ(decoded[0].vth_code, 0u);
  EXPECT_DOUBLE_EQ(decoded[1].time_s, tb);
  EXPECT_EQ(decoded[1].vth_code, 15u);
  EXPECT_DOUBLE_EQ(decoded[2].time_s, tc);
  EXPECT_EQ(decoded[2].vth_code, 5u);
  EXPECT_EQ(rx.stats().packets_decoded, 3u);
}

TEST(Receiver, ClaimedBitsAreNotPromotedToMarkers) {
  // Companion regression to the resume fix: a pulse claimed as a data bit
  // of one frame must not be revisited as a marker after reassembly
  // resumes at an earlier unclaimed pulse, or every jittered marker would
  // also fabricate a spurious trailing packet.
  uwb::ModulatorConfig mod;  // ts = 100 ns, 4 code bits, tol 25 ns
  const Real ts = mod.symbol_period_s;
  const Real amp = 0.5;
  const Real t0 = 1e-3;
  uwb::PulseTrain train;
  train.add({t0, amp, 0, true});              // marker A
  train.add({t0 + 1.5 * ts, amp, 1, true});   // off-slot marker B
  train.add({t0 + 2.0 * ts, amp, 0, false});  // A's bit slot 2

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, strong_link(), dsp::Rng(22));
  const auto decoded = rx.decode(train);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded[0].time_s, t0);
  EXPECT_EQ(decoded[0].vth_code, 4u);  // slot 2 of 4, MSB-first
  EXPECT_DOUBLE_EQ(decoded[1].time_s, t0 + 1.5 * ts);
  // B's only in-window candidate was already claimed by A: code 0, and no
  // spurious third packet from the claimed pulse.
  EXPECT_EQ(decoded[1].vth_code, 0u);
  EXPECT_EQ(rx.stats().packets_decoded, 2u);
}

TEST(Aer, AddressSpaceValidation) {
  std::vector<core::EventStream> chans(9);
  uwb::AerConfig cfg;
  cfg.address_bits = 3;  // max 8 channels
  EXPECT_THROW((void)uwb::aer_merge(chans, cfg), std::invalid_argument);
  EXPECT_EQ(uwb::aer_symbols_per_event(cfg, 4), 8u);  // 1 + 3 + 4
  uwb::ModulatorConfig mod;  // 100 ns slots, 4 code bits
  EXPECT_DOUBLE_EQ(uwb::aer_frame_duration_s(mod, 3),
                   8.0 * mod.symbol_period_s);
}

TEST(Aer, RoundTripOverNoiselessRadioMatchesIdealReference) {
  // merge -> modulate (marker+address+code) -> noiseless channel ->
  // address-aware decode -> split must be bit/time-exact against the
  // radio-free reference (merge -> split): the shared radio is exactly
  // transparent when nothing in the channel can hurt it.
  const unsigned kChannels = 8;
  std::vector<core::EventStream> chans(kChannels);
  for (unsigned c = 0; c < kChannels; ++c) {
    for (std::size_t i = 0; i < 40; ++i) {
      chans[c].add(1e-3 * static_cast<Real>(i + 1) +
                       37e-6 * static_cast<Real>(c),
                   static_cast<std::uint8_t>((i + c) % 16));
    }
  }
  uwb::AerConfig aer;
  aer.address_bits = 3;
  aer.min_spacing_s = 2e-6;
  uwb::AerStats merge_stats;
  const auto merged = uwb::aer_merge(chans, aer, &merge_stats);
  EXPECT_EQ(merge_stats.dropped, 0u);
  const auto ideal = uwb::aer_split(merged, kChannels);

  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  const auto train = uwb::modulate_aer(merged, mod, aer.address_bits);
  dsp::Rng rng(13);
  const auto prop = uwb::propagate(train, uwb::noiseless_channel(), rng);
  ASSERT_EQ(prop.erased, 0u);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.address_bits = aer.address_bits;
  rxc.detector.false_alarm_prob = 1e-9;
  uwb::UwbReceiver rx(rxc, uwb::noiseless_channel(), rng.fork());
  auto decoded = rx.decode(prop.received);
  decoded.sort_by_time();
  uwb::AerStats split_stats;
  const auto split = uwb::aer_split(decoded, kChannels, &split_stats);
  EXPECT_EQ(split_stats.invalid_address, 0u);

  ASSERT_EQ(split.size(), ideal.size());
  for (unsigned c = 0; c < kChannels; ++c) {
    ASSERT_EQ(split[c].size(), ideal[c].size()) << c;
    for (std::size_t k = 0; k < split[c].size(); ++k) {
      EXPECT_EQ(split[c][k].time_s, ideal[c][k].time_s) << c;
      EXPECT_EQ(split[c][k].vth_code, ideal[c][k].vth_code) << c;
      EXPECT_EQ(split[c][k].channel, c) << c;
    }
  }
}

TEST(Aer, StatsStayConsistentUnderForcedDrops) {
  // A burst far beyond the arbiter's latency budget forces queue-delay
  // drops; the in/sent/dropped accounting must stay exact through the
  // merge and the split.
  std::vector<core::EventStream> chans(3);
  for (unsigned c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      chans[c].add(0.010, static_cast<std::uint8_t>(c));
    }
  }
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 1e-3;
  cfg.max_queue_delay_s = 5e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(chans, cfg, &stats);
  EXPECT_EQ(stats.in_events, 150u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.sent + stats.dropped, stats.in_events);
  EXPECT_EQ(merged.size(), stats.sent);
  EXPECT_LE(stats.max_delay_s, cfg.max_queue_delay_s);

  uwb::AerStats split_stats;
  const auto split = uwb::aer_split(merged, 3, &split_stats);
  std::size_t total = 0;
  for (const auto& s : split) total += s.size();
  EXPECT_EQ(total, stats.sent);
  EXPECT_EQ(split_stats.sent, stats.sent);
  EXPECT_EQ(split_stats.invalid_address, 0u);
}

TEST(Aer, SplitReportsOutOfRangeAddresses) {
  // Address-field bit errors on a noisy link can demux to a channel that
  // does not exist; those events must be counted, not silently dropped.
  core::EventStream merged;
  merged.add(0.001, 3, 1);
  merged.add(0.002, 4, 7);  // only 2 channels exist
  merged.add(0.003, 5, 0);
  uwb::AerStats stats;
  const auto split = uwb::aer_split(merged, 2, &stats);
  EXPECT_EQ(stats.invalid_address, 1u);
  EXPECT_EQ(stats.sent, 2u);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].size(), 1u);
  EXPECT_EQ(split[1].size(), 1u);
}

/// The arbiter as a batch gather + stable_sort by time over channel-major
/// order + the on-air recurrence: independent of the heap merge.
core::EventStream oracle_aer_merge(
    const std::vector<core::EventStream>& channels, const uwb::AerConfig& cfg,
    uwb::AerStats& stats) {
  std::vector<core::Event> all;
  for (std::size_t c = 0; c < channels.size(); ++c) {
    for (core::Event e : channels[c].events()) {
      e.channel = static_cast<std::uint16_t>(c);
      all.push_back(e);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const core::Event& a, const core::Event& b) {
                     return a.time_s < b.time_s;
                   });
  stats = uwb::AerStats{};
  stats.in_events = all.size();
  core::EventStream out;
  Real next_free = -1.0;
  for (const auto& e : all) {
    const Real send_at = std::max(e.time_s, next_free);
    const Real delay = send_at - e.time_s;
    if (delay > cfg.max_queue_delay_s) {
      ++stats.dropped;
      continue;
    }
    out.add(send_at, e.vth_code, e.channel);
    next_free = send_at + cfg.min_spacing_s;
    ++stats.sent;
    stats.max_delay_s = std::max(stats.max_delay_s, delay);
  }
  return out;
}

void expect_same_stream(const core::EventStream& got,
                        const core::EventStream& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time_s, want[i].time_s) << i;
    EXPECT_EQ(got[i].vth_code, want[i].vth_code) << i;
    EXPECT_EQ(got[i].channel, want[i].channel) << i;
  }
}

TEST(AerArbiter, MatchesStableSortOracleUnderTiesDropsAndWatermarks) {
  // 48 channels on the 2 kHz DTC grid: most events share a tick with
  // events of other channels (and of their own channel), so the order of
  // ties decides the output. A burst-heavy load against a short delay
  // budget forces drops.
  const std::size_t kChannels = 48;
  const Real kTick = 5e-4;
  dsp::Rng rng(2024);
  std::vector<core::EventStream> chans(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    std::uint64_t tick = rng.integer(0, 3);
    for (int i = 0; i < 120; ++i) {
      tick += rng.integer(0, 2);  // 0: another event on the same tick
      chans[c].add(static_cast<Real>(tick) * kTick,
                   static_cast<std::uint8_t>(rng.integer(0, 15)));
    }
  }
  uwb::AerConfig cfg;
  cfg.address_bits = 6;
  cfg.min_spacing_s = 2e-5;
  cfg.max_queue_delay_s = 4e-4;
  uwb::AerStats want_stats;
  const auto want = oracle_aer_merge(chans, cfg, want_stats);
  ASSERT_GT(want_stats.dropped, 0u);
  ASSERT_GT(want_stats.sent, 1000u);

  uwb::AerStats batch_stats;
  const auto batch = uwb::aer_merge(chans, cfg, &batch_stats);
  expect_same_stream(batch, want);
  EXPECT_EQ(batch_stats.in_events, want_stats.in_events);
  EXPECT_EQ(batch_stats.sent, want_stats.sent);
  EXPECT_EQ(batch_stats.dropped, want_stats.dropped);
  EXPECT_EQ(batch_stats.max_delay_s, want_stats.max_delay_s);

  // Incremental: each step pushes every channel up to a random look-ahead
  // past the watermark (at least all of its events below it), then pops
  // below the watermark — the streaming session's contract.
  uwb::AerArbiter arbiter(cfg, kChannels);
  std::vector<std::size_t> next(kChannels, 0);
  core::EventStream streamed;
  Real watermark = 0.0;
  while (watermark < 0.2) {
    watermark += static_cast<Real>(rng.integer(0, 40)) * kTick * 0.25;
    for (std::size_t c = 0; c < kChannels; ++c) {
      const auto& ev = chans[c].events();
      std::size_t end = next[c];
      while (end < ev.size() && ev[end].time_s < watermark) ++end;
      end = std::min(ev.size(), end + rng.integer(0, 3));
      arbiter.push(c, {ev.data() + next[c], end - next[c]});
      next[c] = end;
    }
    arbiter.pop_below(watermark, streamed);
    EXPECT_GE(arbiter.next_free(), streamed.empty()
                                       ? -1.0
                                       : streamed[streamed.size() - 1].time_s);
  }
  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto& ev = chans[c].events();
    arbiter.push(c, {ev.data() + next[c], ev.size() - next[c]});
  }
  arbiter.pop_below(std::numeric_limits<Real>::infinity(), streamed);
  expect_same_stream(streamed, want);
  EXPECT_EQ(arbiter.stats().in_events, want_stats.in_events);
  EXPECT_EQ(arbiter.stats().sent, want_stats.sent);
  EXPECT_EQ(arbiter.stats().dropped, want_stats.dropped);
  EXPECT_EQ(arbiter.stats().max_delay_s, want_stats.max_delay_s);
}

TEST(AerArbiter, RejectsEventsOutOfTimeOrder) {
  uwb::AerArbiter arbiter(uwb::AerConfig{}, 2);
  const std::vector<core::Event> late{{0.002, 1, 0}};
  const std::vector<core::Event> early{{0.001, 1, 0}};
  arbiter.push(0, late);
  EXPECT_THROW(arbiter.push(0, early), std::invalid_argument);
  arbiter.push(1, early);  // channels are ordered independently
  EXPECT_THROW(arbiter.push(2, early), std::invalid_argument);
}

/// Feeds `sent` and `decoded` to a ledger in random steps of up to
/// `chunk` events each (0 = whole streams), advancing after every step
/// with watermarks up to three slots below the next unpushed event.
uwb::AerLedgerCounts ledger_counts(const core::EventStream& sent,
                                   const core::EventStream& decoded,
                                   const uwb::AerConfig& cfg,
                                   std::size_t chunk, dsp::Rng& rng) {
  const Real inf = std::numeric_limits<Real>::infinity();
  uwb::AerLedger ledger(cfg, /*frame_duration_s=*/0.8e-6);
  std::size_t si = 0;
  std::size_t di = 0;
  const auto step = [&](const core::EventStream& s, std::size_t& at) {
    const std::size_t left = s.size() - at;
    const std::size_t n =
        chunk == 0 ? left : std::min<std::size_t>(left, rng.integer(0, chunk));
    const std::span<const core::Event> part(s.events().data() + at, n);
    at += n;
    return part;
  };
  const auto watermark = [&](const core::EventStream& s, std::size_t at) {
    return at < s.size() ? s[at].time_s - static_cast<Real>(rng.integer(
                                              0, 3)) * cfg.min_spacing_s
                         : inf;
  };
  while (si < sent.size() || di < decoded.size()) {
    ledger.push_sent(step(sent, si));
    ledger.push_decoded(step(decoded, di));
    ledger.advance(watermark(sent, si), watermark(decoded, di));
  }
  ledger.advance(inf, inf);
  return ledger.counts();
}

TEST(AerLedger, MatchesGreedyOracleForAnyChunking) {
  // Sent events at least one slot (two windows) apart; each is decoded
  // on time within +-0.7 windows, lost, misrouted or with a wrong code,
  // and spurious frames fall between the slots.
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 2e-6;
  const Real w = 0.5 * cfg.min_spacing_s;
  dsp::Rng rng(4242);
  core::EventStream sent;
  core::EventStream decoded;
  Real t = 1e-4;
  for (int i = 0; i < 4000; ++i) {
    t += cfg.min_spacing_s * static_cast<Real>(1 + rng.integer(0, 3));
    const auto ch = static_cast<std::uint16_t>(rng.integer(0, 7));
    const auto code = static_cast<std::uint8_t>(rng.integer(0, 15));
    sent.add(t, code, ch);
    const Real jitter = w * (1.4 * rng.canonical() - 0.7);
    switch (rng.integer(0, 9)) {
      case 0:
        break;  // lost on air
      case 1:
        decoded.add(t + jitter, code, static_cast<std::uint16_t>((ch + 1) % 8));
        break;
      case 2:
        decoded.add(t + jitter, static_cast<std::uint8_t>((code + 1) % 16), ch);
        break;
      default:
        decoded.add(t + jitter, code, ch);
    }
    if (rng.integer(0, 9) == 0) decoded.add(t + 0.8 * w, code, ch);
  }
  const auto want = oracle::match_streams(sent, decoded, w);
  ASSERT_GT(want.matched, 3000u);
  ASSERT_GT(want.address_errors, 100u);
  ASSERT_GT(want.code_errors, 100u);
  ASSERT_GT(want.spurious, 10u);
  EXPECT_LT(want.matched, sent.size());  // some sent events never arrive
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{0}}) {
    EXPECT_EQ(ledger_counts(sent, decoded, cfg, chunk, rng), want)
        << "chunk " << chunk;
  }
}

/// Ledger of one sent event and one frame `offset_s` after it.
uwb::AerLedgerCounts one_pair(const uwb::AerConfig& cfg, Real frame_s,
                              Real offset_s) {
  uwb::AerLedger ledger(cfg, frame_s);
  const std::vector<core::Event> sent{{1e-3, 5, 2}};
  const std::vector<core::Event> decoded{{1e-3 + offset_s, 5, 2}};
  ledger.push_sent(sent);
  ledger.push_decoded(decoded);
  const Real inf = std::numeric_limits<Real>::infinity();
  ledger.advance(inf, inf);
  return ledger.counts();
}

TEST(AerLedger, WindowIsHalfTheSpacingOrHalfTheFrame) {
  const uwb::AerLedgerCounts matched{1, 0, 0, 0};
  const uwb::AerLedgerCounts spurious{0, 0, 0, 1};
  uwb::AerConfig cfg;
  cfg.min_spacing_s = 2e-6;
  EXPECT_EQ(one_pair(cfg, 0.8e-6, 0.99e-6), matched);
  EXPECT_EQ(one_pair(cfg, 0.8e-6, 1.01e-6), spurious);
  cfg.min_spacing_s = 0.0;
  EXPECT_EQ(one_pair(cfg, 0.8e-6, 0.39e-6), matched);
  EXPECT_EQ(one_pair(cfg, 0.8e-6, 0.41e-6), spurious);
  EXPECT_THROW(uwb::AerLedger(cfg, 0.0), std::invalid_argument);
}

/// Pulses tagged with their input position, so stability is visible.
uwb::PulseTrain tagged_train(const std::vector<Real>& times) {
  uwb::PulseTrain t;
  for (std::size_t i = 0; i < times.size(); ++i) {
    t.add({times[i], 1.0, static_cast<std::uint32_t>(i), false});
  }
  return t;
}

void expect_reorder_matches_stable_sort(const std::vector<Real>& times,
                                        bool expect_fallback) {
  auto got = tagged_train(times).pulses();
  auto want = got;
  std::stable_sort(want.begin(), want.end(),
                   [](const uwb::PulseEmission& a,
                      const uwb::PulseEmission& b) {
                     return a.time_s < b.time_s;
                   });
  EXPECT_EQ(uwb::reorder_by_time(got), expect_fallback);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time_s, want[i].time_s) << i;
    EXPECT_EQ(got[i].packet_id, want[i].packet_id) << i;
  }
}

TEST(Reorder, MatchesStableSortOnEveryInputShape) {
  dsp::Rng rng(77);
  const std::size_t n = 600;
  std::vector<Real> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = 1e-6 * static_cast<Real>(i);
  expect_reorder_matches_stable_sort(sorted, false);

  // Nearly sorted: jitter of a few spacings, a few inversions per pulse.
  std::vector<Real> nearly = sorted;
  for (auto& t : nearly) t += 2.5e-6 * rng.uniform();
  ASSERT_FALSE(std::is_sorted(nearly.begin(), nearly.end()));
  expect_reorder_matches_stable_sort(nearly, false);

  // Equal times: overlapping frames on a shared radio tie on the slot
  // grid; ties must keep input order.
  std::vector<Real> ties(n);
  for (auto& t : ties) t = 1e-7 * static_cast<Real>(rng.integer(0, 40));
  std::sort(ties.begin(), ties.end());
  for (std::size_t i = 0; i + 3 < n; i += 7) std::swap(ties[i], ties[i + 3]);
  expect_reorder_matches_stable_sort(ties, false);

  // Reversed: n^2/2 inversions exceed the move budget.
  std::vector<Real> reversed(sorted.rbegin(), sorted.rend());
  for (std::size_t i = 0; i < n; i += 5) reversed[i] = reversed[i + 1];
  expect_reorder_matches_stable_sort(reversed, true);

  expect_reorder_matches_stable_sort({}, false);
  expect_reorder_matches_stable_sort({0.5}, false);
}

TEST(EventStream, HelpersBehave) {
  core::EventStream ev;
  ev.add(0.3, 1, 2);
  ev.add(0.1, 2, 1);
  EXPECT_FALSE(ev.is_time_sorted());
  ev.sort_by_time();
  EXPECT_TRUE(ev.is_time_sorted());
  EXPECT_EQ(ev.count_in(0.0, 0.2), 1u);
  EXPECT_DOUBLE_EQ(ev.mean_rate_hz(2.0), 1.0);
  const auto ch1 = ev.channel_slice(1);
  ASSERT_EQ(ch1.size(), 1u);
  EXPECT_DOUBLE_EQ(ch1[0].time_s, 0.1);
}

}  // namespace
