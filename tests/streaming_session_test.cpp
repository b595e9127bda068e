// The streaming session engine: chunked encode -> modulate -> propagate ->
// decode -> reconstruct must be bit-identical to the batch pipeline for
// EVERY chunk size, in both link modes; the SessionManager must preserve
// that while multiplexing sessions across the pool; and the streaming
// building blocks must hold their individual contracts (the TX <-> RX
// ledger round by round, cumulative receiver stats, channel tagging). The
// radio itself is checked against the staged link in uwb_radio_test.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <numeric>

#include "aer_match_reference.hpp"
#include "config/factory.hpp"
#include "core/datc_encoder.hpp"
#include "core/streaming.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "sim/stream_parity.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

core::CalibrationPtr test_calibration() {
  // One Monte Carlo run shared by every test in this binary.
  static const core::CalibrationPtr cal = [] {
    core::RateCalibrationConfig c;
    c.count_fs_hz = 2000.0;
    c.num_samples = 100000;
    return std::make_shared<core::RateCalibration>(c);
  }();
  return cal;
}

emg::Recording make_channel(std::uint64_t seed, Real duration_s, Real gain) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.gain_v = gain;
  spec.name = "stream-ch" + std::to_string(seed);
  return emg::make_recording(spec);
}

uwb::LinkConfig noisy_link(std::uint64_t seed) {
  uwb::LinkConfig link;
  link.seed = seed;
  // Body-area distance above the detector floor, with real impairments:
  // erasures and timing jitter exercise the carried-Rng and reorder paths.
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;
  return link;
}

// ---------------------------------------------------------------- parity

class StreamChunkParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StreamChunkParityTest, PerChannelStreamingMatchesBatchExactly) {
  const auto rec = make_channel(301, 3.0, 0.4);
  const emg::EvalConfig eval;
  const auto r = sim::check_stream_parity(rec.emg_v, eval, noisy_link(17),
                                          test_calibration(), GetParam(),
                                          /*channel_id=*/3);
  EXPECT_TRUE(r.events_equal)
      << "decoded streams differ: batch " << r.events_batch << " vs stream "
      << r.events_stream << " events (chunk " << GetParam() << ")";
  EXPECT_TRUE(r.arv_equal) << "ARV diverged by " << r.max_abs_arv_diff
                           << " over " << r.arv_samples << " samples (chunk "
                           << GetParam() << ")";
  EXPECT_GT(r.events_batch, 10u);  // the link actually carried traffic
  EXPECT_GT(r.arv_samples, 0u);
}

// 0 = whole record in one chunk.
INSTANTIATE_TEST_SUITE_P(ChunkSizes, StreamChunkParityTest,
                         ::testing::Values(1, 7, 64, 4096, 0));

class SharedStreamParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SharedStreamParityTest, SharedAerStreamingMatchesBatchExactly) {
  std::vector<dsp::TimeSeries> chans;
  for (std::size_t c = 0; c < 4; ++c) {
    chans.push_back(
        make_channel(400 + c, 2.0, 0.25 + 0.1 * static_cast<Real>(c)).emg_v);
  }
  const emg::EvalConfig eval;
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = 2;
  shared.aer.min_spacing_s = 2e-6;
  const auto r = sim::check_shared_stream_parity(chans, eval, noisy_link(29),
                                                 shared, test_calibration(),
                                                 GetParam());
  EXPECT_TRUE(r.events_equal)
      << "decoded/demuxed streams differ: batch " << r.events_batch
      << " vs stream " << r.events_stream << " (chunk " << GetParam() << ")";
  EXPECT_TRUE(r.arv_equal) << "ARV diverged by " << r.max_abs_arv_diff
                           << " (chunk " << GetParam() << ")";
  EXPECT_GT(r.events_batch, 40u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, SharedStreamParityTest,
                         ::testing::Values(1, 7, 64, 4096, 0));

// The shared-aer-64ch framing: 6 address bits and 1 us spacing, so frames
// (10 slots of 100 ns after the marker) overlap on air, arbitration ties
// are everywhere and the channel's reorder buffer does real work.
class SharedStream64ParityTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SharedStream64ParityTest, SixtyFourChannelsMatchBatchExactly) {
  std::vector<dsp::TimeSeries> chans;
  for (std::size_t c = 0; c < 64; ++c) {
    chans.push_back(
        make_channel(700 + c, 0.5, 0.16 + 0.011 * static_cast<Real>(c)).emg_v);
  }
  const emg::EvalConfig eval;
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = 6;
  shared.aer.min_spacing_s = 1e-6;
  auto link = noisy_link(61);
  link.channel.erasure_prob = 0.0;  // the gateway's batched-jitter path
  const auto r = sim::check_shared_stream_parity(chans, eval, link, shared,
                                                 test_calibration(),
                                                 GetParam());
  EXPECT_TRUE(r.events_equal)
      << "decoded/demuxed streams differ: batch " << r.events_batch
      << " vs stream " << r.events_stream << " (chunk " << GetParam() << ")";
  EXPECT_TRUE(r.arv_equal) << "ARV diverged by " << r.max_abs_arv_diff
                           << " (chunk " << GetParam() << ")";
  EXPECT_GT(r.events_batch, 5000u);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, SharedStream64ParityTest,
                         ::testing::Values(1, 7, 64, 0));

/// Runs a 4-channel shared session over `link` with a 400 us arbiter
/// spacing (a 200 us ledger window) and short frames (7 slots of 100 ns),
/// fed 7-sample rounds, and checks the ledger after every round against
/// the greedy match of the frames decoded so far, and at the end against
/// the one-pass match over the batch run's merged streams.
void check_ledger_rounds(const uwb::LinkConfig& link) {
  std::vector<dsp::TimeSeries> chans;
  for (std::size_t c = 0; c < 4; ++c) {
    chans.push_back(
        make_channel(500 + c, 2.0, 0.25 + 0.1 * static_cast<Real>(c)).emg_v);
  }
  const emg::EvalConfig eval;
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = 2;
  shared.aer.min_spacing_s = 400e-6;
  const Real window = 0.5 * shared.aer.min_spacing_s;

  std::vector<core::EventStream> tx;
  for (const auto& ch : chans) {
    tx.push_back(
        core::encode_datc_events(ch, emg::datc_encoder_config(eval)));
  }
  const auto batch =
      uwb::run_aer_over_link(tx, link, shared, eval.dtc.dac_bits);

  runtime::SharedAerStreamingSession session(
      runtime::make_session_config(eval, link, test_calibration()), shared,
      chans.size());
  core::EventStream decoded;
  session.set_event_tee([&decoded](std::span<const core::Event> events) {
    for (const auto& e : events) decoded.add(e.time_s, e.vth_code, e.channel);
  });
  const std::size_t chunk = 7;
  const std::size_t n = chans[0].size();
  std::vector<Real> round;
  for (std::size_t pos = 0; pos < n; pos += chunk) {
    const std::size_t k = std::min(chunk, n - pos);
    round.clear();
    for (const auto& ch : chans) {
      round.insert(round.end(),
                   ch.samples().begin() + static_cast<long>(pos),
                   ch.samples().begin() + static_cast<long>(pos + k));
    }
    session.push_chunk(round);
    ASSERT_EQ(session.ledger(),
              oracle::match_streams(batch.merged_tx, decoded, window))
        << "round at sample " << pos << ", " << decoded.size()
        << " frames decoded";
  }
  session.finish();
  EXPECT_EQ(decoded.size(), batch.merged_rx.size());
  EXPECT_EQ(session.ledger(),
            oracle::match_streams(batch.merged_tx, batch.merged_rx, window));
  EXPECT_GT(session.ledger().address_errors + session.ledger().code_errors,
            0u);
}

TEST(SharedAerSession, LedgerSettlesEachFrameInTheRoundThatDecodesIt) {
  // The session's sent watermark is at least the last send time plus the
  // spacing, and a frame is decoded only once the radio has released its
  // whole window (12 jitter sigmas behind that watermark). So a decoded
  // frame is settled in the round that decodes it, and no sent event
  // still to come lies within its window. (The ledger's own hold-back for
  // frames the watermark has not passed is checked by
  // AerLedger.MatchesGreedyOracleForAnyChunking; on a session it cannot
  // bind: a frame inside the window of the sent watermark would have to
  // lie half a spacing past the last send, and the radio decodes nothing
  // later than a frame's length past it.)
  check_ledger_rounds(noisy_link(37));
}

TEST(SharedAerSession, LedgerMatchesOracleWhenJitterScattersFrames) {
  // 5 us of jitter (50 slots) scatters every frame's pulses across its
  // neighbours' slots: most decoded frames are spurious or corrupted, and
  // the radio holds 60 us of pulses back. The ledger must still equal the
  // greedy oracle after every round.
  auto link = noisy_link(41);
  link.channel.jitter_rms_s = 5e-6;
  check_ledger_rounds(link);
}

// --------------------------------------------------------- session manager

TEST(SessionManager, MultiplexedSessionsMatchDirectExecution) {
  const emg::EvalConfig eval;
  const auto link = noisy_link(51);
  auto cfg = runtime::make_session_config(eval, link, test_calibration());
  cfg.keep_rx_events = true;

  constexpr std::size_t kChannels = 5;
  constexpr std::size_t kChunk = 300;
  std::vector<emg::Recording> recs;
  for (std::size_t c = 0; c < kChannels; ++c) {
    recs.push_back(make_channel(700 + c, 1.6, 0.2 + 0.08 * static_cast<Real>(c)));
  }

  // Direct, serial execution.
  std::vector<runtime::SessionReport> direct_reports;
  std::vector<std::vector<Real>> direct_arv(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    runtime::StreamingSession s(cfg, static_cast<std::uint32_t>(c));
    const auto& samples = recs[c].emg_v.samples();
    for (std::size_t pos = 0; pos < samples.size(); pos += kChunk) {
      const std::size_t n = std::min(kChunk, samples.size() - pos);
      s.push_chunk(std::span<const Real>(samples.data() + pos, n));
    }
    s.finish();
    s.drain_arv(direct_arv[c]);
    direct_reports.push_back(s.report());
  }

  // Through the manager: 3 workers, tight backpressure bound.
  runtime::SessionManager::Config mcfg;
  mcfg.jobs = 3;
  mcfg.max_pending_chunks = 2;
  runtime::SessionManager manager(mcfg);
  std::vector<runtime::StreamingSession*> sessions;
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t c = 0; c < kChannels; ++c) {
    auto s = std::make_unique<runtime::StreamingSession>(
        cfg, static_cast<std::uint32_t>(c));
    sessions.push_back(s.get());
    ids.push_back(manager.add(std::move(s)));
  }
  // Interleave submissions round-robin so strands genuinely overlap.
  const std::size_t total = recs[0].emg_v.size();
  for (std::size_t pos = 0; pos < total; pos += kChunk) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      const auto& samples = recs[c].emg_v.samples();
      const std::size_t n = std::min(kChunk, samples.size() - pos);
      manager.submit_chunk(ids[c],
                           std::span<const Real>(samples.data() + pos, n));
    }
  }
  for (const auto id : ids) manager.submit_finish(id);
  manager.drain();

  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto& d = direct_reports[c];
    const auto m = sessions[c]->report();
    EXPECT_EQ(d.events_tx, m.events_tx) << c;
    EXPECT_EQ(d.pulses_tx, m.pulses_tx) << c;
    EXPECT_EQ(d.pulses_erased, m.pulses_erased) << c;
    EXPECT_EQ(d.events_rx, m.events_rx) << c;
    EXPECT_EQ(d.arv_emitted, m.arv_emitted) << c;
    std::vector<Real> arv;
    sessions[c]->drain_arv(arv);
    ASSERT_EQ(direct_arv[c].size(), arv.size()) << c;
    for (std::size_t i = 0; i < arv.size(); ++i) {
      ASSERT_EQ(direct_arv[c][i], arv[i]) << "c=" << c << " i=" << i;
    }
  }
}

TEST(SessionManager, ReportsDeltasAndPropagatesErrors) {
  const emg::EvalConfig eval;
  auto cfg =
      runtime::make_session_config(eval, noisy_link(5), test_calibration());
  runtime::SessionManager manager({.jobs = 2, .max_pending_chunks = 1});
  auto owned = std::make_unique<runtime::StreamingSession>(cfg, 0);
  auto* session = owned.get();
  const auto id = manager.add(std::move(owned));

  const auto rec = make_channel(900, 1.0, 0.3);
  manager.submit_chunk(id, rec.emg_v.view());
  manager.drain();
  const auto d1 = session->take_delta();
  EXPECT_EQ(d1.samples_in, rec.emg_v.size());
  EXPECT_GT(d1.events_tx, 0u);
  manager.submit_finish(id);
  manager.drain();
  const auto d2 = session->take_delta();
  EXPECT_EQ(d2.samples_in, 0u);          // no new samples, only the flush
  EXPECT_GT(d2.arv_emitted, 0u);         // the reconstruction tail
  EXPECT_EQ(session->report().samples_in, rec.emg_v.size());

  // A chunk after finish() is a session error: surfaced at drain(), and
  // the manager stays usable.
  manager.submit_chunk(id, rec.emg_v.view());
  EXPECT_THROW(manager.drain(), std::invalid_argument);
  manager.drain();  // no pending work, no stale error
}

TEST(SessionManager, InterleavedDeltaPollsSumToCumulativeTotals) {
  // Two consumers poll the same session at interleaved points: one
  // through take_delta() (shared internal snapshot — the deltas partition
  // the totals across consumers), one keeping its own snapshot via
  // session_report_delta. Both accountings must land exactly on the
  // cumulative report.
  const emg::EvalConfig eval;
  auto cfg = runtime::make_session_config(eval, noisy_link(77),
                                      test_calibration());
  runtime::StreamingSession session(cfg, 0);
  const auto rec = make_channel(901, 2.0, 0.35);
  const auto& samples = rec.emg_v.samples();

  const auto accumulate = [](runtime::SessionReport& into,
                             const runtime::SessionReport& d) {
    into.samples_in += d.samples_in;
    into.events_tx += d.events_tx;
    into.pulses_tx += d.pulses_tx;
    into.pulses_erased += d.pulses_erased;
    into.events_rx += d.events_rx;
    into.arv_emitted += d.arv_emitted;
    into.decode.packets_decoded += d.decode.packets_decoded;
  };

  runtime::SessionReport take_sum_a{};  // take_delta consumer A
  runtime::SessionReport take_sum_b{};  // take_delta consumer B
  runtime::SessionReport own_sum{};     // own-snapshot consumer
  runtime::SessionReport own_before{};
  constexpr std::size_t kChunk = 257;
  std::size_t round = 0;
  for (std::size_t pos = 0; pos < samples.size(); pos += kChunk, ++round) {
    const std::size_t n = std::min(kChunk, samples.size() - pos);
    session.push_chunk(std::span<const Real>(samples.data() + pos, n));
    // Irregular interleaving: A polls on rounds 0,2,4..., B on multiples
    // of 3, the own-snapshot consumer on multiples of 5.
    if (round % 2 == 0) accumulate(take_sum_a, session.take_delta());
    if (round % 3 == 0) accumulate(take_sum_b, session.take_delta());
    if (round % 5 == 0) {
      const auto now = session.report();
      accumulate(own_sum, runtime::session_report_delta(now, own_before));
      own_before = now;
    }
  }
  session.finish();
  accumulate(take_sum_a, session.take_delta());
  {
    const auto now = session.report();
    accumulate(own_sum, runtime::session_report_delta(now, own_before));
  }

  const auto total = session.report();
  EXPECT_GT(total.events_rx, 0u);
  runtime::SessionReport take_sum{};
  accumulate(take_sum, take_sum_a);
  accumulate(take_sum, take_sum_b);
  for (const auto* sum : {&take_sum, &own_sum}) {
    EXPECT_EQ(sum->samples_in, total.samples_in);
    EXPECT_EQ(sum->events_tx, total.events_tx);
    EXPECT_EQ(sum->pulses_tx, total.pulses_tx);
    EXPECT_EQ(sum->pulses_erased, total.pulses_erased);
    EXPECT_EQ(sum->events_rx, total.events_rx);
    EXPECT_EQ(sum->arv_emitted, total.arv_emitted);
    EXPECT_EQ(sum->decode.packets_decoded, total.decode.packets_decoded);
  }
}

// ------------------------------------------------- streaming link pieces

TEST(UwbReceiver, StatsSplitPerCallAndCumulative) {
  // Regression for the stats_ wipe: decoding several trains with one
  // receiver must keep per-call stats per call and running totals intact.
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.5;
  uwb::ChannelConfig ch;
  ch.distance_m = 0.3;
  ch.ref_loss_db = 30.0;
  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  uwb::UwbReceiver rx(rxc, ch, dsp::Rng(31));

  core::EventStream first;
  for (int i = 0; i < 20; ++i) first.add(1e-3 * (i + 1), 9);
  core::EventStream second;
  for (int i = 0; i < 30; ++i) second.add(1e-3 * (i + 1), 5);

  (void)rx.decode(uwb::modulate_datc(first, mod));
  const auto call1 = rx.stats();
  EXPECT_EQ(call1.packets_decoded, 20u);
  (void)rx.decode(uwb::modulate_datc(second, mod));
  const auto call2 = rx.stats();
  EXPECT_EQ(call2.packets_decoded, 30u);

  const auto& total = rx.cumulative_stats();
  EXPECT_EQ(total.packets_decoded, 50u);
  EXPECT_EQ(total.pulses_in, call1.pulses_in + call2.pulses_in);
  EXPECT_EQ(total.pulses_detected,
            call1.pulses_detected + call2.pulses_detected);
  EXPECT_EQ(total.false_alarm_bits,
            call1.false_alarm_bits + call2.false_alarm_bits);
}

TEST(StreamingEncoders, ChannelTagRidesOnEveryEvent) {
  // Regression: streamed events used to hardcode AER address 0.
  const auto rec = make_channel(11, 1.0, 0.4);
  core::EventStream tagged;
  core::StreamingDatcEncoderT<core::EventSink> enc(
      core::DatcEncoderConfig{}, rec.emg_v.sample_rate_hz(),
      [&tagged](const core::Event& e) {
        tagged.add(e.time_s, e.vth_code, e.channel);
      },
      /*channel=*/37);
  enc.push_block(rec.emg_v.view());
  ASSERT_GT(tagged.size(), 0u);
  for (const auto& e : tagged.events()) EXPECT_EQ(e.channel, 37u);

  core::EventStream atc_tagged;
  core::AtcEncoderConfig acfg;
  acfg.threshold_v = 0.1;
  core::StreamingAtcEncoderT<core::EventSink> aenc(
      acfg, rec.emg_v.sample_rate_hz(),
      [&atc_tagged](const core::Event& e) {
        atc_tagged.add(e.time_s, e.vth_code, e.channel);
      },
      /*channel=*/9);
  aenc.push_block(rec.emg_v.view());
  ASSERT_GT(atc_tagged.size(), 0u);
  for (const auto& e : atc_tagged.events()) EXPECT_EQ(e.channel, 9u);
}

TEST(StreamingAtc, FirstSampleAboveThresholdBootstrap) {
  // Satellite edge: a record that OPENS above threshold must not fire on
  // the bootstrap sample — the comparator starts disarmed and must see a
  // dip below the arm level first. Streaming must match the batch rule.
  core::AtcEncoderConfig cfg;
  cfg.threshold_v = 0.5;
  cfg.hysteresis_v = 0.1;
  const std::vector<Real> x = {0.9, 0.8, 0.7,   // above from sample 0
                               0.3,             // below arm level: re-arm
                               0.6, 0.7,        // genuine crossing -> event
                               0.45, 0.55};     // above arm: still disarmed
  const auto batch =
      core::encode_atc(dsp::TimeSeries(x, 100.0), cfg);
  ASSERT_EQ(batch.events.size(), 1u);

  core::EventStream streamed;
  core::StreamingAtcEncoderT<core::EventSink> enc(
      cfg, 100.0, [&streamed](const core::Event& e) {
        streamed.add(e.time_s);
      });
  for (const Real v : x) enc.push(v);
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_DOUBLE_EQ(streamed[0].time_s, batch.events[0].time_s);
  // The crossing interpolates between samples 3 (0.3) and 4 (0.6).
  EXPECT_NEAR(streamed[0].time_s, (3.0 + 2.0 / 3.0) / 100.0, 1e-12);
}

}  // namespace
