// The multi-channel encoding engine: parallel output must be bit-identical
// to serial output, and the fast per-channel pipeline must be bit-identical
// to the seed reference chain (tests/pipeline_reference.hpp) for the same
// per-channel seeds.

#include <atomic>
#include <stdexcept>

#include <gtest/gtest.h>

#include "aer_match_reference.hpp"
#include "core/event_arena.hpp"
#include "pipeline_reference.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

std::vector<emg::Recording> make_channels(std::size_t n, Real duration_s) {
  std::vector<emg::Recording> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emg::RecordingSpec spec;
    spec.seed = 1000 + i;
    spec.duration_s = duration_s;
    // Spread the per-channel gains like the dataset's subject population.
    spec.gain_v = 0.2 + 0.05 * static_cast<Real>(i);
    spec.name = "ch" + std::to_string(i);
    recs.push_back(emg::make_recording(spec));
  }
  return recs;
}

std::vector<core::EventStream> encode_all(
    const std::vector<emg::Recording>& recs, const emg::EvalConfig& eval) {
  std::vector<core::EventStream> tx(recs.size());
  for (std::size_t c = 0; c < recs.size(); ++c) {
    core::EventArena arena;
    core::encode_datc_events(recs[c].emg_v, emg::datc_encoder_config(eval),
                             arena);
    tx[c] = arena.take_stream();
  }
  return tx;
}

TEST(ThreadPool, RunsAllTasks) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  runtime::ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  runtime::parallel_for(pool, hits.size(),
                        [&hits](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, PropagatesTaskException) {
  runtime::ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(PipelineRunner, ParallelIsBitIdenticalToSerial) {
  const auto recs = make_channels(6, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 4;
  cfg.keep_rx_events = true;
  cfg.link.seed = 7;
  runtime::PipelineRunner runner(cfg);

  const auto serial = runner.run_serial(recs);
  const auto parallel = runner.run(recs);

  ASSERT_EQ(serial.channels.size(), parallel.channels.size());
  for (std::size_t i = 0; i < serial.channels.size(); ++i) {
    const auto& s = serial.channels[i];
    const auto& p = parallel.channels[i];
    EXPECT_EQ(s.channel, p.channel);
    EXPECT_EQ(s.events_tx, p.events_tx) << i;
    EXPECT_EQ(s.pulses_tx, p.pulses_tx) << i;
    EXPECT_EQ(s.pulses_erased, p.pulses_erased) << i;
    EXPECT_EQ(s.events_rx, p.events_rx) << i;
    // Exact equality: parallel channels draw from private Rngs.
    EXPECT_EQ(s.tx_correlation_pct, p.tx_correlation_pct) << i;
    EXPECT_EQ(s.rx_correlation_pct, p.rx_correlation_pct) << i;
    ASSERT_EQ(s.rx_events.size(), p.rx_events.size()) << i;
    for (std::size_t k = 0; k < s.rx_events.size(); ++k) {
      EXPECT_EQ(s.rx_events[k].time_s, p.rx_events[k].time_s);
      EXPECT_EQ(s.rx_events[k].vth_code, p.rx_events[k].vth_code);
    }
  }
  EXPECT_GT(parallel.throughput_x_realtime(), 0.0);
  EXPECT_EQ(parallel.emg_seconds_processed, 12.0);
}

TEST(PipelineRunner, FastPathMatchesReference) {
  // The engine's per-channel pipeline (block encode + cached-detection
  // receiver + paired scoring) must reproduce the seed reference chain
  // exactly: same encoder arithmetic, same Rng draw sequence, same scores.
  const auto recs = make_channels(3, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 2;
  cfg.link.seed = 42;
  runtime::PipelineRunner runner(cfg);
  const auto engine = runner.run(recs);

  ASSERT_EQ(engine.channels.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    uwb::LinkConfig link = cfg.link;
    link.seed = cfg.link.seed ^ static_cast<std::uint64_t>(i);
    const auto ref =
        oracle::reference_datc_channel(runner.evaluator(), recs[i], link);
    const auto& ch = engine.channels[i];
    EXPECT_EQ(ch.events_tx, ref.events_tx) << i;
    EXPECT_EQ(ch.pulses_tx, ref.pulses_tx) << i;
    EXPECT_EQ(ch.pulses_erased, ref.pulses_erased) << i;
    EXPECT_EQ(ch.events_rx, ref.events_rx) << i;
    EXPECT_EQ(ch.rx_correlation_pct, ref.rx_correlation_pct) << i;
    EXPECT_EQ(ch.tx_correlation_pct, ref.tx_correlation_pct) << i;
  }
}

TEST(PipelineRunner, SharedAerNoiselessMatchesIdealRadio) {
  // Acceptance gate for the shared-medium mode: with a noiseless channel
  // and zero queue-delay drops, the real radio (modulate -> propagate ->
  // decode -> demux) must reproduce arbitration alone (aer_merge then
  // aer_split, no radio) exactly, per channel, for >= 8 contending
  // encoders.
  const auto recs = make_channels(8, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 4;
  cfg.keep_rx_events = true;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  cfg.link.seed = 11;
  cfg.link.channel = uwb::noiseless_channel();
  cfg.link.modulator.shape.amplitude_v = 0.5;
  cfg.link.detector.false_alarm_prob = 1e-9;
  cfg.shared.aer.address_bits = 3;
  cfg.shared.aer.min_spacing_s = 2e-6;

  runtime::PipelineRunner real_radio(cfg);
  const auto over_air = real_radio.run(recs);

  const auto tx = encode_all(recs, cfg.eval);
  uwb::AerStats arb;
  uwb::AerStats demux;
  const auto ideal = uwb::aer_split(uwb::aer_merge(tx, cfg.shared.aer, &arb),
                                    static_cast<unsigned>(recs.size()),
                                    &demux);

  EXPECT_EQ(over_air.shared.arbiter.dropped, 0u);
  EXPECT_EQ(over_air.shared.arbiter.sent, arb.sent);
  EXPECT_EQ(over_air.shared.pulses_erased, 0u);
  EXPECT_EQ(over_air.shared.demux.invalid_address, 0u);
  EXPECT_EQ(over_air.shared.events_rx, over_air.shared.arbiter.sent);
  EXPECT_EQ(over_air.shared.ledger,
            (uwb::AerLedgerCounts{arb.sent, 0, 0, 0}));
  const auto& eval = real_radio.evaluator();
  ASSERT_EQ(over_air.channels.size(), 8u);
  ASSERT_EQ(ideal.size(), 8u);
  for (std::size_t c = 0; c < over_air.channels.size(); ++c) {
    const auto& a = over_air.channels[c].rx_events;
    const auto& b = ideal[c];
    ASSERT_EQ(a.size(), b.size()) << c;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].time_s, b[k].time_s) << c;
      EXPECT_EQ(a[k].vth_code, b[k].vth_code) << c;
      EXPECT_EQ(a[k].channel, b[k].channel) << c;
    }
    const auto recon =
        eval.reconstruct_datc(b, recs[c].emg_v.duration_s());
    EXPECT_EQ(over_air.channels[c].rx_correlation_pct,
              eval.score(recs[c], {recon}).front())
        << c;
  }
}

TEST(PipelineRunner, SharedModeMatchesBatchLinkAndReconstruction) {
  // Shared mode runs the streaming session. On a noisy 8-channel link it
  // must equal the batch link chain (run_aer_over_link) plus per-channel
  // batch reconstruction exactly: events, both scores, the arbiter, demux
  // and decode stats, and the ledger of the batch run's merged streams.
  const auto recs = make_channels(8, 2.0);
  runtime::RunnerConfig cfg;
  cfg.jobs = 3;
  cfg.keep_rx_events = true;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  cfg.link.seed = 31;
  cfg.link.channel.distance_m = 0.9;
  cfg.link.channel.ref_loss_db = 30.0;
  cfg.link.channel.erasure_prob = 0.05;
  cfg.shared.aer.address_bits = 3;
  cfg.shared.aer.min_spacing_s = 2e-6;
  runtime::PipelineRunner runner(cfg);
  const auto report = runner.run(recs);

  const auto tx = encode_all(recs, cfg.eval);
  const auto batch =
      uwb::run_aer_over_link(tx, cfg.link, cfg.shared, cfg.eval.dtc.dac_bits);
  const auto& s = report.shared;
  EXPECT_EQ(s.arbiter.in_events, batch.arbiter.in_events);
  EXPECT_EQ(s.arbiter.sent, batch.arbiter.sent);
  EXPECT_EQ(s.arbiter.dropped, batch.arbiter.dropped);
  EXPECT_EQ(s.arbiter.max_delay_s, batch.arbiter.max_delay_s);
  EXPECT_EQ(s.demux.in_events, batch.demux.in_events);
  EXPECT_EQ(s.demux.sent, batch.demux.sent);
  EXPECT_EQ(s.demux.invalid_address, batch.demux.invalid_address);
  EXPECT_EQ(s.pulses_tx, batch.pulses_tx);
  EXPECT_EQ(s.pulses_erased, batch.pulses_erased);
  EXPECT_EQ(s.events_rx, batch.merged_rx.size());
  EXPECT_EQ(s.decode.pulses_in, batch.decode.pulses_in);
  EXPECT_EQ(s.decode.pulses_detected, batch.decode.pulses_detected);
  EXPECT_EQ(s.decode.packets_decoded, batch.decode.packets_decoded);
  EXPECT_EQ(s.decode.code_bit_ones_missed, batch.decode.code_bit_ones_missed);
  EXPECT_EQ(s.decode.false_alarm_bits, batch.decode.false_alarm_bits);
  const Real window = 0.5 * cfg.shared.aer.min_spacing_s;
  EXPECT_EQ(s.ledger,
            oracle::match_streams(batch.merged_tx, batch.merged_rx, window));
  // The noisy link must actually corrupt frames for the ledger to show.
  EXPECT_GT(s.ledger.address_errors + s.ledger.code_errors, 0u);
  EXPECT_GT(s.pulses_erased, 0u);

  const auto& eval = runner.evaluator();
  ASSERT_EQ(report.channels.size(), recs.size());
  for (std::size_t c = 0; c < recs.size(); ++c) {
    const auto& ch = report.channels[c];
    const auto& want = batch.per_channel_rx[c];
    EXPECT_EQ(ch.channel, c);
    EXPECT_EQ(ch.events_tx, tx[c].size()) << c;
    EXPECT_EQ(ch.events_rx, want.size()) << c;
    ASSERT_EQ(ch.rx_events.size(), want.size()) << c;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(ch.rx_events[k].time_s, want[k].time_s) << c;
      EXPECT_EQ(ch.rx_events[k].vth_code, want[k].vth_code) << c;
      EXPECT_EQ(ch.rx_events[k].channel, want[k].channel) << c;
    }
    const Real duration = recs[c].emg_v.duration_s();
    const auto pct =
        eval.score(recs[c], {eval.reconstruct_datc(want, duration),
                             eval.reconstruct_datc(tx[c], duration)});
    EXPECT_EQ(ch.rx_correlation_pct, pct[0]) << c;
    EXPECT_EQ(ch.tx_correlation_pct, pct[1]) << c;
  }
}

TEST(PipelineRunner, SharedModeRejectsUnequalRecordsAndCodeDuty) {
  // Lockstep rounds need one record length; the streaming reconstructor
  // inverts rates only, so the code-duty ablation stays with Evaluator.
  runtime::RunnerConfig cfg;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  auto recs = make_channels(3, 1.0);
  runtime::PipelineRunner equal(cfg);
  EXPECT_NO_THROW((void)equal.run_serial(recs));
  recs[2] = make_channels(3, 1.5)[2];
  EXPECT_THROW((void)equal.run_serial(recs), std::invalid_argument);

  cfg.eval.datc_mode = core::DatcDecodeMode::kCodeDuty;
  runtime::PipelineRunner code_duty(cfg);
  EXPECT_THROW((void)code_duty.run(make_channels(3, 1.0)),
               std::invalid_argument);
}

TEST(PipelineRunner, SharedModeEmptyBatchIsANoOp) {
  // Both link modes must accept an empty batch cleanly; the shared path
  // used to reach aer_split with zero channels and throw.
  runtime::RunnerConfig cfg;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  runtime::PipelineRunner runner(cfg);
  const std::vector<emg::Recording> none;
  const auto report = runner.run(none);
  EXPECT_TRUE(report.channels.empty());
  EXPECT_EQ(report.shared.arbiter.in_events, 0u);
  EXPECT_EQ(report.shared.events_rx, 0u);
}

TEST(PipelineRunner, SharedModeParallelMatchesSerial) {
  // The shared link itself is one serial radio, but the encode and
  // reconstruction stages fan out across the pool — the batch must stay
  // bit-identical to the serial run, noise and all.
  const auto recs = make_channels(5, 1.5);
  runtime::RunnerConfig cfg;
  cfg.jobs = 3;
  cfg.keep_rx_events = true;
  cfg.link_mode = runtime::LinkMode::kSharedAer;
  cfg.link.seed = 29;
  cfg.link.channel.distance_m = 0.7;
  cfg.link.channel.ref_loss_db = 30.0;
  cfg.shared.aer.address_bits = 3;
  cfg.shared.aer.min_spacing_s = 2e-6;
  runtime::PipelineRunner runner(cfg);

  const auto serial = runner.run_serial(recs);
  const auto parallel = runner.run(recs);

  EXPECT_EQ(serial.shared.arbiter.sent, parallel.shared.arbiter.sent);
  EXPECT_EQ(serial.shared.pulses_tx, parallel.shared.pulses_tx);
  EXPECT_EQ(serial.shared.pulses_erased, parallel.shared.pulses_erased);
  EXPECT_EQ(serial.shared.events_rx, parallel.shared.events_rx);
  EXPECT_EQ(serial.shared.demux.invalid_address,
            parallel.shared.demux.invalid_address);
  ASSERT_EQ(serial.channels.size(), parallel.channels.size());
  for (std::size_t c = 0; c < serial.channels.size(); ++c) {
    const auto& s = serial.channels[c];
    const auto& p = parallel.channels[c];
    EXPECT_EQ(s.events_tx, p.events_tx) << c;
    EXPECT_EQ(s.events_rx, p.events_rx) << c;
    EXPECT_EQ(s.rx_correlation_pct, p.rx_correlation_pct) << c;
    EXPECT_EQ(s.tx_correlation_pct, p.tx_correlation_pct) << c;
    ASSERT_EQ(s.rx_events.size(), p.rx_events.size()) << c;
    for (std::size_t k = 0; k < s.rx_events.size(); ++k) {
      EXPECT_EQ(s.rx_events[k].time_s, p.rx_events[k].time_s);
      EXPECT_EQ(s.rx_events[k].vth_code, p.rx_events[k].vth_code);
      EXPECT_EQ(s.rx_events[k].channel, p.rx_events[k].channel);
    }
  }
}

TEST(PipelineRunner, CachedDetectionMatchesReferenceDecode) {
  // Build a pulse train, run it through both receiver configurations with
  // the same Rng seed; decoded streams must match event-for-event.
  const auto recs = make_channels(1, 2.0);
  const emg::EvalConfig eval;
  core::DatcEncoderConfig enc;
  enc.dtc = eval.dtc;
  const auto tx = core::encode_datc_events(recs[0].emg_v, enc);

  uwb::ModulatorConfig mod;
  mod.code_bits = eval.dtc.dac_bits;
  const auto train = uwb::modulate_datc(tx, mod);

  uwb::ChannelConfig channel;
  dsp::Rng rng_a(99);
  dsp::Rng rng_b(99);
  const auto prop_a = uwb::propagate(train, channel, rng_a);
  const auto prop_b = uwb::propagate(train, channel, rng_b);

  uwb::UwbReceiverConfig rxc;
  rxc.modulator = mod;
  rxc.cache_detection = false;
  uwb::UwbReceiver rx_ref(rxc, channel, rng_a.fork());
  rxc.cache_detection = true;
  uwb::UwbReceiver rx_fast(rxc, channel, rng_b.fork());

  const auto ev_ref = rx_ref.decode(prop_a.received);
  const auto ev_fast = rx_fast.decode(prop_b.received);
  ASSERT_EQ(ev_ref.size(), ev_fast.size());
  for (std::size_t i = 0; i < ev_ref.size(); ++i) {
    EXPECT_EQ(ev_ref[i].time_s, ev_fast[i].time_s) << i;
    EXPECT_EQ(ev_ref[i].vth_code, ev_fast[i].vth_code) << i;
  }
  EXPECT_EQ(rx_ref.stats().pulses_detected, rx_fast.stats().pulses_detected);
}

}  // namespace
