// Recording and deterministic re-simulation: a live streaming session
// tees its decoded events into a Recorder (bounded queue, background
// writer); replaying the stored log through reconstruction reproduces
// the live ARV envelope bit-identically, and queries over the recorded
// log return exactly the session's decoded events.

#include "store/replay.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "runtime/session.hpp"
#include "sim/stream_parity.hpp"
#include "store/recorder.hpp"

namespace {

namespace fs = std::filesystem;
using datc::dsp::Real;
using namespace datc;

class StoreReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("datc_replay_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

core::CalibrationPtr test_calibration() {
  static const core::CalibrationPtr cal = [] {
    core::RateCalibrationConfig c;
    c.count_fs_hz = 2000.0;
    c.num_samples = 100000;
    return std::make_shared<core::RateCalibration>(c);
  }();
  return cal;
}

emg::Recording make_channel(std::uint64_t seed, Real duration_s) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.gain_v = 0.4;
  spec.name = "replay-ch" + std::to_string(seed);
  return emg::make_recording(spec);
}

uwb::LinkConfig noisy_link(std::uint64_t seed) {
  uwb::LinkConfig link;
  link.seed = seed;
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;
  return link;
}

TEST_F(StoreReplayTest, RecordedSessionReplaysBitIdentically) {
  const auto rec = make_channel(601, 3.0);
  const emg::EvalConfig eval;
  const auto link = noisy_link(29);
  auto cfg = runtime::make_session_config(eval, link, test_calibration());
  cfg.keep_rx_events = true;
  runtime::StreamingSession session(cfg, /*channel_id=*/2);

  store::RecorderConfig rcfg;
  rcfg.log.dir = dir();
  rcfg.log.max_events_per_segment = 64;  // force many segments
  std::vector<Real> live_arv;
  {
    store::Recorder recorder(rcfg);
    session.set_event_tee(
        [&recorder](std::span<const core::Event> ev) { recorder.offer(ev); });
    const auto& samples = rec.emg_v.samples();
    for (std::size_t pos = 0; pos < samples.size(); pos += 512) {
      const std::size_t n = std::min<std::size_t>(512, samples.size() - pos);
      session.push_chunk(std::span<const Real>(samples.data() + pos, n));
      session.drain_arv(live_arv);
    }
    session.finish();
    session.drain_arv(live_arv);
    recorder.close();
    const auto stats = recorder.stats();
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.offered, stats.written);
    EXPECT_EQ(stats.written, session.report().events_rx);
    EXPECT_GE(stats.segments_finalized, 3u);
  }
  store::write_manifest(
      dir(), sim::make_session_manifest(eval, 2, rec.emg_v.duration_s()));
  store::write_envelope_f64(dir(), live_arv);

  // The stored log holds exactly the session's decoded stream.
  store::LogReader log(dir());
  const auto stored = log.read_all();
  const auto& rx = session.rx_events();
  ASSERT_EQ(stored.size(), rx.size());
  for (std::size_t i = 0; i < rx.size(); ++i) {
    EXPECT_DOUBLE_EQ(stored[i].time_s, rx[i].time_s);
    EXPECT_EQ(stored[i].vth_code, rx[i].vth_code);
    EXPECT_EQ(stored[i].channel, rx[i].channel);
  }

  // Replay through reconstruction == the live envelope, bit for bit.
  const auto result = store::replay_envelope(dir(), test_calibration());
  ASSERT_EQ(result.arv.size(), live_arv.size());
  for (std::size_t i = 0; i < live_arv.size(); ++i) {
    ASSERT_EQ(result.arv[i], live_arv[i]) << "ARV diverged at sample " << i;
  }

  // The packaged parity check agrees, against the live vector and the
  // recorded envelope.f64 sidecar alike.
  const auto parity =
      store::check_replay_parity(dir(), live_arv, test_calibration());
  EXPECT_TRUE(parity.equal);
  EXPECT_EQ(parity.samples, live_arv.size());
  EXPECT_DOUBLE_EQ(parity.max_abs_diff, 0.0);
  const auto sidecar_parity =
      store::check_replay_parity(dir(), {}, test_calibration());
  EXPECT_TRUE(sidecar_parity.equal);

  // A time-range query over the recording matches count_in on the live
  // decoded stream (half-open window).
  const Real mid_lo = 0.8;
  const Real mid_hi = 1.9;
  EXPECT_EQ(log.query(mid_lo, mid_hi).size(), rx.count_in(mid_lo, mid_hi));
}

TEST_F(StoreReplayTest, ReplayRebuildsCalibrationFromManifest) {
  // Small recording, replayed with NO shared calibration: the manifest
  // alone must parameterise an identical Monte Carlo rebuild. The default
  // calibration config matches test parameters except num_samples, so
  // compare two manifest-driven replays for determinism instead.
  const auto rec = make_channel(602, 1.5);
  const emg::EvalConfig eval;
  auto cfg = runtime::make_session_config(eval, noisy_link(31),
                                      test_calibration());
  runtime::StreamingSession session(cfg, 0);
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir();
  {
    store::Recorder recorder(rcfg);
    session.set_event_tee(
        [&recorder](std::span<const core::Event> ev) { recorder.offer(ev); });
    session.push_chunk(rec.emg_v.samples());
    session.finish();
  }
  store::write_manifest(
      dir(), sim::make_session_manifest(eval, 0, rec.emg_v.duration_s()));

  const auto a = store::replay_envelope(dir());
  const auto b = store::replay_envelope(dir());
  ASSERT_EQ(a.arv.size(), b.arv.size());
  for (std::size_t i = 0; i < a.arv.size(); ++i) {
    ASSERT_EQ(a.arv[i], b.arv[i]);
  }
  EXPECT_GT(a.events, 0u);
  EXPECT_DOUBLE_EQ(a.manifest.analog_fs_hz, eval.analog_fs_hz);
}

TEST_F(StoreReplayTest, SessionManagerTeesIntoPerSessionDirectories) {
  // The production wiring: several sessions multiplexed over the pool,
  // each teeing into its own Recorder/directory. Offers come from strand
  // workers; every stored log must hold exactly its session's decoded
  // stream.
  const emg::EvalConfig eval;
  auto cfg = runtime::make_session_config(eval, noisy_link(37),
                                      test_calibration());
  cfg.keep_rx_events = true;

  constexpr std::size_t kChannels = 3;
  std::vector<emg::Recording> recs;
  std::vector<std::unique_ptr<store::Recorder>> recorders;
  std::vector<runtime::StreamingSession*> sessions;
  runtime::SessionManager manager({.jobs = 2, .max_pending_chunks = 2});
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t c = 0; c < kChannels; ++c) {
    recs.push_back(make_channel(620 + c, 1.5));
    store::RecorderConfig rcfg;
    rcfg.log.dir = (dir_ / ("session-" + std::to_string(c))).string();
    rcfg.log.max_events_per_segment = 100;
    recorders.push_back(std::make_unique<store::Recorder>(rcfg));
    auto s = std::make_unique<runtime::StreamingSession>(
        cfg, static_cast<std::uint32_t>(c));
    auto* recorder = recorders.back().get();
    s->set_event_tee([recorder](std::span<const core::Event> ev) {
      recorder->offer(ev);
    });
    sessions.push_back(s.get());
    ids.push_back(manager.add(std::move(s)));
  }
  constexpr std::size_t kChunk = 500;
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
  for (auto& r : recorders) r->close();

  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto stats = recorders[c]->stats();
    EXPECT_EQ(stats.dropped, 0u) << c;
    EXPECT_EQ(stats.written, sessions[c]->report().events_rx) << c;
    store::LogReader log(recorders[c]->dir());
    const auto stored = log.read_all();
    const auto& rx = sessions[c]->rx_events();
    ASSERT_EQ(stored.size(), rx.size()) << c;
    for (std::size_t i = 0; i < rx.size(); ++i) {
      ASSERT_EQ(stored[i].time_s, rx[i].time_s) << "c=" << c << " i=" << i;
      ASSERT_EQ(stored[i].channel, rx[i].channel);
    }
  }
}

TEST_F(StoreReplayTest, ManifestRoundTrip) {
  store::SessionManifest m;
  m.analog_fs_hz = 2500.0;
  m.duration_s = 12.3456789012345678;
  m.window_s = 0.25;
  m.dac_vref = 1.0;
  m.dac_bits = 4;
  m.count_fs_hz = 2000.0;
  m.band_lo_hz = 20.0;
  m.band_hi_hz = 450.0;
  m.channel = 7;
  store::write_manifest(dir(), m);
  const auto back = store::read_manifest(dir());
  EXPECT_DOUBLE_EQ(back.analog_fs_hz, m.analog_fs_hz);
  EXPECT_EQ(back.duration_s, m.duration_s);  // bit-exact via precision 17
  EXPECT_EQ(back.dac_bits, m.dac_bits);
  EXPECT_EQ(back.channel, m.channel);
}

TEST_F(StoreReplayTest, RecorderDropsWhenQueueFullAndAccountsExactly) {
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir();
  rcfg.max_queued_events = 10;
  store::Recorder recorder(rcfg);
  // Pause the writer so overflow is deterministic, not a race.
  recorder.set_paused(true);
  const auto chunk_at = [](Real t0) {
    std::vector<core::Event> chunk(4);
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = core::Event{t0 + static_cast<Real>(i) * 1e-3, 1, 0};
    }
    return chunk;
  };
  recorder.offer(chunk_at(0.0));  // queued: 4
  recorder.offer(chunk_at(0.1));  // queued: 8
  recorder.offer(chunk_at(0.2));  // only 2 fit; the other 2 are dropped
  {
    const auto s = recorder.stats();
    EXPECT_EQ(s.offered, 12u);
    EXPECT_EQ(s.dropped, 2u);
  }
  recorder.set_paused(false);
  recorder.flush();
  recorder.close();
  const auto s = recorder.stats();
  EXPECT_EQ(s.offered, 12u);
  EXPECT_EQ(s.written, 10u);
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.offered, s.written + s.dropped);
  store::LogReader r(dir());
  EXPECT_EQ(r.total_events(), 10u);
}

TEST_F(StoreReplayTest, RecorderStoresOversizedChunkPrefix) {
  // One decoded chunk can exceed the whole queue bound; the fitting
  // prefix must be stored, not the entire chunk dropped.
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir();
  rcfg.max_queued_events = 8;
  store::Recorder recorder(rcfg);
  recorder.set_paused(true);
  std::vector<core::Event> big(20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = core::Event{static_cast<Real>(i) * 1e-3, 1, 0};
  }
  recorder.offer(big);
  recorder.set_paused(false);
  recorder.close();
  const auto s = recorder.stats();
  EXPECT_EQ(s.offered, 20u);
  EXPECT_EQ(s.written, 8u);
  EXPECT_EQ(s.dropped, 12u);
  store::LogReader r(dir());
  const auto stored = r.read_all();
  ASSERT_EQ(stored.size(), 8u);
  EXPECT_DOUBLE_EQ(stored[7].time_s, big[7].time_s);  // the prefix
}

TEST_F(StoreReplayTest, RecorderSurfacesWriterErrors) {
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir();
  store::Recorder recorder(rcfg);
  const core::Event good{1.0, 1, 0};
  const core::Event stale{0.5, 1, 0};  // violates the log's time order
  recorder.offer({&good, 1});
  recorder.flush();
  recorder.offer({&stale, 1});
  EXPECT_THROW(recorder.close(), std::invalid_argument);
  const auto s = recorder.stats();
  EXPECT_EQ(s.written, 1u);
  EXPECT_EQ(s.dropped, 1u);
  // Even on the error path close() finalized the tail segment: the log
  // is readable without crash recovery, and close() is now a no-op.
  EXPECT_EQ(s.segments_finalized, 1u);
  store::LogReader log(dir());
  ASSERT_EQ(log.segments().size(), 1u);
  EXPECT_TRUE(log.segments()[0].header.finalized);
  EXPECT_EQ(log.total_events(), 1u);
  recorder.close();
}

}  // namespace
