// Deterministic fault injection and graceful degradation: the same fault
// seed must reproduce the exact same fault sequence — retry/drop/
// quarantine counts and the degraded envelope, bit for bit — while every
// layer survives its faults observably instead of dying on the first one
// (Recorder: retry + counted drop-and-continue; SessionManager:
// quarantine + stall watchdog; streaming receiver: flagged envelope-hold).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "fault/fault.hpp"
#include "runtime/faulty_session.hpp"
#include "fault/file_io.hpp"
#include "fault/health.hpp"
#include "runtime/session.hpp"
#include "sim/stream_parity.hpp"
#include "store/log.hpp"
#include "store/recorder.hpp"

namespace {

namespace fs = std::filesystem;
using datc::dsp::Real;
using namespace datc;

// ------------------------------------------------------- fault primitives

TEST(FaultPrimitivesTest, HashIsDeterministicAndInRange) {
  for (std::uint64_t n = 0; n < 1000; ++n) {
    EXPECT_EQ(fault::mix64(42, n), fault::mix64(42, n));
    const Real u = fault::hash01(42, n);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_EQ(u, fault::hash01(42, n));
  }
  EXPECT_NE(fault::mix64(42, 0), fault::mix64(42, 1));
  EXPECT_NE(fault::mix64(42, 0), fault::mix64(43, 0));
}

TEST(FaultPrimitivesTest, DerivedSeedsSeparateStreams) {
  fault::FaultPlan plan;
  plan.seed = 99;
  EXPECT_NE(plan.store_seed(), plan.seed);
  EXPECT_NE(plan.store_seed(), plan.session_seed(0));
  EXPECT_NE(plan.session_seed(0), plan.session_seed(1));
  // Stable across invocations (it keys every determinism guarantee).
  EXPECT_EQ(plan.store_seed(), fault::derive_seed(99, "store"));
}

TEST(FaultPrimitivesTest, FaultStreamCopiesReplay) {
  fault::FaultStream a(7);
  std::vector<Real> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next01());
  fault::FaultStream b(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(b.next01(), first[i]);
}

// --------------------------------------------------------- faulty file io

TEST(FaultyIoTest, DecisionStreamIsDeterministic) {
  fault::StoreFaultSpec spec;
  spec.write_fail_prob = 0.2;
  spec.fsync_fail_prob = 0.1;
  const auto run = [&spec] {
    fault::FaultyFileIo io(spec, /*seed=*/555);
    for (int n = 0; n < 500; ++n) {
      std::size_t written = 0;
      try {
        io.check_op(/*is_sync=*/n % 10 == 9, 128, &written);
      } catch (const fault::IoError&) {
      }
    }
    return io.stats();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.ops, 500u);
  EXPECT_GT(a.short_writes + a.sync_failures, 0u);
  EXPECT_EQ(a.short_writes, b.short_writes);
  EXPECT_EQ(a.sync_failures, b.sync_failures);
  EXPECT_EQ(a.enospc_failures, b.enospc_failures);
}

TEST(FaultyIoTest, EnospcWindowFailsExactlyTheWindowOps) {
  fault::StoreFaultSpec spec;
  spec.enospc_every_ops = 8;
  spec.enospc_window_ops = 2;
  fault::FaultyFileIo io(spec, 1);
  for (int n = 0; n < 32; ++n) {
    std::size_t written = 0;
    const bool in_window = n % 8 >= 6;
    if (in_window) {
      EXPECT_THROW(io.check_op(false, 64, &written), fault::IoError) << n;
    } else {
      EXPECT_NO_THROW(io.check_op(false, 64, &written)) << n;
    }
  }
  EXPECT_EQ(io.stats().enospc_failures, 8u);
}

TEST(FaultyIoTest, ShortWriteIsTransientAndReportsTornPrefix) {
  fault::StoreFaultSpec spec;
  spec.write_fail_prob = 1.0;
  fault::FaultyFileIo io(spec, 3);
  std::size_t written = 999;
  try {
    io.check_op(false, 100, &written);
    FAIL() << "expected an injected short write";
  } catch (const fault::IoError& e) {
    EXPECT_TRUE(e.transient());
    EXPECT_EQ(written, 50u);  // a prefix landed, then the op failed
  }
}

// ------------------------------------------------------ recorder degraded

class FaultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("datc_fault_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string dir(const char* sub = "") const {
    return (dir_ / sub).string();
  }

  fs::path dir_;
};

std::vector<core::Event> monotone_events(std::size_t n) {
  std::vector<core::Event> ev(n);
  for (std::size_t i = 0; i < n; ++i) {
    ev[i] = core::Event{static_cast<Real>(i) * 1e-4, 1, 0};
  }
  return ev;
}

store::Recorder::Stats record_through_faults(const std::string& dir,
                                             const fault::StoreFaultSpec& spec,
                                             std::uint64_t seed,
                                             std::size_t n_events,
                                             std::size_t max_retries = 4) {
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir;
  rcfg.log.io = std::make_shared<fault::FaultyFileIo>(spec, seed);
  // Queue far larger than the offer so overflow drops (which depend on
  // thread timing) never occur: every drop is an I/O-degradation drop,
  // and the counts are deterministic.
  rcfg.max_queued_events = 1u << 20;
  rcfg.max_io_retries = max_retries;
  rcfg.io_backoff_initial_ms = 0.01;
  rcfg.io_backoff_max_ms = 0.05;
  store::Recorder recorder(rcfg);
  const auto events = monotone_events(n_events);
  // Offer in several chunks (chunk boundaries must not affect op indices).
  for (std::size_t pos = 0; pos < events.size(); pos += 333) {
    const std::size_t n = std::min<std::size_t>(333, events.size() - pos);
    recorder.offer(std::span<const core::Event>(events.data() + pos, n));
  }
  recorder.close();
  return recorder.stats();
}

TEST_F(FaultStoreTest, OfferedEqualsWrittenPlusDroppedUnderIoFaults) {
  fault::StoreFaultSpec spec;
  spec.write_fail_prob = 0.15;
  spec.fsync_fail_prob = 0.1;
  const auto s = record_through_faults(dir("a"), spec, 777, 4000);
  EXPECT_EQ(s.offered, 4000u);
  EXPECT_EQ(s.offered, s.written + s.dropped);
  EXPECT_GT(s.io_errors, 0u);
  EXPECT_GT(s.io_retries, 0u);
  EXPECT_FALSE(s.last_error.empty());
  // Transient faults at 15 % with 4 retries: nearly everything survives.
  EXPECT_GT(s.written, 3900u);
}

TEST_F(FaultStoreTest, SameFaultSeedReproducesIdenticalIoCounts) {
  fault::StoreFaultSpec spec;
  spec.write_fail_prob = 0.3;
  spec.fsync_fail_prob = 0.2;
  spec.enospc_every_ops = 512;
  spec.enospc_window_ops = 8;
  const auto a = record_through_faults(dir("a"), spec, 4242, 2500);
  const auto b = record_through_faults(dir("b"), spec, 4242, 2500);
  EXPECT_EQ(a.written, b.written);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.io_retries, b.io_retries);
  EXPECT_EQ(a.io_dropped, b.io_dropped);
  const auto c = record_through_faults(dir("c"), spec, 4243, 2500);
  EXPECT_NE(a.io_errors, c.io_errors);  // the seed is the lever
}

TEST_F(FaultStoreTest, EnospcBlackoutDropsEverythingButRecorderSurvives) {
  fault::StoreFaultSpec spec;
  spec.enospc_every_ops = 1;  // every op inside the window: total blackout
  spec.enospc_window_ops = 1;
  const auto s = record_through_faults(dir("a"), spec, 1, 60,
                                       /*max_retries=*/1);
  EXPECT_EQ(s.offered, 60u);
  EXPECT_EQ(s.written, 0u);
  EXPECT_EQ(s.dropped, 60u);
  EXPECT_EQ(s.io_dropped, 60u);
  EXPECT_NE(s.last_error.find("ENOSPC"), std::string::npos);
}

TEST_F(FaultStoreTest, DegradedLogRemainsReadable) {
  fault::StoreFaultSpec spec;
  spec.write_fail_prob = 0.4;
  const auto s = record_through_faults(dir("a"), spec, 99, 1000);
  EXPECT_EQ(s.offered, s.written + s.dropped);
  // Whatever was written survived torn writes bit-exactly (positional
  // retries overwrite the torn prefix) and reads back CRC-clean.
  store::LogReader log(dir("a"));
  EXPECT_TRUE(log.verify());
  EXPECT_EQ(log.total_events(), s.written);
}

TEST_F(FaultStoreTest, DestructorCountsSwallowedCloseErrors) {
  const auto before = store::Recorder::destructor_close_errors();
  {
    store::RecorderConfig rcfg;
    rcfg.log.dir = dir("a");
    store::Recorder recorder(rcfg);
    const core::Event good{1.0, 1, 0};
    const core::Event stale{0.5, 1, 0};  // time-order logic error
    recorder.offer({&good, 1});
    recorder.flush();
    recorder.offer({&stale, 1});
    // Destroyed without close(): the destructor must swallow the pending
    // writer error (it cannot throw) but count it.
  }
  EXPECT_EQ(store::Recorder::destructor_close_errors(), before + 1);
}

// ------------------------------------------------------ manifest parsing

void write_manifest_text(const std::string& dir, const std::string& text) {
  std::ofstream f((fs::path(dir) / "manifest.txt").string());
  f << text;
}

std::string manifest_error(const std::string& dir, const std::string& text) {
  write_manifest_text(dir, text);
  try {
    (void)store::read_manifest(dir);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

constexpr char kGoodManifest[] =
    "analog_fs_hz=2500\nduration_s=2\nwindow_s=0.25\ndac_vref=1\n"
    "dac_bits=4\ncount_fs_hz=2000\nband_lo_hz=20\nband_hi_hz=450\n"
    "channel=3\n";

TEST_F(FaultStoreTest, ManifestRejectsMalformedLineWithLineNumber) {
  const auto err = manifest_error(
      dir(), std::string(kGoodManifest) + "this is not a key value pair\n");
  EXPECT_NE(err.find(":10:"), std::string::npos) << err;
  EXPECT_NE(err.find("expected `key=value`"), std::string::npos) << err;
}

TEST_F(FaultStoreTest, ManifestRejectsDuplicateKeyCitingBothLines) {
  const auto err = manifest_error(
      dir(), std::string(kGoodManifest) + "channel=4\n");
  EXPECT_NE(err.find(":10:"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate key 'channel'"), std::string::npos) << err;
  EXPECT_NE(err.find("line 9"), std::string::npos) << err;
}

TEST_F(FaultStoreTest, ManifestRejectsMissingKey) {
  // A truncated manifest must fail loudly, never yield silent defaults.
  const auto err = manifest_error(dir(), "analog_fs_hz=2500\n");
  EXPECT_NE(err.find("missing key"), std::string::npos) << err;
}

TEST_F(FaultStoreTest, ManifestRejectsBadNumbersAndUnknownKeys) {
  auto err = manifest_error(
      dir(),
      "analog_fs_hz=fast\nduration_s=2\nwindow_s=0.25\ndac_vref=1\n"
      "dac_bits=4\ncount_fs_hz=2000\nband_lo_hz=20\nband_hi_hz=450\n"
      "channel=3\n");
  EXPECT_NE(err.find(":1:"), std::string::npos) << err;
  EXPECT_NE(err.find("not a number"), std::string::npos) << err;

  err = manifest_error(
      dir(), std::string(kGoodManifest) + "flux_capacitance=88\n");
  EXPECT_NE(err.find("unknown key 'flux_capacitance'"), std::string::npos)
      << err;

  err = manifest_error(
      dir(),
      "analog_fs_hz=2500\nduration_s=2\nwindow_s=0.25\ndac_vref=1\n"
      "dac_bits=-4\ncount_fs_hz=2000\nband_lo_hz=20\nband_hi_hz=450\n"
      "channel=3\n");
  EXPECT_NE(err.find("non-negative integer"), std::string::npos) << err;
}

TEST_F(FaultStoreTest, ManifestGoodFileStillParses) {
  write_manifest_text(dir(), kGoodManifest);
  const auto m = store::read_manifest(dir());
  EXPECT_DOUBLE_EQ(m.analog_fs_hz, 2500.0);
  EXPECT_EQ(m.dac_bits, 4u);
  EXPECT_EQ(m.channel, 3u);
}

// ------------------------------------------------------- faulty sessions

/// Minimal inner session: counts deliveries and captures samples.
class CapturingSession final : public runtime::Session {
 public:
  void push_chunk(std::span<const Real> samples_v) override {
    ++chunks;
    samples.insert(samples.end(), samples_v.begin(), samples_v.end());
  }
  void finish() override { finished = true; }

  std::size_t chunks{0};
  bool finished{false};
  std::vector<Real> samples;
};

TEST(FaultySessionTest, SameSeedSameFaults) {
  fault::SessionFaultSpec spec;
  spec.chunk_drop_prob = 0.3;
  spec.chunk_dup_prob = 0.2;
  const std::vector<Real> chunk(8, 0.1);
  const auto run = [&](std::uint64_t seed) {
    auto inner = std::make_unique<CapturingSession>();
    auto* raw = inner.get();
    runtime::FaultySession session(std::move(inner), spec, seed);
    for (int i = 0; i < 300; ++i) session.push_chunk(chunk);
    session.finish();
    return std::pair<runtime::SessionFaultStats, std::size_t>(session.stats(),
                                                            raw->chunks);
  };
  const auto [a, delivered_a] = run(1234);
  const auto [b, delivered_b] = run(1234);
  EXPECT_EQ(a.chunks_dropped, b.chunks_dropped);
  EXPECT_EQ(a.chunks_duplicated, b.chunks_duplicated);
  EXPECT_EQ(delivered_a, delivered_b);
  EXPECT_GT(a.chunks_dropped, 0u);
  EXPECT_GT(a.chunks_duplicated, 0u);
  // Delivery accounting: every surviving chunk once, duplicates twice.
  EXPECT_EQ(delivered_a,
            300u - a.chunks_dropped + a.chunks_duplicated);
  const auto [c, delivered_c] = run(77);
  EXPECT_NE(delivered_a, delivered_c);  // different seed, different chaos
}

TEST(FaultySessionTest, PoisonThrowsIntoTheCaller) {
  fault::SessionFaultSpec spec;
  spec.chunk_poison_prob = 1.0;
  runtime::FaultySession session(std::make_unique<CapturingSession>(), spec, 5);
  const std::vector<Real> chunk(4, 0.0);
  EXPECT_THROW(session.push_chunk(chunk), std::runtime_error);
  EXPECT_EQ(session.stats().chunks_poisoned, 1u);
}

TEST(FaultySessionTest, SensorDropoutZeroesADeterministicSlice) {
  fault::SessionFaultSpec spec;
  spec.sensor_dropout_prob = 1.0;
  auto inner = std::make_unique<CapturingSession>();
  auto* raw = inner.get();
  runtime::FaultySession session(std::move(inner), spec, 9);
  const std::vector<Real> chunk(100, 0.5);
  session.push_chunk(chunk);
  const auto zeros = static_cast<std::size_t>(
      std::count(raw->samples.begin(), raw->samples.end(), 0.0));
  EXPECT_EQ(session.stats().sensor_dropout_bursts, 1u);
  EXPECT_EQ(session.stats().samples_corrupted, zeros);
  EXPECT_GT(zeros, 0u);
  EXPECT_LT(zeros, 100u);  // a burst, not the whole chunk
}

TEST(FaultySessionTest, SensorSaturationClipsToTheRails) {
  fault::SessionFaultSpec spec;
  spec.sensor_saturate_prob = 1.0;
  spec.sensor_rail_v = 0.9;
  auto inner = std::make_unique<CapturingSession>();
  auto* raw = inner.get();
  runtime::FaultySession session(std::move(inner), spec, 11);
  std::vector<Real> chunk(64);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = (i % 2 == 0) ? 0.1 : -0.1;
  }
  session.push_chunk(chunk);
  std::size_t railed = 0;
  for (const Real v : raw->samples) {
    if (v == 0.9 || v == -0.9) ++railed;
  }
  EXPECT_EQ(session.stats().samples_corrupted, railed);
  EXPECT_GT(railed, 0u);
}

// -------------------------------------------------- manager fault domains

/// Throws on the Nth chunk; counts deliveries before that.
class ThrowingSession final : public runtime::Session {
 public:
  explicit ThrowingSession(std::size_t throw_on) : throw_on_(throw_on) {}
  void push_chunk(std::span<const Real>) override {
    if (++chunks >= throw_on_) {
      throw std::runtime_error("injected session failure");
    }
  }
  void finish() override { finished = true; }

  std::size_t chunks{0};
  bool finished{false};

 private:
  std::size_t throw_on_;
};

class SleepingSession final : public runtime::Session {
 public:
  void push_chunk(std::span<const Real>) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  void finish() override {}
};

TEST(SessionManagerFaultTest, QuarantineIsolatesTheFailingSession) {
  runtime::SessionManager manager(
      {.jobs = 2, .max_pending_chunks = 2, .rethrow_on_drain = false});
  auto bad = std::make_unique<ThrowingSession>(3);
  std::vector<CapturingSession*> healthy;
  std::vector<runtime::SessionManager::SessionId> ids;
  ids.push_back(manager.add(std::move(bad)));
  for (int c = 0; c < 3; ++c) {
    auto s = std::make_unique<CapturingSession>();
    healthy.push_back(s.get());
    ids.push_back(manager.add(std::move(s)));
  }
  const std::vector<Real> chunk(16, 0.0);
  for (int i = 0; i < 10; ++i) {
    for (const auto id : ids) manager.submit_chunk(id, chunk);
  }
  for (const auto id : ids) manager.submit_finish(id);
  manager.drain();

  // The failing session is quarantined with its error surfaced...
  const auto bad_health = manager.health(ids[0]);
  EXPECT_TRUE(bad_health.quarantined);
  EXPECT_NE(bad_health.error.find("injected session failure"),
            std::string::npos);
  EXPECT_EQ(manager.quarantined_count(), 1u);
  // ...while every healthy session processed its full stream untouched.
  for (std::size_t c = 0; c < healthy.size(); ++c) {
    EXPECT_EQ(healthy[c]->chunks, 10u) << c;
    EXPECT_TRUE(healthy[c]->finished) << c;
    EXPECT_FALSE(manager.health(ids[c + 1]).quarantined) << c;
  }
  // Submissions to a quarantined session are counted, never thrown.
  const auto before = manager.health(ids[0]).chunks_discarded;
  manager.submit_chunk(ids[0], chunk);
  EXPECT_EQ(manager.health(ids[0]).chunks_discarded, before + 1);
}

TEST(SessionManagerFaultTest, DrainStillRethrowsByDefault) {
  runtime::SessionManager manager({.jobs = 2, .max_pending_chunks = 2});
  const auto id = manager.add(std::make_unique<ThrowingSession>(1));
  const std::vector<Real> chunk(4, 0.0);
  manager.submit_chunk(id, chunk);
  EXPECT_THROW(manager.drain(), std::runtime_error);
  manager.drain();  // error consumed; the manager stays usable
  EXPECT_TRUE(manager.health(id).quarantined);
}

TEST(SessionManagerFaultTest, WatchdogFlagsAStalledStrand) {
  runtime::SessionManager manager({.jobs = 2,
                                   .max_pending_chunks = 2,
                                   .rethrow_on_drain = false,
                                   .stall_timeout_s = 0.02});
  const auto slow = manager.add(std::make_unique<SleepingSession>());
  const auto fast = manager.add(std::make_unique<CapturingSession>());
  const std::vector<Real> chunk(4, 0.0);
  manager.submit_chunk(slow, chunk);
  manager.submit_chunk(fast, chunk);
  manager.drain();
  EXPECT_TRUE(manager.health(slow).stall_flagged);
  EXPECT_FALSE(manager.health(fast).stall_flagged);
  // Observation only: the stalled strand was never interrupted.
  EXPECT_FALSE(manager.health(slow).quarantined);
}

// --------------------------------------------------- decode-health monitor

TEST(DecodeHealthTest, DisabledMonitorNeverTrips) {
  fault::DecodeHealthMonitor mon(fault::LinkHealthConfig{});
  mon.observe(1.0, 0, 100);
  mon.observe(100.0, 0, 0);
  EXPECT_TRUE(mon.healthy());
  EXPECT_EQ(mon.trips(), 0u);
}

TEST(DecodeHealthTest, StarvationArmsOnFirstEventThenTripsAndRecovers) {
  fault::LinkHealthConfig cfg;
  cfg.starvation_s = 0.5;
  fault::DecodeHealthMonitor mon(cfg);
  // A silent lead-in (nothing decoded yet) must not trip.
  mon.observe(2.0, 0, 0);
  EXPECT_TRUE(mon.healthy());
  mon.observe(2.1, 3, 0);  // first events: the check arms
  EXPECT_TRUE(mon.healthy());
  mon.observe(2.4, 0, 0);  // 0.3 s of silence: within budget
  EXPECT_TRUE(mon.healthy());
  mon.observe(2.8, 0, 0);  // 0.7 s: starved
  EXPECT_FALSE(mon.healthy());
  EXPECT_STREQ(mon.reason(), "starved");
  EXPECT_EQ(mon.trips(), 1u);
  mon.observe(2.9, 1, 0);  // events return: recovery
  EXPECT_TRUE(mon.healthy());
  EXPECT_STREQ(mon.reason(), "ok");
  EXPECT_EQ(mon.trips(), 1u);
}

TEST(DecodeHealthTest, BadRateTripsOnlyPastMinObservations) {
  fault::LinkHealthConfig cfg;
  cfg.bad_rate = 0.3;
  cfg.window_s = 1.0;
  cfg.min_observations = 8;
  fault::DecodeHealthMonitor mon(cfg);
  // 1 good + 2 bad is over the rate but under min_observations.
  mon.observe(0.1, 1, 2);
  EXPECT_TRUE(mon.healthy());
  // Push the window past the floor with a bad majority: storm.
  mon.observe(0.2, 2, 6);
  EXPECT_FALSE(mon.healthy());
  EXPECT_STREQ(mon.reason(), "bad-rate");
  // Time slides the bad burst out of the window; clean traffic recovers.
  mon.observe(1.5, 8, 0);
  EXPECT_TRUE(mon.healthy());
  EXPECT_EQ(mon.trips(), 1u);
}

// ------------------------------------------------- envelope-hold sessions

core::CalibrationPtr test_calibration() {
  static const core::CalibrationPtr cal = [] {
    core::RateCalibrationConfig c;
    c.count_fs_hz = 2000.0;
    c.num_samples = 100000;
    return std::make_shared<core::RateCalibration>(c);
  }();
  return cal;
}

TEST(EnvelopeHoldTest, StarvationHoldsEnvelopeDeterministically) {
  emg::RecordingSpec rspec;
  rspec.seed = 808;
  rspec.duration_s = 3.0;
  rspec.gain_v = 0.4;
  rspec.name = "hold-test";
  auto rec = emg::make_recording(rspec);
  // Kill the middle second of signal: a dead sensor starves the decoder.
  auto& samples = rec.emg_v.samples();
  const auto lo = static_cast<std::size_t>(1.0 * rspec.sample_rate_hz);
  const auto hi = static_cast<std::size_t>(2.0 * rspec.sample_rate_hz);
  for (std::size_t i = lo; i < hi && i < samples.size(); ++i) {
    samples[i] = 0.0;
  }

  const emg::EvalConfig eval;
  uwb::LinkConfig link;
  link.seed = 17;
  link.channel.distance_m = 0.6;  // a link that actually closes
  link.channel.ref_loss_db = 30.0;
  auto cfg = runtime::make_session_config(eval, link, test_calibration());
  cfg.health.starvation_s = 0.3;

  const auto run = [&] {
    runtime::StreamingSession session(cfg, 0);
    std::vector<Real> arv;
    for (std::size_t pos = 0; pos < samples.size(); pos += 256) {
      const std::size_t n = std::min<std::size_t>(256, samples.size() - pos);
      session.push_chunk(std::span<const Real>(samples.data() + pos, n));
      session.drain_arv(arv);
    }
    session.finish();
    session.drain_arv(arv);
    return std::pair<std::vector<Real>, runtime::SessionReport>(
        arv, session.report());
  };

  const auto [arv_a, report_a] = run();
  EXPECT_GE(report_a.health_trips, 1u);
  EXPECT_GT(report_a.arv_held, 0u);
  // During the hold the envelope is pinned, not garbage: the held samples
  // all equal the last good value (a constant run exists in the output).
  // And the degraded run is bit-identical across executions.
  const auto [arv_b, report_b] = run();
  ASSERT_EQ(arv_a.size(), arv_b.size());
  for (std::size_t i = 0; i < arv_a.size(); ++i) {
    ASSERT_EQ(arv_a[i], arv_b[i]) << "degraded ARV diverged at " << i;
  }
  EXPECT_EQ(report_a.arv_held, report_b.arv_held);
  EXPECT_EQ(report_a.events_quarantined, report_b.events_quarantined);
  EXPECT_EQ(report_a.health_trips, report_b.health_trips);

  // The same stream with the monitor off reconstructs everywhere (no
  // held samples) — the monitor is the only thing that held it.
  auto plain_cfg = cfg;
  plain_cfg.health = fault::LinkHealthConfig{};
  runtime::StreamingSession plain(plain_cfg, 0);
  plain.push_chunk(samples);
  plain.finish();
  const auto plain_report = plain.report();
  EXPECT_EQ(plain_report.arv_held, 0u);
  EXPECT_EQ(plain_report.health_trips, 0u);
}

// ------------------------------------------------------- chaos-soak preset

TEST_F(FaultStoreTest, ChaosSoakPresetDegradesDeterministically) {
  // The CI chaos gate: the chaos-soak preset (store + chunk + sensor
  // faults, lossy link, health monitor armed) must run to completion,
  // keep the accounting invariants, and produce bit-identical degraded
  // output and fault counts across two runs with the same fault seed.
  auto spec = config::make_preset("chaos-soak");
  config::set_scenario_key(spec, "source.duration_s", "3");
  const config::PipelineFactory factory(spec);
  ASSERT_TRUE(spec.has_faults());
  const auto recording = factory.make_recording(0);
  const auto& samples = recording.emg_v.samples();
  const auto plan = factory.fault_plan();

  struct RunResult {
    std::vector<Real> arv;
    runtime::SessionFaultStats session_faults;
    runtime::SessionReport report;
    store::Recorder::Stats store_stats;
  };
  const auto run = [&](const std::string& store_dir) {
    auto inner = factory.make_streaming_session(0);
    auto* streaming = inner.get();
    runtime::FaultySession session(std::move(inner), plan.session,
                                 plan.session_seed(0));
    auto rcfg = factory.recorder_config(store_dir);
    rcfg.max_queued_events = 1u << 20;  // overflow drops are timing-bound
    rcfg.io_backoff_initial_ms = 0.01;
    rcfg.io_backoff_max_ms = 0.05;
    store::Recorder recorder(rcfg);
    streaming->set_event_tee(
        [&recorder](std::span<const core::Event> ev) { recorder.offer(ev); });

    RunResult r;
    const std::size_t chunk = spec.session.chunk_samples;
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, samples.size() - pos);
      session.push_chunk(std::span<const Real>(samples.data() + pos, n));
      streaming->drain_arv(r.arv);
    }
    session.finish();
    streaming->drain_arv(r.arv);
    recorder.close();
    r.session_faults = session.stats();
    r.report = streaming->report();
    r.store_stats = recorder.stats();
    return r;
  };

  const auto a = run(dir("a"));
  const auto b = run(dir("b"));

  // The chaos actually bit: faults fired at every layer.
  EXPECT_GT(a.session_faults.chunks_dropped + a.session_faults.chunks_duplicated,
            0u);
  EXPECT_GT(a.session_faults.samples_corrupted, 0u);
  EXPECT_GT(a.store_stats.io_errors, 0u);
  EXPECT_EQ(a.store_stats.offered, a.store_stats.written + a.store_stats.dropped);

  // Determinism: same fault seed, same degradation — bit for bit.
  ASSERT_EQ(a.arv.size(), b.arv.size());
  for (std::size_t i = 0; i < a.arv.size(); ++i) {
    ASSERT_EQ(a.arv[i], b.arv[i]) << "chaos ARV diverged at " << i;
  }
  EXPECT_EQ(a.session_faults.chunks_dropped, b.session_faults.chunks_dropped);
  EXPECT_EQ(a.session_faults.chunks_duplicated,
            b.session_faults.chunks_duplicated);
  EXPECT_EQ(a.session_faults.chunks_stalled, b.session_faults.chunks_stalled);
  EXPECT_EQ(a.session_faults.samples_corrupted,
            b.session_faults.samples_corrupted);
  EXPECT_EQ(a.report.events_rx, b.report.events_rx);
  EXPECT_EQ(a.report.events_quarantined, b.report.events_quarantined);
  EXPECT_EQ(a.report.arv_held, b.report.arv_held);
  EXPECT_EQ(a.store_stats.written, b.store_stats.written);
  EXPECT_EQ(a.store_stats.dropped, b.store_stats.dropped);
  EXPECT_EQ(a.store_stats.io_errors, b.store_stats.io_errors);
  EXPECT_EQ(a.store_stats.io_retries, b.store_stats.io_retries);
}

}  // namespace
