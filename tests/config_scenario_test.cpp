// Scenario layer acceptance: parser/serializer round-trips, line-precise
// validation, the shipped preset library, and — the refactor's contract —
// factory-built pipelines bit-identical to the pre-refactor hand-wired
// construction paths (batch, PipelineRunner, streaming, shared-AER,
// record->replay).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "config/scenario_grid.hpp"
#include "sim/stream_parity.hpp"
#include "store/replay.hpp"

namespace datc {
namespace {

namespace fs = std::filesystem;
using dsp::Real;

/// Specs equal key-for-key (the round-trip identity the tests gate).
bool scenario_equal(const config::ScenarioSpec& a,
                    const config::ScenarioSpec& b) {
  for (const auto& k : config::scenario_keys()) {
    if (k.get(a) != k.get(b)) return false;
  }
  return true;
}

// ------------------------------------------------------------ round trips

TEST(ScenarioSpecTest, DefaultSpecIsValid) {
  EXPECT_TRUE(config::ScenarioSpec{}.validate().empty());
}

TEST(ScenarioSpecTest, SerializeParseRoundTripIsIdentity) {
  for (const auto& name : config::preset_names()) {
    const auto spec = config::make_preset(name);
    const auto text = config::serialize_scenario(spec);
    const auto reparsed = config::parse_scenario(text, name);
    EXPECT_TRUE(scenario_equal(spec, reparsed)) << name;
    // Fixed point: serialize(parse(serialize(s))) == serialize(s).
    EXPECT_EQ(text, config::serialize_scenario(reparsed)) << name;
  }
}

TEST(ScenarioSpecTest, ParsesHandWrittenTextWithShortKeysAndComments) {
  const auto spec = config::parse_scenario(
      "# a hand-written scenario\n"
      "scenario = hand.written-1\n"
      "\n"
      "channels=8            # short key, no spaces\n"
      "  link.distance_m   =   1.5\n"
      "topology = shared     # unique prefix of aer.topology's leaf\n"
      "erasure_prob = 0.25   # trailing comment\n");
  EXPECT_EQ(spec.name, "hand.written-1");
  EXPECT_EQ(spec.source.channels, 8u);
  EXPECT_EQ(spec.link.distance_m, 1.5);
  EXPECT_EQ(spec.aer.topology, config::LinkTopology::kSharedAer);
  EXPECT_EQ(spec.link.erasure_prob, 0.25);
}

TEST(ScenarioSpecTest, ResolvesShortAndPrefixKeys) {
  EXPECT_EQ(config::resolve_scenario_key("channels").key, "source.channels");
  EXPECT_EQ(config::resolve_scenario_key("distance").key, "link.distance_m");
  EXPECT_EQ(config::resolve_scenario_key("erasure_prob").key,
            "link.erasure_prob");
  // "seed" names source.seed, link.seed and artifact_seed's leaf is
  // different — exact-leaf pass still finds two: ambiguous.
  EXPECT_THROW((void)config::resolve_scenario_key("seed"),
               config::ScenarioError);
  EXPECT_THROW((void)config::resolve_scenario_key("no_such_key"),
               config::ScenarioError);
}

// ------------------------------------------------- line-precise rejection

void expect_error_containing(const std::string& text,
                             const std::string& needle) {
  try {
    (void)config::parse_scenario(text, "spec");
    FAIL() << "expected ScenarioError containing '" << needle << "'";
  } catch (const config::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

TEST(ScenarioSpecTest, RejectsUnknownKeyWithLineNumber) {
  expect_error_containing("scenario = x\nlink.warp_factor = 9\n", "spec:2");
  expect_error_containing("link.warp_factor = 9\n", "unknown key");
}

TEST(ScenarioSpecTest, RejectsDuplicateKeyCitingBothLines) {
  expect_error_containing(
      "channels = 4\nchannels = 8\n", "duplicate key 'source.channels'");
  expect_error_containing("channels = 4\nchannels = 8\n", "line 1");
}

TEST(ScenarioSpecTest, RejectsMalformedValueWithLineNumber) {
  expect_error_containing("source.duration_s = fast\n", "spec:1");
  expect_error_containing("source.channels = -3\n", "non-negative");
  expect_error_containing("source.channels\n", "key = value");
  expect_error_containing("source.channels =\n", "missing value");
}

TEST(ScenarioSpecTest, RejectsNonFiniteAndNonPositiveRates) {
  expect_error_containing("source.sample_rate_hz = nan\n",
                          "spec:1: source.sample_rate_hz");
  expect_error_containing("source.sample_rate_hz = 0\n", "finite and > 0");
  expect_error_containing("encoder.window_s = 0\n", "encoder.window_s");
  expect_error_containing("link.erasure_prob = 1\n", "[0, 1)");
  expect_error_containing("link.false_alarm_prob = 0\n", "(0, 0.5)");
}

TEST(ScenarioSpecTest, RejectsAddressWidthTooSmallForChannels) {
  expect_error_containing(
      "channels = 8\ntopology = shared\naer.address_bits = 2\n",
      "spec:3: aer.address_bits");
  expect_error_containing(
      "channels = 8\ntopology = shared\naer.address_bits = 2\n",
      "cover only 4 endpoints");
  // Auto width (0) always covers the channel count.
  EXPECT_EQ(config::parse_scenario("channels = 8\ntopology = shared\n")
                .resolved_address_bits(),
            3u);
}

TEST(ScenarioSpecTest, ValidationOfDefaultedKeyCitesTheKey) {
  // gain_hi_v keeps its 0.28 default; the conflicting key sits on line 1.
  expect_error_containing("source.gain_lo_v = 0.5\n",
                          "source.gain_hi_v");
}

TEST(ScenarioSpecTest, SetScenarioKeyDrivesGridOverrides) {
  config::ScenarioSpec spec;
  config::set_scenario_key(spec, "channels", "64");
  config::set_scenario_key(spec, "source.model", "noise");
  EXPECT_EQ(spec.source.channels, 64u);
  EXPECT_EQ(spec.source.model, config::SourceModel::kFilteredNoise);
  EXPECT_THROW(config::set_scenario_key(spec, "source.model", "quantum"),
               config::ScenarioError);
}

// ------------------------------------------------------- preset library

TEST(ScenarioPresetTest, ShippedFilesMatchBuiltinPresets) {
  const fs::path dir = DATC_SCENARIO_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& name : config::preset_names()) {
    const auto path = dir / (name + ".datc");
    ASSERT_TRUE(fs::is_regular_file(path)) << path;
    const auto from_file = config::parse_scenario_file(path.string());
    EXPECT_TRUE(scenario_equal(from_file, config::make_preset(name)))
        << name << ": scenarios/" << name
        << ".datc drifted from the built-in (run `datc scenario emit all`)";
    ++seen;
  }
  EXPECT_EQ(seen, config::preset_names().size());
  // No stray .datc files without a matching builtin.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".datc") continue;
    const auto stem = entry.path().stem().string();
    EXPECT_NE(std::find(config::preset_names().begin(),
                        config::preset_names().end(), stem),
              config::preset_names().end())
        << "unregistered preset file " << entry.path();
  }
}

TEST(ScenarioPresetTest, EveryPresetRunsEndToEnd) {
  for (const auto& name : config::preset_names()) {
    auto spec = config::make_preset(name);
    // Shortened pass; the bench runs the full-length presets.
    config::set_scenario_key(spec, "source.duration_s", "1");
    if (spec.source.channels > 4) {
      config::set_scenario_key(spec, "source.channels", "4");
    }
    const auto report = config::run_scenario(spec);
    EXPECT_GT(report.events_tx, 0u) << name;
    EXPECT_GT(report.events_rx, 0u) << name;
    EXPECT_GT(report.mean_rx_correlation_pct, 0.0) << name;
  }
}

// -------------------------------------- factory vs legacy bit-identity
//
// The hand-built structs below restate the pre-refactor wiring on
// purpose: they are the frozen reference the factory must keep matching.

config::ScenarioSpec identity_spec() {
  auto spec = config::make_preset("paper-baseline");
  config::set_scenario_key(spec, "source.duration_s", "2");
  config::set_scenario_key(spec, "link.erasure_prob", "0.05");
  config::set_scenario_key(spec, "link.distance_m", "0.6");
  config::set_scenario_key(spec, "link.seed", "321");
  return spec;
}

uwb::LinkConfig legacy_link() {
  uwb::LinkConfig link;
  link.seed = 321;
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;
  return link;
}

TEST(FactoryParityTest, RunnerConfigMatchesLegacyWiring) {
  auto spec = identity_spec();
  config::set_scenario_key(spec, "source.channels", "3");
  config::set_scenario_key(spec, "source.gain_lo_v", "0.16");
  config::set_scenario_key(spec, "source.gain_hi_v", "0.85");
  const config::PipelineFactory factory(spec);
  const auto recs = factory.make_recordings();

  // The block cmd_pipeline used to hand-assemble.
  runtime::RunnerConfig legacy;
  legacy.jobs = 1;
  legacy.link = legacy_link();
  runtime::PipelineRunner legacy_runner(legacy);

  const auto a = factory.make_runner()->run_serial(recs);
  const auto b = legacy_runner.run_serial(recs);
  ASSERT_EQ(a.channels.size(), b.channels.size());
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    EXPECT_EQ(a.channels[i].events_tx, b.channels[i].events_tx);
    EXPECT_EQ(a.channels[i].events_rx, b.channels[i].events_rx);
    EXPECT_EQ(a.channels[i].pulses_tx, b.channels[i].pulses_tx);
    EXPECT_EQ(a.channels[i].rx_correlation_pct,
              b.channels[i].rx_correlation_pct);
    EXPECT_EQ(a.channels[i].tx_correlation_pct,
              b.channels[i].tx_correlation_pct);
  }
}

TEST(FactoryParityTest, StreamingSessionMatchesLegacyBatchPath) {
  const config::PipelineFactory factory(identity_spec());
  const auto rec = factory.make_recording(0);
  // check_stream_parity builds the legacy batch reference internally and
  // compares the streaming session against it bit-for-bit.
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{0}}) {
    const auto r = sim::check_stream_parity(
        rec.emg_v, factory.eval_config(), factory.link_config(),
        factory.calibration(), chunk);
    EXPECT_TRUE(r.identical()) << "chunk " << chunk;
    EXPECT_GT(r.events_batch, 0u);
  }
  // And the factory's own session must equal a hand-built one.
  const auto legacy_cfg = runtime::make_session_config(
      factory.eval_config(), factory.link_config(), factory.calibration());
  auto session_a = factory.make_streaming_session(0);
  runtime::StreamingSession session_b(legacy_cfg, 0);
  std::vector<Real> arv_a;
  std::vector<Real> arv_b;
  session_a->push_chunk(rec.emg_v.samples());
  session_b.push_chunk(rec.emg_v.samples());
  session_a->finish();
  session_b.finish();
  session_a->drain_arv(arv_a);
  session_b.drain_arv(arv_b);
  EXPECT_EQ(arv_a, arv_b);
  EXPECT_EQ(session_a->report().events_rx, session_b.report().events_rx);
}

TEST(FactoryParityTest, SharedAerSessionMatchesLegacyWiring) {
  auto spec = identity_spec();
  config::set_scenario_key(spec, "source.channels", "4");
  config::set_scenario_key(spec, "source.model", "noise");
  config::set_scenario_key(spec, "topology", "shared");
  const config::PipelineFactory factory(spec);
  const auto recs = factory.make_recordings();

  // Legacy batch reference: encode -> aer merge -> one radio -> demux.
  std::vector<core::EventStream> tx;
  for (const auto& rec : recs) {
    tx.push_back(core::encode_datc_events(
        rec.emg_v, emg::datc_encoder_config(emg::EvalConfig{})));
  }
  uwb::SharedAerConfig legacy_shared;
  legacy_shared.aer.address_bits = 2;
  legacy_shared.aer.min_spacing_s = 2e-6;
  const auto legacy =
      uwb::run_aer_over_link(tx, legacy_link(), legacy_shared, 4);

  auto session_cfg = factory.session_config();
  session_cfg.keep_rx_events = true;  // retain the streams for comparison
  runtime::SharedAerStreamingSession session(
      session_cfg, factory.shared_config(), recs.size());
  std::vector<Real> round;
  for (const auto& rec : recs) {
    const auto& s = rec.emg_v.samples();
    round.insert(round.end(), s.begin(), s.end());
  }
  session.push_chunk(round);
  session.finish();

  ASSERT_EQ(legacy.per_channel_rx.size(), session.num_channels());
  for (std::size_t c = 0; c < session.num_channels(); ++c) {
    const auto& a = session.rx_events(c);
    const auto& b = legacy.per_channel_rx[c];
    ASSERT_EQ(a.size(), b.size()) << "channel " << c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time_s, b[i].time_s);
      EXPECT_EQ(a[i].vth_code, b[i].vth_code);
      EXPECT_EQ(a[i].channel, b[i].channel);
    }
  }
  EXPECT_EQ(session.arbiter_stats().sent, legacy.arbiter.sent);
  EXPECT_EQ(session.arbiter_stats().dropped, legacy.arbiter.dropped);
}

TEST(FactoryParityTest, RecordReplayThroughFactoryIsBitIdentical) {
  const auto dir =
      (fs::temp_directory_path() / "datc_config_replay_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  const config::PipelineFactory factory(identity_spec());
  const auto rec = factory.make_recording(0);
  auto session = factory.make_streaming_session(0);

  store::RecorderConfig rcfg;
  rcfg.log.dir = dir;
  std::vector<Real> live_arv;
  {
    store::Recorder recorder(rcfg);
    session->set_event_tee([&recorder](std::span<const core::Event> ev) {
      recorder.offer(ev);
    });
    const auto& samples = rec.emg_v.samples();
    for (std::size_t pos = 0; pos < samples.size(); pos += 512) {
      const std::size_t n = std::min<std::size_t>(512, samples.size() - pos);
      session->push_chunk(std::span<const Real>(samples.data() + pos, n));
      session->drain_arv(live_arv);
    }
    session->finish();
    session->drain_arv(live_arv);
    recorder.close();
  }
  store::write_manifest(dir, factory.manifest(rec.emg_v.duration_s()));
  store::write_envelope_f64(dir, live_arv);

  const auto parity =
      store::check_replay_parity(dir, live_arv, factory.calibration());
  EXPECT_TRUE(parity.equal);
  EXPECT_EQ(parity.samples, live_arv.size());
  // The manifest alone must rebuild the identical receiver (no shared
  // calibration object): the path `datc replay` takes.
  const auto parity_cold = store::check_replay_parity(dir);
  EXPECT_TRUE(parity_cold.equal);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace datc
