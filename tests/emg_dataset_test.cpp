// Dataset factory (the 190-pattern campaign) and artifact injectors.

#include "emg/dataset.hpp"

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <set>

#include "dsp/envelope.hpp"
#include "dsp/stats.hpp"
#include "emg/artifacts.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

emg::DatasetConfig small_config() {
  emg::DatasetConfig c;
  c.num_patterns = 12;
  c.duration_s = 2.0;  // keep unit tests fast
  return c;
}

TEST(Dataset, SpecCountAndNames) {
  const emg::DatasetFactory f(small_config());
  EXPECT_EQ(f.specs().size(), 12u);
  std::set<std::string> names;
  for (const auto& s : f.specs()) names.insert(s.name);
  EXPECT_EQ(names.size(), 12u);  // unique names
}

TEST(Dataset, DefaultMatchesPaperCampaign) {
  const emg::DatasetFactory f{emg::DatasetConfig{}};
  EXPECT_EQ(f.specs().size(), 190u);
  EXPECT_EQ(f.config().num_subjects, 8u);
  // 50 000 samples over 20 s.
  EXPECT_DOUBLE_EQ(f.specs().front().sample_rate_hz, 2500.0);
  EXPECT_DOUBLE_EQ(f.specs().front().duration_s, 20.0);
}

TEST(Dataset, GainsWithinConfiguredSpread) {
  const auto cfg = small_config();
  const emg::DatasetFactory f(cfg);
  for (const auto& s : f.specs()) {
    EXPECT_GE(s.gain_v, cfg.gain_lo_v * 0.8);   // session jitter floor
    EXPECT_LE(s.gain_v, cfg.gain_hi_v * 1.25);  // session jitter ceiling
  }
}

TEST(Dataset, DeterministicAcrossFactories) {
  const emg::DatasetFactory a(small_config());
  const emg::DatasetFactory b(small_config());
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].seed, b.specs()[i].seed);
    EXPECT_DOUBLE_EQ(a.specs()[i].gain_v, b.specs()[i].gain_v);
  }
  const auto ra = a.make(0);
  const auto rb = b.make(0);
  EXPECT_EQ(ra.emg_v.samples(), rb.emg_v.samples());
}

TEST(Dataset, DefaultCampaignSamplesArePinned) {
  // FNV-1a-64 over the little-endian bytes of every sample of the 190
  // default patterns: a change to synthesis or to the RNG contract that
  // moves any dataset sample moves this value.
  const emg::DatasetFactory f{emg::DatasetConfig{}};
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < f.specs().size(); ++i) {
    const emg::Recording rec = f.make(i);
    for (const Real v : rec.emg_v.samples()) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  EXPECT_EQ(h, 0xab3e2caa2f5fa835ull);
}

TEST(Dataset, RecordingShapeAndScale) {
  const emg::DatasetFactory f(small_config());
  const auto rec = f.make(3);
  EXPECT_EQ(rec.emg_v.size(), 5000u);  // 2 s at 2.5 kHz
  EXPECT_EQ(rec.force.fraction_mvc.size(), rec.emg_v.size());
  EXPECT_THROW((void)f.make(999), std::invalid_argument);
}

TEST(Dataset, ShowcaseRecordingIsStable) {
  const auto rec = emg::showcase_recording();
  EXPECT_EQ(rec.emg_v.size(), 50000u);
  EXPECT_DOUBLE_EQ(rec.spec.gain_v, 0.28);
  // Deterministic: same call gives the same samples.
  const auto again = emg::showcase_recording();
  EXPECT_EQ(rec.emg_v.samples(), again.emg_v.samples());
}

TEST(Artifacts, PowerlineAddsTone) {
  dsp::TimeSeries sig(std::vector<Real>(5000, 0.0), 2500.0);
  emg::ArtifactConfig cfg;
  cfg.powerline_amplitude = 0.1;
  dsp::Rng rng(5);
  emg::inject_artifacts(sig, cfg, rng);
  EXPECT_NEAR(dsp::rms(sig.view()), 0.1 / std::sqrt(2.0), 0.01);
}

TEST(Artifacts, SpikeAndBurstCountsReported) {
  dsp::TimeSeries sig(std::vector<Real>(25000, 0.0), 2500.0);
  emg::ArtifactConfig cfg;
  cfg.spike_rate_hz = 5.0;
  cfg.spike_amp = 1.0;
  cfg.motion_burst_rate_hz = 1.0;
  cfg.motion_burst_amp = 0.5;
  dsp::Rng rng(8);
  const auto injected = emg::inject_artifacts(sig, cfg, rng);
  // 10 s at 5 spikes/s + 1 burst/s: expect on the order of 60 events.
  EXPECT_GT(injected, 20u);
  EXPECT_LT(injected, 150u);
  EXPECT_GT(dsp::max_value(sig.view()), 0.3);
}

TEST(Artifacts, NoConfigNoChange) {
  dsp::TimeSeries sig(std::vector<Real>(100, 0.5), 100.0);
  emg::ArtifactConfig cfg;  // all zero
  dsp::Rng rng(1);
  EXPECT_EQ(emg::inject_artifacts(sig, cfg, rng), 0u);
  for (const Real v : sig.samples()) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(Artifacts, WhiteNoiseRms) {
  dsp::TimeSeries sig(std::vector<Real>(50000, 0.0), 2500.0);
  dsp::Rng rng(9);
  emg::add_white_noise(sig, 0.2, rng);
  EXPECT_NEAR(dsp::rms(sig.view()), 0.2, 0.01);
  EXPECT_THROW(emg::add_white_noise(sig, -1.0, rng), std::invalid_argument);
}

TEST(Artifacts, NormalizeArv) {
  dsp::Rng rng(4);
  std::vector<Real> x(10000);
  for (auto& v : x) v = rng.gaussian();
  dsp::TimeSeries sig(std::move(x), 2500.0);
  emg::normalize_arv(sig, 0.25);
  EXPECT_NEAR(dsp::mean(dsp::rectify(sig.view())), 0.25, 1e-9);
  dsp::TimeSeries zero(std::vector<Real>(10, 0.0), 10.0);
  EXPECT_THROW(emg::normalize_arv(zero, 1.0), std::invalid_argument);
}

TEST(Dataset, SubjectGainsDiffer) {
  // Patterns of different subjects should span a visible gain range —
  // that spread is what defeats the fixed threshold in Fig. 5.
  const emg::DatasetFactory f{emg::DatasetConfig{}};
  Real lo = 1e9;
  Real hi = 0.0;
  for (const auto& s : f.specs()) {
    lo = std::min(lo, s.gain_v);
    hi = std::max(hi, s.gain_v);
  }
  EXPECT_GT(hi / lo, 2.5);
}

}  // namespace
