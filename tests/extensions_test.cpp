// Cross-cutting extension scenarios: non-ideal analog behaviour inside
// the closed D-ATC loop, artifact removal with the notch designer, and
// hardware-activity effects of comparator hysteresis.

#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "dsp/biquad.hpp"
#include "dsp/emg_metrics.hpp"
#include "dsp/stats.hpp"
#include "dsp/filter_design.hpp"
#include "emg/artifacts.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "spectral_helpers.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

emg::Recording mid_recording(std::uint64_t seed = 404) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.gain_v = 0.35;
  spec.duration_s = 8.0;
  return emg::make_recording(spec);
}

TEST(Extensions, ComparatorHysteresisKeepsTrackingAndCutsToggles) {
  const auto rec = mid_recording();
  core::DatcEncoderConfig clean;
  core::DatcEncoderConfig hyst;
  hyst.comparator.hysteresis_v = 0.02;
  const auto a = core::encode_datc(rec.emg_v, clean);
  const auto b = core::encode_datc(rec.emg_v, hyst);

  auto toggles = [](const core::DatcTrace& tr) {
    std::size_t n = 0;
    for (std::size_t i = 1; i < tr.d_out.size(); ++i) {
      n += tr.d_out[i] != tr.d_out[i - 1];
    }
    return n;
  };
  // Hysteresis suppresses chattering near the threshold: fewer d_out
  // transitions, hence fewer events and less switching power.
  EXPECT_LT(toggles(b.trace), toggles(a.trace));
  EXPECT_LT(b.events.size(), a.events.size());
  EXPECT_GT(b.events.size(), a.events.size() / 3);  // but not starved
}

TEST(Extensions, ComparatorOffsetShiftsOperatingPoint) {
  const auto rec = mid_recording(405);
  core::DatcEncoderConfig pos;
  pos.comparator.offset_v = 0.05;  // input looks bigger -> higher codes
  core::DatcEncoderConfig neg;
  neg.comparator.offset_v = -0.05;
  const auto a = core::encode_datc(rec.emg_v, pos);
  const auto b = core::encode_datc(rec.emg_v, neg);
  Real mean_a = 0.0;
  Real mean_b = 0.0;
  for (const auto c : a.trace.set_vth) mean_a += c;
  for (const auto c : b.trace.set_vth) mean_b += c;
  mean_a /= static_cast<Real>(a.trace.set_vth.size());
  mean_b /= static_cast<Real>(b.trace.set_vth.size());
  // The DTC absorbs the offset by retargeting the DAC level.
  EXPECT_GT(mean_a, mean_b);
}

TEST(Extensions, MetastableComparatorDegradesGracefully) {
  const auto rec = mid_recording(406);
  const emg::Evaluator eval;
  const auto clean = eval.datc(rec);

  core::DatcEncoderConfig flaky;
  flaky.comparator.metastable_window_v = 0.01;
  flaky.comparator.metastable_prob = 0.25;
  // The comparator model needs an RNG when metastability is enabled; the
  // encoder constructs its own Comparator, so run the encoder manually.
  core::Dtc dtc(flaky.dtc);
  afe::Dac dac(afe::DacConfig{flaky.dtc.dac_bits, flaky.dac_vref});
  afe::Comparator cmp(flaky.comparator, dsp::Rng(9));
  core::EventStream events;
  const auto cycles = static_cast<std::size_t>(
      rec.emg_v.duration_s() * flaky.clock_hz);
  for (std::size_t k = 0; k < cycles; ++k) {
    const Real t = static_cast<Real>(k) / flaky.clock_hz;
    const Real v = std::abs(rec.emg_v.at_time(t));
    const unsigned code = dtc.set_vth();
    const auto s = dtc.step(cmp.compare(v, dac.voltage(code)));
    if (s.event) events.add(t, static_cast<std::uint8_t>(code));
  }
  const auto recon =
      eval.reconstruct_datc(events, rec.emg_v.duration_s());
  const auto truth = eval.ground_truth(rec);
  const std::size_t n = std::min(truth.size(), recon.size());
  const Real corr = dsp::correlation_percent(
      std::span<const Real>(truth.data(), n),
      std::span<const Real>(recon.data(), n));
  // Metastability near the threshold adds decision noise but no bias.
  EXPECT_GT(corr, clean.correlation_pct - 8.0);
}

TEST(Extensions, NotchRemovesInjectedHum) {
  auto rec = mid_recording(407);
  emg::ArtifactConfig art;
  art.powerline_amplitude = 0.08;
  dsp::Rng rng(3);
  emg::inject_artifacts(rec.emg_v, art, rng);
  const Real before =
      testutil::tone_power_fraction(rec.emg_v.view(), 2500.0, 50.0);
  dsp::BiquadCascade notch({dsp::notch(50.0, 8.0, 2500.0)});
  auto filtered = notch.filter(rec.emg_v.view());
  const Real after = testutil::tone_power_fraction(filtered, 2500.0, 50.0);
  EXPECT_GT(before, 0.05);
  EXPECT_LT(after, before / 10.0);
}

TEST(Extensions, DacInlBarelyMovesDatc) {
  // Static DAC nonlinearity of 0.3 LSB RMS: the feedback loop retargets
  // around it; correlation should not collapse.
  const auto rec = mid_recording(408);
  const emg::Evaluator eval;
  const auto ideal = eval.datc(rec);

  core::DatcEncoderConfig cfg;
  core::Dtc dtc(cfg.dtc);
  afe::DacConfig dac_cfg{cfg.dtc.dac_bits, cfg.dac_vref, 0.3, 77};
  afe::Dac dac(dac_cfg);
  afe::Comparator cmp;
  core::EventStream events;
  const auto cycles =
      static_cast<std::size_t>(rec.emg_v.duration_s() * cfg.clock_hz);
  for (std::size_t k = 0; k < cycles; ++k) {
    const Real t = static_cast<Real>(k) / cfg.clock_hz;
    const Real v = std::abs(rec.emg_v.at_time(t));
    const unsigned code = dtc.set_vth();
    const auto s = dtc.step(cmp.compare(v, dac.voltage(code)));
    if (s.event) events.add(t, static_cast<std::uint8_t>(code));
  }
  const auto recon = eval.reconstruct_datc(events, rec.emg_v.duration_s());
  const auto truth = eval.ground_truth(rec);
  const std::size_t n = std::min(truth.size(), recon.size());
  const Real corr = dsp::correlation_percent(
      std::span<const Real>(truth.data(), n),
      std::span<const Real>(recon.data(), n));
  EXPECT_GT(corr, ideal.correlation_pct - 5.0);
}

// Evaluator-level dataset property: over a mixed-gain subset, D-ATC's
// mean correlation beats ATC's and its event count varies far less.
TEST(Extensions, DatasetSubsetHeadlineProperty) {
  emg::DatasetConfig dc;
  dc.num_patterns = 12;
  dc.duration_s = 8.0;
  const emg::DatasetFactory factory(dc);
  const emg::Evaluator eval;
  Real sum_a = 0.0;
  Real sum_d = 0.0;
  std::size_t ev_min_d = SIZE_MAX;
  std::size_t ev_max_d = 0;
  std::size_t ev_min_a = SIZE_MAX;
  std::size_t ev_max_a = 0;
  for (std::size_t i = 0; i < factory.specs().size(); ++i) {
    const auto rec = factory.make(i);
    const auto a = eval.atc(rec, 0.3);
    const auto d = eval.datc(rec);
    sum_a += a.correlation_pct;
    sum_d += d.correlation_pct;
    ev_min_a = std::min(ev_min_a, a.num_events);
    ev_max_a = std::max(ev_max_a, a.num_events);
    ev_min_d = std::min(ev_min_d, d.num_events);
    ev_max_d = std::max(ev_max_d, d.num_events);
  }
  EXPECT_GT(sum_d, sum_a);
  const Real spread_a = static_cast<Real>(ev_max_a) /
                        static_cast<Real>(std::max<std::size_t>(ev_min_a, 1));
  const Real spread_d = static_cast<Real>(ev_max_d) /
                        static_cast<Real>(std::max<std::size_t>(ev_min_d, 1));
  EXPECT_LT(spread_d, spread_a);
}

}  // namespace
