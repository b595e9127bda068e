// Static timing model and reconstruction-lag verification (xcorr).

#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "dsp/xcorr.hpp"
#include "emg/dataset.hpp"
#include "rtl/dtc_rtl.hpp"
#include "emg/evaluation.hpp"
#include "synth/timing.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

std::vector<rtl::ComponentDescriptor> dtc_components() {
  rtl::DtcRtl dut{core::DtcConfig{}};
  std::vector<rtl::ComponentDescriptor> comps;
  dut.describe(comps);
  return comps;
}

TEST(Timing, DtcMeetsPaperClockWithHugeSlack) {
  const auto rep = synth::estimate_dtc_timing(dtc_components());
  EXPECT_GT(rep.total_levels, 10u);
  EXPECT_GT(rep.max_clock_hz, 1e6);   // MHz-class logic...
  EXPECT_LT(rep.max_clock_hz, 1e9);   // ...but an HV process, not GHz
  EXPECT_GT(rep.slack_ns(2000.0), 0.0);
  // At 2 kHz the slack is essentially the whole period.
  EXPECT_GT(rep.slack_ns(2000.0) / (1e9 / 2000.0), 0.999);
}

TEST(Timing, CriticalPathNamesDatapathStages) {
  const auto rep = synth::estimate_dtc_timing(dtc_components());
  bool has_wsum = false;
  bool has_priority = false;
  for (const auto& seg : rep.critical_path) {
    if (seg.name == "wsum") has_wsum = true;
    if (seg.name == "priority_enc") has_priority = true;
  }
  EXPECT_TRUE(has_wsum);
  EXPECT_TRUE(has_priority);
}

TEST(Timing, SlowerGatesLowerFmax) {
  synth::TimingConfig slow;
  slow.gate_delay_ns = 5.0;
  const auto fast_rep = synth::estimate_dtc_timing(dtc_components());
  const auto slow_rep = synth::estimate_dtc_timing(dtc_components(), slow);
  EXPECT_LT(slow_rep.max_clock_hz, fast_rep.max_clock_hz);
}

TEST(Timing, RejectsUnknownInventory) {
  std::vector<rtl::ComponentDescriptor> junk{
      {"mystery", rtl::ComponentKind::kGateMisc, 4}};
  EXPECT_THROW((void)synth::estimate_dtc_timing(junk),
               std::invalid_argument);
}

TEST(Xcorr, FindsKnownShift) {
  dsp::Rng rng(5);
  std::vector<Real> a(2000);
  for (auto& v : a) v = rng.gaussian();
  std::vector<Real> b(a.size(), 0.0);
  constexpr long kShift = 17;
  for (std::size_t i = kShift; i < b.size(); ++i) b[i] = a[i - kShift];
  const auto est = dsp::best_lag(a, b, 50);
  EXPECT_EQ(est.lag_samples, kShift);
  EXPECT_GT(est.correlation, 0.99);
}

TEST(Xcorr, SequenceLengthAndPeak) {
  dsp::Rng rng(6);
  std::vector<Real> a(1000);
  for (auto& v : a) v = rng.gaussian();
  const auto seq = dsp::xcorr_normalized(a, a, 20);
  EXPECT_EQ(seq.size(), 41u);
  EXPECT_NEAR(seq[20], 1.0, 1e-9);  // zero lag, identical signals
}

TEST(Xcorr, Validation) {
  std::vector<Real> a(10, 1.0);
  std::vector<Real> b(12, 1.0);
  EXPECT_THROW((void)dsp::correlation_at_lag(a, b, 0),
               std::invalid_argument);
  std::vector<Real> c(10, 1.0);
  EXPECT_THROW((void)dsp::best_lag(a, c, 10), std::invalid_argument);
}

TEST(Xcorr, ReconstructionIsZeroLag) {
  // The receiver's centred windowing must produce an envelope aligned
  // with the ground truth: best lag within +-40 ms of zero.
  emg::RecordingSpec spec;
  spec.seed = 99;
  spec.gain_v = 0.35;
  spec.duration_s = 8.0;
  const auto rec = emg::make_recording(spec);
  const emg::Evaluator eval;
  const auto tx = core::encode_datc(rec.emg_v, core::DatcEncoderConfig{});
  const auto recon = eval.reconstruct_datc(tx.events, rec.emg_v.duration_s());
  const auto truth = eval.ground_truth(rec);
  const std::size_t n = std::min(truth.size(), recon.size());
  const auto est = dsp::best_lag(
      std::span<const Real>(truth.data(), n),
      std::span<const Real>(recon.data(), n), 500);  // +-200 ms at 2.5 kHz
  EXPECT_LT(std::abs(est.lag_samples), 100);  // within 40 ms
  EXPECT_GT(est.correlation, 0.9);
}

}  // namespace
