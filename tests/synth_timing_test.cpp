// Static timing model and reconstruction-lag verification.

#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "dsp/stats.hpp"
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
  // Pearson of truth[i] against recon[i + lag] over the overlap, for
  // every lag in +-200 ms at 2.5 kHz; keep the maximiser.
  constexpr long kMaxLag = 500;
  ASSERT_GT(n, 2 * static_cast<std::size_t>(kMaxLag) + 8);
  long best_lag = 0;
  Real best_pct = -200.0;
  for (long lag = -kMaxLag; lag <= kMaxLag; ++lag) {
    const auto shift = static_cast<std::size_t>(lag < 0 ? -lag : lag);
    const std::size_t overlap = n - shift;
    const std::size_t start_truth = lag < 0 ? shift : 0;
    const std::size_t start_recon = lag < 0 ? 0 : shift;
    const Real pct = dsp::correlation_percent(
        std::span<const Real>(truth.data() + start_truth, overlap),
        std::span<const Real>(recon.data() + start_recon, overlap));
    if (pct > best_pct) {
      best_pct = pct;
      best_lag = lag;
    }
  }
  EXPECT_LT(std::abs(best_lag), 100);  // within 40 ms
  EXPECT_GT(best_pct, 90.0);
}

}  // namespace
