// Cross-module integration: the paper's system claims exercised through
// the whole stack (dataset -> encoders -> link -> reconstruction), plus
// the multi-channel AER pipeline and the behavioural/RTL/synthesis chain.

#include <gtest/gtest.h>

#include "dsp/stats.hpp"
#include "emg/evaluation.hpp"
#include "synth/report.hpp"
#include "uwb/aer.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(Integration, FixedThresholdFailsWeakSubjectDatcDoesNot) {
  // A weak-gain recording (thin skin / poor electrode contact): the fixed
  // 0.3 V threshold barely fires while D-ATC adapts — the core Fig. 5
  // story.
  emg::RecordingSpec weak;
  weak.seed = 314159;
  weak.gain_v = 0.16;
  weak.duration_s = 10.0;
  const auto rec = emg::make_recording(weak);
  const emg::Evaluator eval;
  const auto a = eval.atc(rec, 0.3);
  const auto d = eval.datc(rec);
  EXPECT_LT(a.num_events, d.num_events / 3);
  EXPECT_GT(d.correlation_pct, a.correlation_pct + 3.0);
}

TEST(Integration, SymbolOrderingAcrossSchemes) {
  // packet-based >> D-ATC > ATC for any recording (Sec. III-B).
  const auto rec = emg::showcase_recording();
  const emg::Evaluator eval;
  const auto a = eval.atc(rec, 0.3);
  const auto d = eval.datc(rec);
  const auto packet = core::packet_symbols(rec.emg_v.size(), 12);
  EXPECT_GT(packet.total, 10 * d.symbols.total);
  EXPECT_GT(d.symbols.total, a.symbols.total);
}

TEST(Integration, MultichannelAerRoundTrip) {
  // Three electrodes encoded with D-ATC, merged over one AER link,
  // split and reconstructed per channel.
  const emg::Evaluator eval;
  std::vector<emg::Recording> recs;
  std::vector<core::EventStream> streams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    emg::RecordingSpec spec;
    spec.seed = 1000 + s;
    spec.gain_v = 0.35;
    spec.duration_s = 6.0;
    recs.push_back(emg::make_recording(spec));
    core::DatcEncoderConfig enc;
    streams.push_back(core::encode_datc(recs.back().emg_v, enc).events);
  }
  uwb::AerConfig aer;
  aer.min_spacing_s = 0.6e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(streams, aer, &stats);
  EXPECT_GT(stats.sent, 0u);
  const auto split = uwb::aer_split(merged, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    // Arbitration may drop a few colliding events but most survive.
    EXPECT_GT(split[c].size(), streams[c].size() * 8 / 10);
    const auto recon =
        eval.reconstruct_datc(split[c], recs[c].emg_v.duration_s());
    const auto truth = eval.ground_truth(recs[c]);
    const std::size_t n = std::min(recon.size(), truth.size());
    EXPECT_GT(dsp::correlation_percent(
                  std::span<const Real>(truth.data(), n),
                  std::span<const Real>(recon.data(), n)),
              88.0)
        << "channel " << c;
  }
}

TEST(Integration, BehaviouralRtlSynthesisChainOnRealStimulus) {
  // The comparator bitstream of a real encoding run drives the RTL DTC;
  // the synthesis report must come back in the paper's regime.
  emg::RecordingSpec spec;
  spec.seed = 2024;
  spec.gain_v = 0.3;
  spec.duration_s = 4.0;
  const auto rec = emg::make_recording(spec);
  const auto tx = core::encode_datc(rec.emg_v, core::DatcEncoderConfig{});
  std::vector<bool> stimulus;
  stimulus.reserve(tx.trace.d_out.size());
  for (const auto b : tx.trace.d_out) stimulus.push_back(b != 0);

  const auto rep = synth::synthesize_dtc(core::DtcConfig{}, stimulus);
  EXPECT_EQ(rep.num_ports, 12u);
  EXPECT_GT(rep.num_cells, 250u);
  EXPECT_LT(rep.num_cells, 1000u);
  EXPECT_GT(rep.power_default.total_nw(), 10.0);
  EXPECT_LT(rep.power_default.total_nw(), 250.0);
  EXPECT_EQ(rep.activity_cycles, stimulus.size());
}

TEST(Integration, FrameSizeTradeoffExists) {
  // Longer frames average more but adapt slower; all frame sizes must
  // still deliver usable correlation on a mid-gain recording.
  emg::RecordingSpec spec;
  spec.seed = 77;
  spec.gain_v = 0.35;
  spec.duration_s = 8.0;
  const auto rec = emg::make_recording(spec);
  for (const auto frame : core::kAllFrameSizes) {
    emg::EvalConfig cfg;
    cfg.dtc.frame = frame;
    const emg::Evaluator eval(cfg);
    const auto d = eval.datc(rec);
    EXPECT_GT(d.correlation_pct, 80.0)
        << "frame=" << core::frame_cycles(frame);
  }
}

TEST(Integration, DacResolutionSweepMonotoneCost) {
  // More DAC bits -> more symbols per event (cost side of the paper's
  // resolution trade-off).
  const auto rec = emg::showcase_recording();
  std::size_t last_symbols_per_event = 0;
  for (const unsigned bits : {2u, 4u, 6u}) {
    emg::EvalConfig cfg;
    cfg.dtc.dac_bits = bits;
    const emg::Evaluator eval(cfg);
    const auto d = eval.datc(rec);
    EXPECT_EQ(d.symbols.symbols_per_event, 1u + bits);
    EXPECT_GT(d.symbols.symbols_per_event, last_symbols_per_event);
    last_symbols_per_event = d.symbols.symbols_per_event;
  }
}

}  // namespace
