// Evaluation layer: scheme scoring on the showcase recording, the table
// writer, and the end-to-end UWB pipeline.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "core/atc_encoder.hpp"
#include "emg/evaluation.hpp"
#include "runtime/pipeline_runner.hpp"
#include "sim/table_writer.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

// One shared evaluator (two Monte Carlo calibrations) for the fixture.
class EvaluatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval_ = new emg::Evaluator();
    rec_ = new emg::Recording(emg::showcase_recording());
  }
  static void TearDownTestSuite() {
    delete eval_;
    delete rec_;
    eval_ = nullptr;
    rec_ = nullptr;
  }
  static emg::Evaluator* eval_;
  static emg::Recording* rec_;
};

emg::Evaluator* EvaluatorTest::eval_ = nullptr;
emg::Recording* EvaluatorTest::rec_ = nullptr;

TEST_F(EvaluatorTest, DatcBeatsAtcOnShowcase) {
  const auto a = eval_->atc(*rec_, 0.3);
  const auto d = eval_->datc(*rec_);
  // Fig. 3's qualitative result: D-ATC reconstructs better than the fixed
  // 0.3 V threshold and both are in the 85..100 band.
  EXPECT_GT(d.correlation_pct, a.correlation_pct);
  EXPECT_GT(d.correlation_pct, 93.0);
  EXPECT_GT(a.correlation_pct, 85.0);
}

TEST_F(EvaluatorTest, SymbolAccountingWired) {
  const auto d = eval_->datc(*rec_);
  EXPECT_EQ(d.symbols.symbols_per_event, 5u);  // 1 marker + 4 bits
  EXPECT_EQ(d.symbols.total, d.num_events * 5u);
  const auto a = eval_->atc(*rec_, 0.3);
  EXPECT_EQ(a.symbols.total, a.num_events);
}

TEST_F(EvaluatorTest, LowerThresholdMoreEvents) {
  const auto hi = eval_->atc(*rec_, 0.3);
  const auto lo = eval_->atc(*rec_, 0.2);
  EXPECT_GT(lo.num_events, hi.num_events);
}

TEST_F(EvaluatorTest, GroundTruthMatchesSignalLength) {
  const auto truth = eval_->ground_truth(*rec_);
  EXPECT_EQ(truth.size(), rec_->emg_v.size());
}

TEST_F(EvaluatorTest, EndToEndLosslessLinkPreservesScore) {
  runtime::RunnerConfig cfg;
  cfg.eval = eval_->config();
  cfg.link.modulator.shape.amplitude_v = 0.5;
  cfg.link.channel.distance_m = 0.3;
  cfg.link.channel.ref_loss_db = 30.0;
  const runtime::PipelineRunner runner(cfg);
  const auto r = runner.run_channel(*rec_, 0);
  EXPECT_EQ(r.pulses_erased, 0u);
  EXPECT_EQ(r.events_rx, r.events_tx);
  EXPECT_NEAR(r.rx_correlation_pct, r.tx_correlation_pct, 0.5);
}

TEST_F(EvaluatorTest, EndToEndErasuresDegradeGracefully) {
  runtime::RunnerConfig clean;
  clean.eval = eval_->config();
  clean.link.modulator.shape.amplitude_v = 0.5;
  clean.link.channel.distance_m = 0.3;
  clean.link.channel.ref_loss_db = 30.0;
  runtime::RunnerConfig lossy = clean;
  lossy.link.channel.erasure_prob = 0.3;
  const auto ra = runtime::PipelineRunner(clean).run_channel(*rec_, 0);
  const auto rb = runtime::PipelineRunner(lossy).run_channel(*rec_, 0);
  EXPECT_GT(rb.pulses_erased, 0u);
  EXPECT_LT(rb.events_rx, ra.events_rx);
  // The paper's robustness claim: losing pulses hurts only mildly.
  EXPECT_GT(rb.rx_correlation_pct, ra.rx_correlation_pct - 12.0);
}

TEST_F(EvaluatorTest, AtcOverUwbAlsoWorks) {
  uwb::LinkConfig link;
  link.modulator.shape.amplitude_v = 0.5;
  link.channel.distance_m = 0.3;
  link.channel.ref_loss_db = 30.0;
  core::AtcEncoderConfig enc;
  enc.threshold_v = 0.3;
  const auto tx = core::encode_atc(rec_->emg_v, enc);
  const auto r = uwb::run_atc_over_link(tx.events, link);
  const auto recon =
      eval_->reconstruct_atc(r.events_rx, 0.3, rec_->emg_v.duration_s());
  const auto tx_side = eval_->atc(*rec_, 0.3);
  EXPECT_EQ(r.events_rx.size(), tx_side.num_events);
  EXPECT_NEAR(eval_->score(*rec_, {recon}).front(), tx_side.correlation_pct,
              0.5);
}

TEST(TableWriter, AlignedTextAndCsv) {
  sim::Table t({"scheme", "events", "corr %"});
  t.add_row({"ATC", "3183", sim::Table::num(91.5, 1)});
  t.add_row({"D-ATC", "3724", sim::Table::num(96.41, 2)});
  const auto text = t.to_text();
  EXPECT_NE(text.find("scheme"), std::string::npos);
  EXPECT_NE(text.find("3724"), std::string::npos);
  EXPECT_NE(text.find("96.41"), std::string::npos);
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("scheme,events,corr %"), std::string::npos);
  EXPECT_NE(csv.find("D-ATC,3724,96.41"), std::string::npos);
}

TEST(TableWriter, CsvEscaping) {
  sim::Table t({"a", "b"});
  t.add_row({"x,y", "quote\"inside"});
  const auto csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TableWriter, RowWidthValidation) {
  sim::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(sim::Table empty({}), std::invalid_argument);
}

/// Writes the table's CSV to a file (returns false on I/O failure).
bool write_csv(const sim::Table& t, const std::string& path) {
  std::ofstream f(path);
  if (!f.good()) return false;
  f << t.to_csv();
  return f.good();
}

TEST(TableWriter, WriteCsvFile) {
  sim::Table t({"k", "v"});
  t.add_row({"x", "1"});
  EXPECT_TRUE(write_csv(t, "/tmp/datc_table_test.csv"));
  EXPECT_FALSE(write_csv(t, "/nonexistent_dir_xyz/t.csv"));
}

}  // namespace
