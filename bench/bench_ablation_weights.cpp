// Ablation: predictor weights, Listing-1 update-order reading, and the
// receiver decode mode. The paper fixes WF3/WF2/WF1 = 1/0.65/0.35
// "based on data acquired through real experiments"; this bench shows
// where that choice sits.

#include "bench_util.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

struct WeightCase {
  const char* name;
  std::array<Real, 3> w;
};

void print_weights_ablation() {
  bench::print_header(
      "Ablation - predictor weights, update order, decode mode",
      "paper weights {1, 0.65, 0.35}/2 chosen empirically; newest frame "
      "must dominate");

  emg::DatasetConfig dc;
  dc.num_patterns = 24;  // subset for the sweep
  const emg::DatasetFactory factory(dc);

  const WeightCase cases[] = {
      {"paper {1,0.65,0.35}", {1.0, 0.65, 0.35}},
      {"uniform {1,1,1}", {1.0, 1.0, 1.0}},
      {"newest-only {1,0,0.01}", {1.0, 0.0, 0.01}},
      {"long-memory {0.4,0.35,0.25}", {0.4, 0.35, 0.25}},
      {"inverted {0.35,0.65,1}", {0.35, 0.65, 1.0}},
  };

  sim::Table t({"weights", "mean corr %", "min corr %", "mean events"});
  for (const auto& wc : cases) {
    emg::EvalConfig cfg;
    cfg.dtc.weights.w = wc.w;
    const emg::Evaluator eval(cfg);
    Real sum = 0.0;
    Real mn = 100.0;
    Real ev_sum = 0.0;
    for (std::size_t i = 0; i < factory.specs().size(); ++i) {
      const auto d = eval.datc(factory.make(i));
      sum += d.correlation_pct;
      mn = std::min(mn, d.correlation_pct);
      ev_sum += static_cast<Real>(d.num_events);
    }
    const Real n = static_cast<Real>(factory.specs().size());
    t.add_row({wc.name, sim::Table::num(sum / n, 2), sim::Table::num(mn, 1),
               sim::Table::integer(static_cast<std::size_t>(ev_sum / n))});
  }
  std::printf("%s", t.to_text().c_str());

  // Update order (Listing 1 ambiguity) on the showcase.
  const auto& rec = bench::showcase();
  sim::Table t2({"update order", "corr %", "events"});
  for (const auto order : {core::PredictorUpdateOrder::kCountFirst,
                           core::PredictorUpdateOrder::kListingLiteral}) {
    emg::EvalConfig cfg;
    cfg.dtc.order = order;
    const emg::Evaluator eval(cfg);
    const auto d = eval.datc(rec);
    t2.add_row({order == core::PredictorUpdateOrder::kCountFirst
                    ? "count-first (Fig. 4 dataflow)"
                    : "listing-literal (1 frame lag)",
                sim::Table::num(d.correlation_pct, 2),
                sim::Table::integer(d.num_events)});
  }
  std::printf("\nListing-1 reading (see DESIGN.md):\n%s", t2.to_text().c_str());

  // Decode mode at the receiver.
  sim::Table t3({"RX decode mode", "corr % (showcase)"});
  for (const auto mode : {core::DatcDecodeMode::kRateInversion,
                          core::DatcDecodeMode::kCodeDuty}) {
    emg::EvalConfig cfg;
    cfg.datc_mode = mode;
    const emg::Evaluator eval(cfg);
    const auto d = eval.datc(rec);
    t3.add_row({mode == core::DatcDecodeMode::kRateInversion
                    ? "rate inversion (default)"
                    : "code-duty replay",
                sim::Table::num(d.correlation_pct, 2)});
  }
  std::printf("\nreceiver decode mode:\n%s", t3.to_text().c_str());
}

void bench_weight_eval(benchmark::State& state) {
  const auto& rec = bench::showcase();
  const auto& eval = bench::evaluator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.datc(rec).correlation_pct);
  }
}
BENCHMARK(bench_weight_eval)->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_weights_ablation)
