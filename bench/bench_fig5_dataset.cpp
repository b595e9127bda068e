// Fig. 5 reproduction: correlation of ATC(0.3 V) and D-ATC across the
// 190-pattern dataset. The paper reports ATC spanning 47..95.2 % while
// D-ATC stays within 85..98 % ("lower fluctuation").
//
// The full 190-pattern sweep takes a few seconds, most of it motor-unit
// synthesis; CI runs it and asserts the "shape check" line.

#include "bench_util.hpp"

#include "dsp/stats.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

void print_fig5() {
  bench::print_header(
      "Fig. 5 - correlation across the 190-pattern dataset",
      "ATC(0.3 V) spans 47..95.2 %; D-ATC spans 85..98 % with far lower "
      "fluctuation");

  const emg::DatasetFactory factory(emg::DatasetConfig{});
  const std::size_t n = factory.specs().size();
  const auto& eval = bench::evaluator();

  std::vector<Real> corr_atc;
  std::vector<Real> corr_datc;
  std::vector<Real> ev_atc;
  std::vector<Real> ev_datc;
  std::printf("sweeping %zu patterns (8 synthetic subjects)...\n", n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto rec = factory.make(i);
    const auto a = eval.atc(rec, 0.3);
    const auto d = eval.datc(rec);
    corr_atc.push_back(a.correlation_pct);
    corr_datc.push_back(d.correlation_pct);
    ev_atc.push_back(static_cast<Real>(a.num_events));
    ev_datc.push_back(static_cast<Real>(d.num_events));
  }

  const auto sa = dsp::summarize(corr_atc);
  const auto sd = dsp::summarize(corr_datc);
  sim::Table t({"scheme", "min %", "p05 %", "median %", "p95 %", "max %",
                "std %", "paper range"});
  t.add_row({"ATC(0.3V)", sim::Table::num(sa.min, 1),
             sim::Table::num(sa.p05, 1), sim::Table::num(sa.p50, 1),
             sim::Table::num(sa.p95, 1), sim::Table::num(sa.max, 1),
             sim::Table::num(sa.std_dev, 1), "47 .. 95.2"});
  t.add_row({"D-ATC", sim::Table::num(sd.min, 1), sim::Table::num(sd.p05, 1),
             sim::Table::num(sd.p50, 1), sim::Table::num(sd.p95, 1),
             sim::Table::num(sd.max, 1), sim::Table::num(sd.std_dev, 1),
             "85 .. 98"});
  std::printf("%s", t.to_text().c_str());

  const auto ea = dsp::summarize(ev_atc);
  const auto ed = dsp::summarize(ev_datc);
  sim::Table te({"scheme", "events min", "events median", "events max",
                 "max/min"});
  te.add_row({"ATC(0.3V)", sim::Table::integer(static_cast<std::size_t>(ea.min)),
              sim::Table::integer(static_cast<std::size_t>(ea.p50)),
              sim::Table::integer(static_cast<std::size_t>(ea.max)),
              sim::Table::num(ea.max / std::max(ea.min, 1.0), 1)});
  te.add_row({"D-ATC", sim::Table::integer(static_cast<std::size_t>(ed.min)),
              sim::Table::integer(static_cast<std::size_t>(ed.p50)),
              sim::Table::integer(static_cast<std::size_t>(ed.max)),
              sim::Table::num(ed.max / std::max(ed.min, 1.0), 1)});
  std::printf("\nevent-count stability (the paper's 'dynamic thresholding "
              "is even stable ... while constant is not'):\n%s",
              te.to_text().c_str());

  std::printf(
      "\nshape check: D-ATC std %.1f %% << ATC std %.1f %%; D-ATC event "
      "spread %.1fx vs ATC %.1fx.\n",
      sd.std_dev, sa.std_dev, ed.max / std::max(ed.min, 1.0),
      ea.max / std::max(ea.min, 1.0));
}

void bench_one_pattern_eval(benchmark::State& state) {
  emg::DatasetConfig dc;
  dc.num_patterns = 8;
  const emg::DatasetFactory factory(dc);
  const auto rec = factory.make(0);
  const auto& eval = bench::evaluator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.datc(rec).correlation_pct);
  }
}
BENCHMARK(bench_one_pattern_eval)->Unit(benchmark::kMillisecond);

void bench_pattern_synthesis(benchmark::State& state) {
  emg::DatasetConfig dc;
  dc.num_patterns = 8;
  const emg::DatasetFactory factory(dc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(factory.make(1).emg_v.size());
  }
}
BENCHMARK(bench_pattern_synthesis)->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_fig5)
