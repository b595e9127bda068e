// Ablation: DAC resolution. The paper states "different DAC resolutions
// have been examined to determine the best trade-off between accuracy and
// complexity" and settles on 4 bits. This bench regenerates that study on
// a 16-pattern dataset subset (weak and strong subjects):
//  * too few bits -> the minimum threshold (Vref/2^Nb) is too high and
//    weak subjects become invisible (the fixed-threshold failure mode
//    returns),
//  * too many bits -> the minimum threshold drops under the noise floor
//    and rest periods fire continuously, while packet length and hardware
//    cost keep growing.

#include "bench_util.hpp"

#include "synth/report.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

void print_dac_ablation() {
  bench::print_header(
      "Ablation - DAC resolution trade-off (paper settles on 4 bits)",
      "accuracy is a hump: low bits lose weak subjects, high bits fire on "
      "noise; cost keeps rising");

  emg::DatasetConfig dc;
  dc.num_patterns = 16;
  const emg::DatasetFactory factory(dc);

  sim::Table t({"DAC bits", "mean corr %", "min corr %", "sym/event",
                "symbols (showcase)", "cells", "area um^2",
                "power nW (a=0.5)"});
  for (const unsigned bits : {2u, 3u, 4u, 5u, 6u, 8u}) {
    emg::EvalConfig cfg;
    cfg.dtc.dac_bits = bits;
    const emg::Evaluator eval(cfg);

    Real sum = 0.0;
    Real mn = 100.0;
    for (std::size_t i = 0; i < factory.specs().size(); ++i) {
      const auto d = eval.datc(factory.make(i));
      sum += d.correlation_pct;
      mn = std::min(mn, d.correlation_pct);
    }
    const auto showcase_eval = eval.datc(bench::showcase());

    core::DtcConfig hw;
    hw.dac_bits = bits;
    std::vector<bool> stim(4000);
    for (std::size_t i = 0; i < stim.size(); ++i) stim[i] = (i / 9) % 4 == 0;
    const auto rep = synth::synthesize_dtc(hw, stim);

    t.add_row({sim::Table::integer(bits),
               sim::Table::num(sum / static_cast<Real>(
                                         factory.specs().size()),
                               2),
               sim::Table::num(mn, 1),
               sim::Table::integer(showcase_eval.symbols.symbols_per_event),
               sim::Table::integer(showcase_eval.symbols.total),
               sim::Table::integer(rep.num_cells),
               sim::Table::num(rep.core_area_um2, 0),
               sim::Table::num(rep.power_default.total_nw(), 1)});
  }
  std::printf("%s", t.to_text().c_str());
  std::printf(
      "\nshape check: with the rate-inversion receiver 2-3 bits already "
      "suffice on this population (the threshold only\n  has to land in "
      "the informative band of the crossing-rate curve), but beyond ~5 "
      "bits the floor Vref/2^Nb drops\n  under the noise, rest periods "
      "saturate the comparator and correlation sags — while cells/area/"
      "power grow\n  steeply and the packet stretches by one symbol per "
      "bit. The paper's 4-bit point buys floor margin for\n  weaker "
      "subjects than this population at modest cost.\n");
}

void bench_encode_bits(benchmark::State& state) {
  const auto& rec = bench::showcase();
  core::DatcEncoderConfig enc;
  enc.dtc.dac_bits = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_datc(rec.emg_v, enc).events.size());
  }
}
BENCHMARK(bench_encode_bits)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_dac_ablation)
