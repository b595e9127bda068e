// Shared-medium AER link evaluation: N D-ATC encoders arbitrated onto one
// IR-UWB radio, swept over distance (and the detector's false-alarm knob)
// — per-channel correlation, dropped-event % and address-error % per grid
// point. The paper's wireless claim lives or dies on this link surviving
// body-area distances; the sweep measures where it stops.
//
// Emits BENCH_link.json next to the binary so CI tracks the trajectory.

#include "bench_util.hpp"

#include "core/datc_encoder.hpp"
#include "sim/link_sweep.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

sim::LinkSweepConfig sweep_config() {
  sim::LinkSweepConfig cfg;
  cfg.channels = 8;
  cfg.duration_s = 5.0;
  cfg.emg_seed = 500;
  cfg.shared.aer.address_bits = 3;
  cfg.channel_counts = {2, 8};
  return cfg;
}

void print_link_table() {
  bench::print_header(
      "Shared AER-over-UWB link sweep",
      "wireless multi-channel transmission - one arbitrated radio, "
      "address+code frames, energy-detection RX");

  const auto cfg = sweep_config();
  uwb::ModulatorConfig frame_mod = cfg.link.modulator;
  frame_mod.code_bits = cfg.eval.dtc.dac_bits;
  std::printf(
      "workload: up to %zu channels x %.0f s EMG, %u address bits, "
      "%.1f us arbiter slot, %.2f us AER frame\n",
      cfg.channels, cfg.duration_s, cfg.shared.aer.address_bits,
      cfg.shared.aer.min_spacing_s * 1e6,
      uwb::aer_frame_duration_s(frame_mod, cfg.shared.aer.address_bits) * 1e6);
  const auto result = sim::run_link_sweep(cfg);
  std::printf("%s", sim::link_sweep_table(result).c_str());

  if (!sim::write_link_sweep_json("BENCH_link.json", cfg, result)) {
    std::printf("WARNING: could not write BENCH_link.json\n");
  }
}

void bench_shared_link_8ch(benchmark::State& state) {
  // One full pass of the arbitrated radio (merge -> modulate -> channel
  // -> decode -> demux) at the near distance, radio included.
  auto cfg = sweep_config();
  cfg.duration_s = 2.0;
  cfg.distances_m = {0.3};
  cfg.channel_counts = {8};
  emg::EvalConfig eval;
  const auto enc = emg::datc_encoder_config(eval);
  std::vector<core::EventStream> tx;
  for (std::size_t c = 0; c < cfg.channels; ++c) {
    emg::RecordingSpec spec;
    spec.seed = cfg.emg_seed + c;
    spec.duration_s = cfg.duration_s;
    spec.gain_v = 0.2 + 0.05 * static_cast<Real>(c);
    spec.name = "bench-link-ch" + std::to_string(c);
    tx.push_back(
        core::encode_datc_events(emg::make_recording(spec).emg_v, enc));
  }
  uwb::LinkConfig link = cfg.link;
  link.channel.distance_m = 0.3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        uwb::run_aer_over_link(tx, link, cfg.shared, eval.dtc.dac_bits)
            .merged_rx.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.channels));
}
BENCHMARK(bench_shared_link_8ch)->Unit(benchmark::kMillisecond);

void bench_aer_merge_8ch(benchmark::State& state) {
  // Arbitration alone: merge cost scales with total event count.
  std::vector<core::EventStream> chans(8);
  for (std::size_t c = 0; c < chans.size(); ++c) {
    for (std::size_t i = 0; i < 2000; ++i) {
      chans[c].add(1e-3 * static_cast<Real>(i) + 1e-5 * static_cast<Real>(c),
                   static_cast<std::uint8_t>(i % 16));
    }
  }
  uwb::AerConfig aer;
  aer.min_spacing_s = 2e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uwb::aer_merge(chans, aer).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          16000);
}
BENCHMARK(bench_aer_merge_8ch)->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_link_table)
