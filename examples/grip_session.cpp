// Grip-session example: the paper's experimental protocol end to end —
// a cylindrical power grip sweeping 70 % MVC down to rest, encoded with
// both ATC and D-ATC, radiated over the simulated IR-UWB link, decoded by
// the energy-detection receiver, and scored at the laptop.
//
//   $ ./grip_session [seed]

#include <cstdio>
#include <cstdlib>

#include "core/atc_encoder.hpp"
#include "runtime/pipeline_runner.hpp"
#include "sim/table_writer.hpp"
#include "uwb/link_pipeline.hpp"

using namespace datc;
using dsp::Real;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7u;

  // One subject's 20 s session.
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.gain_v = 0.35;
  spec.name = "grip_session";
  const auto rec = emg::make_recording(spec);
  std::printf("synthesised %zu samples (%.0f s at %.0f Hz), gain %.2f V\n",
              rec.emg_v.size(), rec.emg_v.duration_s(),
              rec.emg_v.sample_rate_hz(), spec.gain_v);

  // Body-area IR-UWB link: 1 m, mild pulse loss.
  runtime::RunnerConfig cfg;
  cfg.link.modulator.shape.amplitude_v = 0.5;
  cfg.link.channel.distance_m = 1.0;
  cfg.link.channel.ref_loss_db = 35.0;
  cfg.link.channel.erasure_prob = 0.02;
  const runtime::PipelineRunner runner(cfg);
  const auto& eval = runner.evaluator();

  // D-ATC: the engine's per-channel chain over channel 0's radio.
  const auto datc_run = runner.run_channel(rec, 0);

  // ATC (0.3 V): marker-only packets over the same link.
  constexpr Real kAtcThresholdV = 0.3;
  const auto atc_tx = eval.atc(rec, kAtcThresholdV);
  core::AtcEncoderConfig atc_enc;
  atc_enc.threshold_v = kAtcThresholdV;
  const auto atc_run = uwb::run_atc_over_link(
      core::encode_atc(rec.emg_v, atc_enc).events, cfg.link);
  const auto atc_recon = eval.reconstruct_atc(
      atc_run.events_rx, kAtcThresholdV, rec.emg_v.duration_s());
  const Real atc_rx_pct = eval.score(rec, {atc_recon}).front();

  sim::Table t({"scheme", "TX events", "RX events", "pulses lost",
                "corr % (ideal link)", "corr % (over UWB)"});
  t.add_row({"D-ATC", sim::Table::integer(datc_run.events_tx),
             sim::Table::integer(datc_run.events_rx),
             sim::Table::integer(datc_run.pulses_erased),
             sim::Table::num(datc_run.tx_correlation_pct, 2),
             sim::Table::num(datc_run.rx_correlation_pct, 2)});
  t.add_row({"ATC (0.3 V)", sim::Table::integer(atc_tx.num_events),
             sim::Table::integer(atc_run.events_rx.size()),
             sim::Table::integer(atc_run.pulses_erased),
             sim::Table::num(atc_tx.correlation_pct, 2),
             sim::Table::num(atc_rx_pct, 2)});
  std::printf("\n%s", t.to_text().c_str());

  std::printf(
      "\nUWB decode stats (D-ATC): %zu pulses in, %zu detected, %zu "
      "packets, %zu false-alarm bits\n",
      datc_run.decode.pulses_in, datc_run.decode.pulses_detected,
      datc_run.decode.packets_decoded, datc_run.decode.false_alarm_bits);

  const bool ok = datc_run.rx_correlation_pct > 85.0;
  std::printf("\n%s\n", ok ? "session OK: force recovered over the air"
                           : "session DEGRADED: check link budget");
  return ok ? 0 : 1;
}
