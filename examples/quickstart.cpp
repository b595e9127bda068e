// Quickstart: encode a synthetic sEMG contraction with D-ATC, reconstruct
// the force envelope at the receiver, and print the correlation.
//
//   $ ./quickstart
//
// Walks the minimal API path: force profile -> motor-unit sEMG ->
// encode_datc -> DatcReconstructor -> Pearson score.

#include <cstdio>

#include "core/datc_encoder.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/envelope.hpp"
#include "emg/evaluation.hpp"
#include "emg/generator.hpp"

using namespace datc;
using dsp::Real;

int main() {
  // 1) A 10 s grip: ramp to 60 % MVC, hold, release.
  const auto drive = emg::trapezoid_force(/*level=*/0.6, /*ramp_s=*/1.5,
                                          /*hold_s=*/4.0, /*rest_s=*/1.5,
                                          /*fs_hz=*/2500.0);

  // 2) Synthesise surface EMG through the motor-unit pool and scale to
  //    volts at the comparator input (0.4 V ARV at full MVC).
  dsp::Rng rng(42);
  auto emg_v = emg::synthesize_pool(drive, emg::MotorUnitPoolConfig{}, rng);
  for (auto& v : emg_v.samples()) v *= 0.4;

  // 3) Run the D-ATC transmitter (2 kHz DTC, 4-bit DAC, 100-cycle frames).
  const core::DatcEncoderConfig tx_cfg;
  const auto tx = core::encode_datc(emg_v, tx_cfg);
  std::printf("transmitted %zu events (%zu symbols at %u+1 bits each)\n",
              tx.events.size(),
              core::datc_symbols(tx.events.size()).total,
              tx_cfg.dtc.dac_bits);

  // 4) Receiver: calibrate the crossing-rate curve once, then invert the
  //    event stream into an ARV-envelope estimate.
  core::RateCalibrationConfig cal_cfg;
  cal_cfg.count_fs_hz = tx_cfg.clock_hz;
  const auto cal = std::make_shared<core::RateCalibration>(cal_cfg);
  const core::DatcReconstructor rx(core::ReconstructionConfig{}, cal);
  const auto estimate = rx.reconstruct(tx.events, emg_v.duration_s());

  // 5) Score against the ground-truth ARV envelope.
  const auto truth = dsp::arv_envelope(emg_v.view(), 2500.0, 0.25);
  const Real corr = emg::score_against(truth, {estimate}).front();
  std::printf("reconstruction correlation vs ARV envelope: %.2f %%\n", corr);
  std::printf("(the paper reports ~96 %% on its 20 s recordings)\n");
  return corr > 80.0 ? 0 : 1;
}
