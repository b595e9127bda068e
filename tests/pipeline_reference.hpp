#pragma once
// Test-only reference for one private-radio D-ATC channel: the seed
// chain, stage by stage, with none of the engine's fast paths —
//
//   core::encode_datc (per-cycle encoder with its full trace)
//   -> modulate_datc -> propagate
//   -> UwbReceiver with the uncached detection stage
//   -> Evaluator::reconstruct_datc -> Evaluator::score, one envelope each
//
// PipelineRunner::run_channel (fused block encode, memoised detection,
// rx and tx scored in one paired pass) must reproduce it bit for bit
// for the same seed.

#include <cstddef>

#include "core/datc_encoder.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::oracle {

struct ReferenceChannel {
  std::size_t events_tx{0};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};
  dsp::Real tx_correlation_pct{0.0};
  dsp::Real rx_correlation_pct{0.0};
};

inline ReferenceChannel reference_datc_channel(const emg::Evaluator& eval,
                                               const emg::Recording& rec,
                                               const uwb::LinkConfig& link) {
  ReferenceChannel out;
  const auto tx =
      core::encode_datc(rec.emg_v, emg::datc_encoder_config(eval.config()));
  out.events_tx = tx.events.size();

  uwb::ModulatorConfig mod = link.modulator;
  mod.code_bits = eval.config().dtc.dac_bits;
  const auto train = uwb::modulate_datc(tx.events, mod);
  out.pulses_tx = train.size();

  dsp::Rng rng(link.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto ch = uwb::propagate(train, link.channel, rng);
  out.pulses_erased = ch.erased;

  uwb::UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = mod;
  rxc.decode_codes = true;
  rxc.cache_detection = false;
  uwb::UwbReceiver rx(rxc, link.channel, rx_rng);
  auto events_rx = rx.decode(ch.received);
  events_rx.sort_by_time();
  out.events_rx = events_rx.size();

  const dsp::Real duration = rec.emg_v.duration_s();
  const auto recon_tx = eval.reconstruct_datc(tx.events, duration);
  const auto recon_rx = eval.reconstruct_datc(events_rx, duration);
  out.tx_correlation_pct = eval.score(rec, {recon_tx}).front();
  out.rx_correlation_pct = eval.score(rec, {recon_rx}).front();
  return out;
}

}  // namespace datc::oracle
