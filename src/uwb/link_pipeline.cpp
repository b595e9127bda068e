#include "uwb/link_pipeline.hpp"

#include <limits>

#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace datc::uwb {

RadioPlan datc_radio(const LinkConfig& link, unsigned code_bits,
                     unsigned address_bits) {
  UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = link.modulator;
  rxc.modulator.code_bits = code_bits;
  rxc.address_bits = address_bits;
  rxc.decode_codes = true;
  return RadioPlan(rxc, link.channel);
}

RadioPlan atc_radio(const LinkConfig& link) {
  UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = link.modulator;
  rxc.decode_codes = false;
  return RadioPlan(rxc, link.channel);
}

LinkRun run_over_link(const core::EventStream& tx, const RadioPlan& plan,
                      std::uint64_t seed) {
  StreamingRadio radio(plan, seed);
  LinkRun out;
  out.events_rx.reserve(tx.size());
  // Frames close in marker order, so the decoded stream is time-sorted.
  radio.push(tx.events(), std::numeric_limits<Real>::infinity(),
             out.events_rx);
  radio.flush(out.events_rx);
  out.pulses_tx = radio.pulses_tx();
  out.pulses_erased = radio.erased();
  out.decode = radio.stats();
  return out;
}

LinkRun run_datc_over_link(const core::EventStream& tx,
                           const LinkConfig& link, unsigned code_bits) {
  return run_over_link(tx, datc_radio(link, code_bits), link.seed);
}

LinkRun run_atc_over_link(const core::EventStream& tx,
                          const LinkConfig& link) {
  return run_over_link(tx, atc_radio(link), link.seed);
}

SharedAerRun run_aer_over_link(
    const std::vector<core::EventStream>& tx_channels, const LinkConfig& link,
    const SharedAerConfig& shared, unsigned code_bits) {
  // An empty batch is a no-op, as in the per-channel mode (aer_split
  // would otherwise reject num_channels == 0 deep inside the pipeline).
  if (tx_channels.empty()) return SharedAerRun{};
  SharedAerRun out;
  out.merged_tx = aer_merge(tx_channels, shared.aer, &out.arbiter);

  // Staged: the whole train is modulated, propagated and decoded. Both
  // Rng streams derive from the seed before any propagation draw, as the
  // radio derives them.
  UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = link.modulator;
  rxc.modulator.code_bits = code_bits;
  rxc.address_bits = shared.aer.address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = shared.cache_detection;
  const PulseTrain train =
      modulate_aer(out.merged_tx, rxc.modulator, shared.aer.address_bits);
  out.pulses_tx = train.size();
  dsp::Rng rng(link.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto air = propagate(train, link.channel, rng);
  out.pulses_erased = air.erased;
  UwbReceiver rx(rxc, link.channel, rx_rng);
  out.merged_rx = rx.decode(air.received);
  out.merged_rx.sort_by_time();
  out.decode = rx.stats();
  out.per_channel_rx =
      aer_split(out.merged_rx, static_cast<unsigned>(tx_channels.size()),
                &out.demux);
  return out;
}

}  // namespace datc::uwb
