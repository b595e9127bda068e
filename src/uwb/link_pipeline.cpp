#include "uwb/link_pipeline.hpp"

#include "dsp/rng.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::uwb {

namespace {

/// Propagates `train` and decodes it with a receiver configured as `rxc`
/// (the detector comes from `link`). Both Rng streams derive from the
/// seed BEFORE any propagation draw: the receiver's stream must not
/// depend on the pulse count consumed by the channel, or no chunked
/// execution could ever reproduce this run (the streaming session
/// derives the same two streams up front).
LinkRun receive_over_link(const PulseTrain& train, const LinkConfig& link,
                          UwbReceiverConfig rxc) {
  LinkRun out;
  out.pulses_tx = train.size();
  dsp::Rng rng(link.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto ch = propagate(train, link.channel, rng);
  out.pulses_erased = ch.erased;

  rxc.detector = link.detector;
  UwbReceiver rx(rxc, link.channel, rx_rng);
  out.events_rx = rx.decode(ch.received);
  out.events_rx.sort_by_time();
  out.decode = rx.stats();
  return out;
}

}  // namespace

LinkRun run_datc_over_link(const core::EventStream& tx,
                           const LinkConfig& link, unsigned code_bits) {
  UwbReceiverConfig rxc;
  rxc.modulator = link.modulator;
  rxc.modulator.code_bits = code_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = true;
  return receive_over_link(modulate_datc(tx, rxc.modulator), link, rxc);
}

LinkRun run_atc_over_link(const core::EventStream& tx,
                          const LinkConfig& link) {
  UwbReceiverConfig rxc;
  rxc.modulator = link.modulator;
  rxc.decode_codes = false;
  rxc.cache_detection = true;
  return receive_over_link(modulate_atc(tx, rxc.modulator), link, rxc);
}

SharedAerRun run_aer_over_link(
    const std::vector<core::EventStream>& tx_channels, const LinkConfig& link,
    const SharedAerConfig& shared, unsigned code_bits) {
  // An empty batch is a no-op, as in the per-channel mode (aer_split
  // would otherwise reject num_channels == 0 deep inside the pipeline).
  if (tx_channels.empty()) return SharedAerRun{};
  SharedAerRun out;
  out.merged_tx = aer_merge(tx_channels, shared.aer, &out.arbiter);

  UwbReceiverConfig rxc;
  rxc.modulator = link.modulator;
  rxc.modulator.code_bits = code_bits;
  rxc.address_bits = shared.aer.address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = shared.cache_detection;
  auto air = receive_over_link(
      modulate_aer(out.merged_tx, rxc.modulator, shared.aer.address_bits),
      link, rxc);
  out.merged_rx = std::move(air.events_rx);
  out.pulses_tx = air.pulses_tx;
  out.pulses_erased = air.pulses_erased;
  out.decode = air.decode;
  out.per_channel_rx =
      aer_split(out.merged_rx, static_cast<unsigned>(tx_channels.size()),
                &out.demux);
  return out;
}

}  // namespace datc::uwb
