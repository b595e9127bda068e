#include "sim/end_to_end.hpp"

#include "core/atc_encoder.hpp"
#include "core/datc_encoder.hpp"
#include "core/symbols.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::sim {

EndToEnd::EndToEnd(const EvalConfig& eval, const LinkConfig& link)
    : eval_(eval), link_(link) {}

Real EndToEnd::score(const emg::Recording& rec,
                     const std::vector<Real>& recon) const {
  return eval_.score(rec, {recon}).front();
}

EndToEndResult EndToEnd::run_datc(const emg::Recording& rec) const {
  return run_datc_link(rec, link_);
}

EndToEndResult EndToEnd::run_datc_link(const emg::Recording& rec,
                                       const LinkConfig& link) const {
  EndToEndResult out;
  out.tx_side = eval_.datc(rec);

  // Re-encode to get the event stream (the evaluator only returns scores).
  const auto tx =
      core::encode_datc(rec.emg_v, datc_encoder_config(eval_.config()));
  const Real duration = rec.emg_v.duration_s();

  auto link_run =
      run_datc_over_link(tx.events, link, eval_.config().dtc.dac_bits);
  out.pulses_tx = link_run.pulses_tx;
  out.pulses_erased = link_run.pulses_erased;
  out.events_rx = link_run.events_rx.size();
  out.decode = link_run.decode;

  const auto recon = eval_.reconstruct_datc(link_run.events_rx, duration);
  out.rx_side = out.tx_side;
  out.rx_side.scheme = "D-ATC (over UWB)";
  out.rx_side.num_events = link_run.events_rx.size();
  out.rx_side.correlation_pct = score(rec, recon);
  return out;
}

std::vector<EndToEndResult> EndToEnd::run_datc_batch(
    std::span<const emg::Recording> recs, std::size_t jobs) const {
  std::vector<EndToEndResult> out(recs.size());
  const auto one = [this, &recs, &out](std::size_t i) {
    LinkConfig lc = link_;
    lc.seed = link_.seed ^ static_cast<std::uint64_t>(i);
    out[i] = run_datc_link(recs[i], lc);
  };
  if (jobs <= 1 || recs.size() <= 1) {
    for (std::size_t i = 0; i < recs.size(); ++i) one(i);
    return out;
  }
  runtime::ThreadPool pool(jobs);
  runtime::parallel_for(pool, recs.size(), one);
  return out;
}

EndToEndResult EndToEnd::run_atc(const emg::Recording& rec,
                                 Real threshold_v) const {
  EndToEndResult out;
  out.tx_side = eval_.atc(rec, threshold_v);

  core::AtcEncoderConfig enc;
  enc.threshold_v = threshold_v;
  const auto tx = core::encode_atc(rec.emg_v, enc);
  const Real duration = rec.emg_v.duration_s();

  const auto train = uwb::modulate_atc(tx.events, link_.modulator);
  out.pulses_tx = train.size();

  // RX stream forked before propagation — see run_datc_over_link.
  dsp::Rng rng(link_.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto ch = uwb::propagate(train, link_.channel, rng);
  out.pulses_erased = ch.erased;

  uwb::UwbReceiverConfig rxc;
  rxc.detector = link_.detector;
  rxc.modulator = link_.modulator;
  rxc.decode_codes = false;
  uwb::UwbReceiver rx(rxc, link_.channel, rx_rng);
  auto events_rx = rx.decode(ch.received);
  events_rx.sort_by_time();
  out.events_rx = events_rx.size();
  out.decode = rx.stats();

  const auto recon = eval_.reconstruct_atc(events_rx, threshold_v, duration);
  out.rx_side = out.tx_side;
  out.rx_side.scheme = out.tx_side.scheme + " (over UWB)";
  out.rx_side.num_events = events_rx.size();
  out.rx_side.correlation_pct = score(rec, recon);
  return out;
}

}  // namespace datc::sim
