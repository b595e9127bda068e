// Multi-channel example: an 8-electrode forearm array (the AER-based
// multi-channel systems of refs [9] and [12]) sharing a single IR-UWB
// link. Each electrode runs its own D-ATC encoder; events are merged by
// an AER arbiter with a minimum on-air spacing, then split and
// reconstructed per channel at the receiver.
//
//   $ ./multichannel_aer

#include <cstdio>

#include "emg/evaluation.hpp"
#include "sim/table_writer.hpp"
#include "uwb/aer.hpp"

using namespace datc;
using dsp::Real;

int main() {
  constexpr std::size_t kChannels = 8;
  const emg::Evaluator eval;

  // Eight electrodes over different forearm muscles: each sees its own
  // force trace and its own electrode gain.
  std::vector<emg::Recording> recs;
  std::vector<core::EventStream> tx_streams;
  dsp::Rng gain_rng(2013);  // ref [12] year
  for (std::size_t c = 0; c < kChannels; ++c) {
    emg::RecordingSpec spec;
    spec.seed = 9100 + c;
    spec.gain_v = gain_rng.log_uniform(0.2, 0.6);
    spec.duration_s = 10.0;
    spec.name = "electrode" + std::to_string(c);
    recs.push_back(emg::make_recording(spec));
    tx_streams.push_back(
        core::encode_datc(recs.back().emg_v, core::DatcEncoderConfig{})
            .events);
  }

  // AER arbitration: 3 address bits, one packet slot per 0.5 ms.
  uwb::AerConfig aer;
  aer.address_bits = 3;
  aer.min_spacing_s = 0.5e-3;
  aer.max_queue_delay_s = 10e-3;
  uwb::AerStats stats;
  const auto merged = uwb::aer_merge(tx_streams, aer, &stats);
  std::printf(
      "AER link: %zu events offered, %zu sent, %zu dropped, worst queue "
      "delay %.2f ms, %zu symbols/event\n",
      stats.in_events, stats.sent, stats.dropped, stats.max_delay_s * 1e3,
      uwb::aer_symbols_per_event(aer, 4));

  // Receiver side: split by address and reconstruct each channel.
  const auto split = uwb::aer_split(merged, kChannels);
  sim::Table t({"channel", "gain V", "TX events", "RX events", "corr %"});
  Real worst = 100.0;
  for (std::size_t c = 0; c < kChannels; ++c) {
    const auto recon =
        eval.reconstruct_datc(split[c], recs[c].emg_v.duration_s());
    const Real corr = eval.score(recs[c], {recon}).front();
    worst = std::min(worst, corr);
    t.add_row({sim::Table::integer(c),
               sim::Table::num(recs[c].spec.gain_v, 2),
               sim::Table::integer(tx_streams[c].size()),
               sim::Table::integer(split[c].size()),
               sim::Table::num(corr, 2)});
  }
  std::printf("\n%s", t.to_text().c_str());
  std::printf("\nworst channel correlation: %.2f %%\n", worst);
  return worst > 80.0 ? 0 : 1;
}
