#include "sim/link_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "core/datc_encoder.hpp"
#include "core/symbols.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "sim/table_writer.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"

namespace datc::sim {

using dsp::Real;
namespace {

/// Greedy two-pointer match of the decoded stream against the arbitrated
/// TX stream. On-air events are at least one arbiter slot apart and the
/// window is at most half a slot, so each TX event matches at most one
/// decoded frame.
struct MatchCounts {
  std::size_t matched{0};
  std::size_t address_errors{0};
  std::size_t code_errors{0};
  std::size_t spurious{0};
};

MatchCounts match_streams(const core::EventStream& tx,
                          const core::EventStream& rx, Real window_s) {
  MatchCounts m;
  const auto& te = tx.events();
  const auto& re = rx.events();
  std::size_t k = 0;
  for (const auto& r : re) {
    while (k < te.size() && te[k].time_s < r.time_s - window_s) ++k;
    if (k < te.size() && std::abs(te[k].time_s - r.time_s) <= window_s) {
      ++m.matched;
      if (te[k].channel != r.channel) {
        ++m.address_errors;
      } else if (te[k].vth_code != r.vth_code) {
        ++m.code_errors;
      }
      ++k;
    } else {
      ++m.spurious;
    }
  }
  return m;
}

Real pct(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<Real>(part) /
                          static_cast<Real>(whole);
}

}  // namespace

LinkSweepConfig::LinkSweepConfig() {
  // Body-area reference loss; the stock ChannelConfig (40 dB at 0.1 m)
  // models a much lossier environment in which even the nearest sweep
  // point is below the detector floor.
  link.channel.ref_loss_db = 30.0;
  // One arbiter slot of 2 us ~ 2.5 AER frames: fine-grained enough that
  // the radio, not the arbiter, dominates at EMG event rates.
  shared.aer.min_spacing_s = 2e-6;
}

LinkSweepResult run_link_sweep(const LinkSweepConfig& config) {
  dsp::require(config.channels >= 1, "link_sweep: need >= 1 channel");
  dsp::require(!config.distances_m.empty() &&
                   !config.false_alarm_probs.empty(),
               "link_sweep: empty sweep axes");
  auto counts = config.channel_counts;
  if (counts.empty()) counts.push_back(config.channels);
  for (const auto n : counts) {
    dsp::require(n >= 1 && n <= config.channels,
                 "link_sweep: channel counts must lie in [1, channels]");
  }

  // Synthesise and encode every channel once; the sweep axes only touch
  // the radio, not the encoders.
  const emg::Evaluator eval(config.eval);
  core::DatcEncoderConfig enc;
  enc.dtc = config.eval.dtc;
  enc.clock_hz = config.eval.datc_clock_hz;
  enc.dac_vref = config.eval.dac_vref;
  std::vector<emg::Recording> recs;
  std::vector<core::EventStream> tx_streams;
  std::vector<std::vector<Real>> truths;
  recs.reserve(config.channels);
  for (std::size_t c = 0; c < config.channels; ++c) {
    emg::RecordingSpec spec;
    spec.seed = config.emg_seed + c;
    spec.duration_s = config.duration_s;
    spec.gain_v =
        config.channels == 1
            ? config.gain_lo
            : config.gain_lo *
                  std::pow(config.gain_hi / config.gain_lo,
                           static_cast<Real>(c) /
                               static_cast<Real>(config.channels - 1));
    spec.name = "sweep-ch" + std::to_string(c);
    recs.push_back(emg::make_recording(spec));
    tx_streams.push_back(core::encode_datc_events(recs.back().emg_v, enc));
    truths.push_back(eval.ground_truth(recs.back()));
  }

  // Unconstrained arbiter (min_spacing == 0): events can still be no
  // closer than one on-air frame, so half the frame bounds the window.
  uwb::ModulatorConfig frame_mod = config.link.modulator;
  frame_mod.code_bits = config.eval.dtc.dac_bits;
  const Real window =
      config.match_window_s > 0.0
          ? config.match_window_s
          : (config.shared.aer.min_spacing_s > 0.0
                 ? 0.5 * config.shared.aer.min_spacing_s
                 : 0.5 * uwb::aer_frame_duration_s(
                       frame_mod, config.shared.aer.address_bits));

  LinkSweepResult result;
  for (const auto nch : counts) {
    const std::vector<core::EventStream> subset(
        tx_streams.begin(),
        tx_streams.begin() + static_cast<std::ptrdiff_t>(nch));
    // Arbitration depends only on the channel subset — merge once and
    // sweep the radio axes over the pre-merged stream.
    uwb::AerStats arbiter;
    const auto merged = uwb::aer_merge(subset, config.shared.aer, &arbiter);
    for (const Real dist : config.distances_m) {
      for (const Real pfa : config.false_alarm_probs) {
        uwb::LinkConfig link = config.link;
        link.channel.distance_m = dist;
        link.detector.false_alarm_prob = pfa;
        auto run = uwb::run_aer_over_link(merged, static_cast<unsigned>(nch),
                                          link, config.shared,
                                          config.eval.dtc.dac_bits);
        run.arbiter = arbiter;

        LinkSweepPoint p;
        p.distance_m = dist;
        p.false_alarm_prob = pfa;
        p.channels = nch;
        p.events_offered = run.arbiter.in_events;
        p.events_sent = run.arbiter.sent;
        p.events_decoded = run.merged_rx.size();
        const auto m = match_streams(run.merged_tx, run.merged_rx, window);
        p.events_matched = m.matched;
        p.address_errors = m.address_errors;
        p.code_errors = m.code_errors;
        p.spurious_events = m.spurious;
        p.dropped_event_pct =
            pct(p.events_offered - std::min(m.matched, p.events_offered),
                p.events_offered);
        p.address_error_pct = pct(m.address_errors, m.matched);
        p.arbiter = run.arbiter;
        p.demux = run.demux;
        p.pulses_tx = run.pulses_tx;
        p.pulses_erased = run.pulses_erased;

        Real sum = 0.0;
        Real worst = 100.0;
        for (std::size_t c = 0; c < nch; ++c) {
          const auto recon = eval.reconstruct_datc(run.per_channel_rx[c],
                                                   config.duration_s);
          const Real corr = emg::score_against(truths[c], {recon}).front();
          sum += corr;
          worst = std::min(worst, corr);
        }
        p.mean_correlation_pct = sum / static_cast<Real>(nch);
        p.min_correlation_pct = worst;
        result.points.push_back(p);
      }
    }
  }
  return result;
}

std::string link_sweep_table(const LinkSweepResult& result) {
  Table t({"chans", "dist m", "pfa", "offered", "sent", "decoded", "drop %",
           "addr err %", "mean corr %", "min corr %"});
  for (const auto& p : result.points) {
    t.add_row({Table::integer(p.channels), Table::num(p.distance_m, 2),
               Table::num(p.false_alarm_prob, 8),
               Table::integer(p.events_offered), Table::integer(p.events_sent),
               Table::integer(p.events_decoded),
               Table::num(p.dropped_event_pct, 2),
               Table::num(p.address_error_pct, 3),
               Table::num(p.mean_correlation_pct, 2),
               Table::num(p.min_correlation_pct, 2)});
  }
  return t.to_text();
}

bool write_link_sweep_json(const std::string& path,
                           const LinkSweepConfig& config,
                           const LinkSweepResult& result) {
  std::ofstream json(path);
  if (!json.good()) return false;
  json.precision(12);
  json << "{\n"
       << "  \"channels\": " << config.channels << ",\n"
       << "  \"duration_s\": " << config.duration_s << ",\n"
       << "  \"address_bits\": " << config.shared.aer.address_bits << ",\n"
       << "  \"min_spacing_s\": " << config.shared.aer.min_spacing_s << ",\n"
       << "  \"max_queue_delay_s\": " << config.shared.aer.max_queue_delay_s
       << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const auto& p = result.points[i];
    json << "    {\"channels\": " << p.channels
         << ", \"distance_m\": " << p.distance_m
         << ", \"false_alarm_prob\": " << p.false_alarm_prob
         << ", \"events_offered\": " << p.events_offered
         << ", \"events_sent\": " << p.events_sent
         << ", \"events_decoded\": " << p.events_decoded
         << ", \"events_matched\": " << p.events_matched
         << ", \"address_errors\": " << p.address_errors
         << ", \"code_errors\": " << p.code_errors
         << ", \"spurious_events\": " << p.spurious_events
         << ", \"arb_dropped\": " << p.arbiter.dropped
         << ", \"invalid_address\": " << p.demux.invalid_address
         << ", \"pulses_tx\": " << p.pulses_tx
         << ", \"pulses_erased\": " << p.pulses_erased
         << ", \"dropped_event_pct\": " << p.dropped_event_pct
         << ", \"address_error_pct\": " << p.address_error_pct
         << ", \"mean_correlation_pct\": " << p.mean_correlation_pct
         << ", \"min_correlation_pct\": " << p.min_correlation_pct << "}"
         << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.good();
}

}  // namespace datc::sim
