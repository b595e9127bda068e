#include "sim/stream_parity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "store/recorder.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::sim {

using dsp::Real;

namespace {

/// Events equal bit-for-bit (time, code, address).
bool events_match(const core::EventStream& a, const core::EventStream& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_s != b[i].time_s || a[i].vth_code != b[i].vth_code ||
        a[i].channel != b[i].channel) {
      return false;
    }
  }
  return true;
}

void compare_arv(const std::vector<Real>& batch,
                 const std::vector<Real>& stream, StreamParityResult& out) {
  const auto parity = core::compare_envelopes(batch, stream);
  out.arv_samples = parity.samples;
  out.arv_equal = parity.equal;
  out.max_abs_arv_diff = parity.max_abs_diff;
}

std::size_t effective_chunk(std::size_t chunk_size, std::size_t total) {
  return chunk_size == 0 ? std::max<std::size_t>(total, 1) : chunk_size;
}

}  // namespace

store::SessionManifest make_session_manifest(const emg::EvalConfig& eval,
                                             std::uint32_t channel,
                                             Real duration_s) {
  store::SessionManifest m;
  m.analog_fs_hz = eval.analog_fs_hz;
  m.duration_s = duration_s;
  m.window_s = eval.window_s;
  m.dac_vref = eval.dac_vref;
  m.dac_bits = eval.dtc.dac_bits;
  m.count_fs_hz = eval.datc_clock_hz;
  m.band_lo_hz = eval.band_lo_hz;
  m.band_hi_hz = eval.band_hi_hz;
  m.channel = channel;
  return m;
}

StreamParityResult check_stream_output(const dsp::TimeSeries& emg_v,
                                       const emg::EvalConfig& eval,
                                       const uwb::LinkConfig& link,
                                       core::CalibrationPtr calibration,
                                       std::size_t chunk_size,
                                       std::uint32_t channel_id,
                                       const core::EventStream& rx_events,
                                       const std::vector<Real>& arv) {
  StreamParityResult out;
  out.chunk_size = chunk_size;

  // ---- batch reference: the PipelineRunner per-channel pipeline, its
  // radio run stage by stage (the session runs the fused StreamingRadio
  // the batch link also runs, so only the staged chain is an oracle).
  core::EventArena arena;
  core::encode_datc_events(emg_v, emg::datc_encoder_config(eval), arena);
  const core::EventStream tx = arena.take_stream();
  uwb::UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = link.modulator;
  rxc.modulator.code_bits = eval.dtc.dac_bits;
  const uwb::PulseTrain train = uwb::modulate_datc(tx, rxc.modulator);
  dsp::Rng rng(link.seed ^ static_cast<std::uint64_t>(channel_id));
  dsp::Rng rx_rng = rng.fork();
  const auto air = uwb::propagate(train, link.channel, rng);
  uwb::UwbReceiver receiver(rxc, link.channel, rx_rng);
  core::EventStream events_rx = receiver.decode(air.received);
  events_rx.sort_by_time();
  const Real duration = emg_v.duration_s();
  const core::DatcReconstructor recon(emg::datc_reconstruction_config(eval),
                                      calibration);
  const auto arv_batch = recon.reconstruct(events_rx, duration);

  out.events_batch = events_rx.size();
  out.events_stream = rx_events.size();
  out.events_equal = events_match(events_rx, rx_events);
  compare_arv(arv_batch, arv, out);
  return out;
}

StreamParityResult check_stream_parity(const dsp::TimeSeries& emg_v,
                                       const emg::EvalConfig& eval,
                                       const uwb::LinkConfig& link,
                                       core::CalibrationPtr calibration,
                                       std::size_t chunk_size,
                                       std::uint32_t channel_id) {
  // Streaming session, fed in chunks.
  auto session_cfg = runtime::make_session_config(eval, link, calibration);
  session_cfg.keep_rx_events = true;
  runtime::StreamingSession session(session_cfg, channel_id);
  const auto& samples = emg_v.samples();
  const std::size_t chunk = effective_chunk(chunk_size, samples.size());
  std::vector<Real> arv_stream;
  for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, samples.size() - pos);
    session.push_chunk(std::span<const Real>(samples.data() + pos, n));
    session.drain_arv(arv_stream);  // incremental delivery, as a consumer
  }
  session.finish();
  session.drain_arv(arv_stream);

  return check_stream_output(emg_v, eval, link, calibration, chunk_size,
                             channel_id, session.rx_events(), arv_stream);
}

StreamParityResult check_shared_stream_parity(
    std::span<const dsp::TimeSeries> channels, const emg::EvalConfig& eval,
    const uwb::LinkConfig& link, const uwb::SharedAerConfig& shared,
    core::CalibrationPtr calibration, std::size_t chunk_size) {
  StreamParityResult out;
  out.chunk_size = chunk_size;
  dsp::require(!channels.empty(), "check_shared_stream_parity: need channels");
  const std::size_t n_ch = channels.size();
  const std::size_t n_samples = channels[0].size();
  for (const auto& r : channels) {
    dsp::require(r.size() == n_samples,
                 "check_shared_stream_parity: lockstep rounds need equal "
                 "record lengths");
  }

  // ---- batch reference: PipelineRunner::run_shared's stages.
  std::vector<core::EventStream> tx(n_ch);
  for (std::size_t c = 0; c < n_ch; ++c) {
    core::EventArena arena;
    core::encode_datc_events(channels[c], emg::datc_encoder_config(eval),
                             arena);
    tx[c] = arena.take_stream();
  }
  auto link_run = uwb::run_aer_over_link(tx, link, shared, eval.dtc.dac_bits);
  const core::DatcReconstructor recon(emg::datc_reconstruction_config(eval),
                                      calibration);
  std::vector<std::vector<Real>> arv_batch(n_ch);
  for (std::size_t c = 0; c < n_ch; ++c) {
    arv_batch[c] = recon.reconstruct(link_run.per_channel_rx[c],
                                     channels[c].duration_s());
  }

  // ---- streaming shared session, lockstep channel-major rounds.
  auto session_cfg = runtime::make_session_config(eval, link, calibration);
  session_cfg.keep_rx_events = true;
  runtime::SharedAerStreamingSession session(session_cfg, shared, n_ch);
  const std::size_t chunk = effective_chunk(chunk_size, n_samples);
  std::vector<Real> round;
  for (std::size_t pos = 0; pos < n_samples; pos += chunk) {
    const std::size_t k = std::min(chunk, n_samples - pos);
    round.clear();
    for (std::size_t c = 0; c < n_ch; ++c) {
      const auto& s = channels[c].samples();
      round.insert(round.end(), s.begin() + static_cast<long>(pos),
                   s.begin() + static_cast<long>(pos + k));
    }
    session.push_chunk(round);
  }
  session.finish();

  out.events_equal = true;
  out.arv_equal = true;
  for (std::size_t c = 0; c < n_ch; ++c) {
    out.events_batch += link_run.per_channel_rx[c].size();
    out.events_stream += session.rx_events(c).size();
    if (!events_match(link_run.per_channel_rx[c], session.rx_events(c))) {
      out.events_equal = false;
    }
    std::vector<Real> arv_stream;
    session.drain_arv(c, arv_stream);
    StreamParityResult per;
    compare_arv(arv_batch[c], arv_stream, per);
    out.arv_samples += per.arv_samples;
    out.max_abs_arv_diff = std::max(out.max_abs_arv_diff,
                                    per.max_abs_arv_diff);
    if (!per.arv_equal) out.arv_equal = false;
  }
  // The arbiter, demux and TX <-> RX ledger accounting must agree as well.
  uwb::ModulatorConfig frame = link.modulator;
  frame.code_bits = eval.dtc.dac_bits;
  uwb::AerLedger ledger(shared.aer, uwb::aer_frame_duration_s(
                                        frame, shared.aer.address_bits));
  ledger.push_sent(link_run.merged_tx.events());
  ledger.push_decoded(link_run.merged_rx.events());
  const Real inf = std::numeric_limits<Real>::infinity();
  ledger.advance(inf, inf);
  if (session.arbiter_stats().sent != link_run.arbiter.sent ||
      session.arbiter_stats().dropped != link_run.arbiter.dropped ||
      session.demux_stats().invalid_address !=
          link_run.demux.invalid_address ||
      session.ledger() != ledger.counts()) {
    out.events_equal = false;
  }
  return out;
}

}  // namespace datc::sim
