#include "chain.hpp"

#include <algorithm>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "emg/evaluation.hpp"
#include "runtime/pipeline_runner.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"

namespace perfbench {

namespace {

using namespace datc;

Real correlation(const std::vector<Real>& truth,
                 const std::vector<Real>& recon) {
  const std::size_t n = std::min(truth.size(), recon.size());
  return dsp::correlation_percent(std::span<const Real>(truth.data(), n),
                                  std::span<const Real>(recon.data(), n));
}

/// What both topologies share after the radio: per-channel reconstruction
/// of the received (and, when scored, the transmitted) stream.
struct Receiver {
  const runtime::RunnerConfig& cfg;
  const emg::Evaluator& eval;
  const core::DatcReconstructor recon;
  Tracer& tracer;

  void score(const emg::Recording& rec, const core::EventStream& tx,
             const core::EventStream& rx, ChainChannel& ch,
             ChainResult& out) const {
    const Real duration = rec.emg_v.duration_s();
    std::vector<Real> truth;
    {
      const Scope s(tracer, "emg.score");
      truth = eval.ground_truth(rec);
    }
    std::vector<Real> env;
    {
      const Scope s(tracer, "core.recon");
      env = recon.reconstruct(rx, duration);
    }
    out.recon_out += env.size();
    ch.rx_envelope_hash = hash_reals(env);
    {
      const Scope s(tracer, "emg.score");
      ch.rx_correlation_pct = correlation(truth, env);
    }
    if (!cfg.score_tx_side) return;
    {
      const Scope s(tracer, "core.recon");
      env = recon.reconstruct(tx, duration);
    }
    out.recon_out += env.size();
    const Scope s(tracer, "emg.score");
    ch.tx_correlation_pct = correlation(truth, env);
  }
};

core::EventStream encode(const emg::Recording& rec,
                         const core::DatcEncoderConfig& enc, Tracer& tracer) {
  const Scope s(tracer, "core.encode");
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, enc, arena);
  return arena.take_stream();
}

/// modulate -> channel -> receive over one radio; `address_bits` 0 is the
/// private D-ATC framing.
core::EventStream radio(const core::EventStream& tx,
                        const uwb::LinkConfig& link, unsigned code_bits,
                        unsigned address_bits, bool cache_detection,
                        Tracer& tracer, uwb::DecodeStats& stats,
                        std::size_t& pulses_tx, std::size_t& erased) {
  uwb::ModulatorConfig mod = link.modulator;
  mod.code_bits = code_bits;
  uwb::PulseTrain train;
  {
    const Scope s(tracer, "uwb.modulate");
    train = address_bits == 0 ? uwb::modulate_datc(tx, mod)
                              : uwb::modulate_aer(tx, mod, address_bits);
  }
  pulses_tx = train.size();
  dsp::Rng rng(link.seed);
  dsp::Rng rx_rng = rng.fork();
  uwb::ChannelResult ch;
  {
    const Scope s(tracer, "uwb.channel");
    ch = uwb::propagate(train, link.channel, rng);
  }
  erased = ch.erased;
  const Scope s(tracer, "uwb.receive");
  uwb::UwbReceiverConfig rxc;
  rxc.detector = link.detector;
  rxc.modulator = mod;
  rxc.address_bits = address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = cache_detection;
  uwb::UwbReceiver receiver(rxc, link.channel, rx_rng);
  core::EventStream rx = receiver.decode(ch.received);
  rx.sort_by_time();
  stats = receiver.stats();
  return rx;
}

void add_stats(uwb::DecodeStats& a, const uwb::DecodeStats& b) {
  a.pulses_in += b.pulses_in;
  a.pulses_detected += b.pulses_detected;
  a.packets_decoded += b.packets_decoded;
  a.code_bit_ones_missed += b.code_bit_ones_missed;
  a.false_alarm_bits += b.false_alarm_bits;
}

}  // namespace

ChainResult run_chain(const config::PipelineFactory& factory,
                      std::span<const emg::Recording> recs, Tracer& tracer) {
  const runtime::RunnerConfig cfg = factory.runner_config();
  const emg::Evaluator eval(cfg.eval);
  const Receiver rx_side{
      cfg, eval,
      core::DatcReconstructor(emg::datc_reconstruction_config(cfg.eval),
                              eval.datc_calibration(), cfg.eval.datc_mode),
      tracer};
  const auto enc = emg::datc_encoder_config(cfg.eval);
  const unsigned code_bits = cfg.eval.dtc.dac_bits;

  ChainResult out;
  out.shared = cfg.link_mode == runtime::LinkMode::kSharedAer;
  out.channels.resize(recs.size());
  for (const auto& rec : recs) out.samples_in += rec.emg_v.size();

  if (!out.shared) {
    for (std::size_t i = 0; i < recs.size(); ++i) {
      ChainChannel& ch = out.channels[i];
      const core::EventStream tx = encode(recs[i], enc, tracer);
      ch.events_tx = tx.size();
      uwb::LinkConfig link = cfg.link;
      link.seed = cfg.link.seed ^ static_cast<std::uint64_t>(i);
      // run_channel always runs the cached-detection receiver.
      const core::EventStream rx =
          radio(tx, link, code_bits, 0, true, tracer, ch.decode,
                ch.pulses_tx, ch.pulses_erased);
      ch.events_rx = rx.size();
      out.frames_on_air += tx.size();
      out.pulses_tx += ch.pulses_tx;
      out.pulses_erased += ch.pulses_erased;
      add_stats(out.decode, ch.decode);
      rx_side.score(recs[i], tx, rx, ch, out);
    }
    return out;
  }

  std::vector<core::EventStream> tx(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    tx[i] = encode(recs[i], enc, tracer);
    out.channels[i].events_tx = tx[i].size();
  }
  core::EventStream merged;
  {
    const Scope s(tracer, "uwb.aer");
    merged = uwb::aer_merge(tx, cfg.shared.aer, &out.arbiter);
  }
  out.frames_on_air = merged.size();
  const core::EventStream merged_rx =
      radio(merged, cfg.link, code_bits, cfg.shared.aer.address_bits,
            cfg.shared.cache_detection, tracer, out.decode, out.pulses_tx,
            out.pulses_erased);
  std::vector<core::EventStream> per_channel;
  {
    const Scope s(tracer, "uwb.aer");
    per_channel = uwb::aer_split(merged_rx,
                                 static_cast<unsigned>(recs.size()),
                                 &out.demux);
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    out.channels[i].events_rx = per_channel[i].size();
    rx_side.score(recs[i], tx[i], per_channel[i], out.channels[i], out);
  }
  return out;
}

}  // namespace perfbench
