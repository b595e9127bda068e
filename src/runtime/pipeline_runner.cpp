#include "runtime/pipeline_runner.hpp"

#include <algorithm>
#include <chrono>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/session.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/link_pipeline.hpp"

namespace datc::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Samples per channel in each lockstep round of the shared session. The
/// outputs do not depend on it (the session is chunking-invariant).
constexpr std::size_t kSharedRoundSamples = 4096;

Real seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<Real>(b - a).count();
}

/// Runs `fn(i)` for every index — through the pool when one is given,
/// in-order otherwise. Both paths write disjoint slots, so outputs are
/// identical either way.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

PipelineRunner::PipelineRunner(const RunnerConfig& config)
    : config_(config),
      eval_(config.eval),
      radio_(uwb::datc_radio(config.link, config.eval.dtc.dac_bits)) {}

PipelineRunner::~PipelineRunner() = default;

std::size_t PipelineRunner::jobs() const {
  return config_.jobs == 0 ? ThreadPool::hardware_threads() : config_.jobs;
}

ChannelReport PipelineRunner::run_channel(const emg::Recording& rec,
                                          std::uint32_t channel_id) const {
  ChannelReport out;
  out.channel = channel_id;

  // Encode once through the fused block kernel into a preallocated arena.
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(config_.eval),
                           arena);
  const core::EventStream tx = arena.take_stream();
  out.events_tx = tx.size();

  // Private link per channel, seeded deterministically.
  auto link_run = uwb::run_over_link(
      tx, radio_, config_.link.seed ^ static_cast<std::uint64_t>(channel_id));
  out.pulses_tx = link_run.pulses_tx;
  out.pulses_erased = link_run.pulses_erased;
  auto events_rx = std::move(link_run.events_rx);
  out.events_rx = events_rx.size();
  out.decode = link_run.decode;

  score(
      rec, tx,
      [&] {
        return eval_.reconstruct_datc(events_rx, rec.emg_v.duration_s());
      },
      out.rx_correlation_pct, out.tx_correlation_pct);
  if (config_.keep_rx_events) out.rx_events = std::move(events_rx);
  return out;
}

template <typename RxEnvelope>
void PipelineRunner::score(const emg::Recording& rec,
                           const core::EventStream& tx,
                           const RxEnvelope& rx_envelope, Real& rx_pct,
                           Real& tx_pct) const {
  // The ground truth first, so its build does not overlap the live
  // envelopes' memory; then one scoring pass for both sides.
  const auto truth = eval_.ground_truth(rec);
  const Real duration = rec.emg_v.duration_s();
  const auto recon_rx = rx_envelope();
  if (!config_.score_tx_side) {
    rx_pct = emg::score_against(truth, {recon_rx}).front();
    return;
  }
  const auto recon_tx = eval_.reconstruct_datc(tx, duration);
  const auto pct = emg::score_against(truth, {recon_rx, recon_tx});
  rx_pct = pct[0];
  tx_pct = pct[1];
}

BatchReport PipelineRunner::run_shared(
    std::span<const emg::Recording> recordings, ThreadPool* pool) const {
  BatchReport report;
  report.link_mode = LinkMode::kSharedAer;
  const std::size_t n = recordings.size();
  if (n == 0) return report;
  dsp::require(config_.eval.datc_mode == core::DatcDecodeMode::kRateInversion,
               "PipelineRunner: shared mode reconstructs by rate inversion; "
               "code-duty decoding is a batch-only Evaluator ablation");
  const dsp::TimeSeries& first = recordings[0].emg_v;
  for (const auto& rec : recordings) {
    dsp::require(rec.emg_v.size() == first.size() &&
                     rec.emg_v.sample_rate_hz() == first.sample_rate_hz(),
                 "PipelineRunner: shared mode needs records of one length "
                 "and sample rate (lockstep rounds)");
  }

  // Stage 1 (one radio, inherently serial): lockstep rounds through the
  // streaming session — encode, arbitrate, modulate, cross the channel,
  // decode, demux, reconstruct.
  SessionConfig session_cfg = make_session_config(
      config_.eval, config_.link, eval_.datc_calibration());
  session_cfg.analog_fs_hz = first.sample_rate_hz();
  session_cfg.keep_rx_events = config_.keep_rx_events;
  SharedAerStreamingSession session(session_cfg, config_.shared, n);
  std::vector<Real> round;
  for (std::size_t pos = 0; pos < first.size(); pos += kSharedRoundSamples) {
    const std::size_t k = std::min(kSharedRoundSamples, first.size() - pos);
    round.clear();
    for (const auto& rec : recordings) {
      const auto samples = rec.emg_v.view().subspan(pos, k);
      round.insert(round.end(), samples.begin(), samples.end());
    }
    session.push_chunk(round);
  }
  session.finish();
  report.shared.arbiter = session.arbiter_stats();
  report.shared.demux = session.demux_stats();
  report.shared.pulses_tx = session.pulses_tx();
  report.shared.pulses_erased = session.pulses_erased();
  report.shared.events_rx = session.demux_stats().in_events;
  report.shared.decode = session.decode_stats();
  report.shared.ledger = session.ledger();
  std::vector<std::vector<Real>> arv(n);
  for (std::size_t i = 0; i < n; ++i) session.drain_arv(i, arv[i]);

  // Stage 2 (parallel): per-channel scoring; the lossless side encodes
  // its own reference stream.
  report.channels.resize(n);
  const auto enc = emg::datc_encoder_config(config_.eval);
  for_each_index(pool, n, [&](std::size_t i) {
    auto& ch = report.channels[i];
    ch.channel = static_cast<std::uint32_t>(i);
    const SessionReport counts = session.report(i);
    ch.events_tx = counts.events_tx;
    ch.events_rx = counts.events_rx;
    core::EventStream tx;
    if (config_.score_tx_side) {
      core::EventArena arena;
      core::encode_datc_events(recordings[i].emg_v, enc, arena);
      tx = arena.take_stream();
    }
    score(recordings[i], tx, [&] { return std::move(arv[i]); },
          ch.rx_correlation_pct, ch.tx_correlation_pct);
    if (config_.keep_rx_events) ch.rx_events = session.rx_events(i);
  });
  return report;
}

BatchReport PipelineRunner::run_batch(
    std::span<const emg::Recording> recordings, ThreadPool* pool) const {
  BatchReport report;
  if (config_.link_mode == LinkMode::kSharedAer) {
    report = run_shared(recordings, pool);
  } else {
    report.channels.resize(recordings.size());
    for_each_index(pool, recordings.size(),
                   [this, &recordings, &report](std::size_t i) {
                     report.channels[i] = run_channel(
                         recordings[i], static_cast<std::uint32_t>(i));
                   });
  }
  for (const auto& rec : recordings) {
    report.emg_seconds_processed += rec.emg_v.duration_s();
  }
  return report;
}

BatchReport PipelineRunner::run(std::span<const emg::Recording> recordings) {
  const std::size_t n_jobs = jobs();
  if (pool_ == nullptr || pool_->size() != n_jobs) {
    pool_ = std::make_unique<ThreadPool>(n_jobs);
  }
  const auto t0 = Clock::now();
  auto report = run_batch(recordings, pool_.get());
  report.wall_seconds = seconds_between(t0, Clock::now());
  return report;
}

BatchReport PipelineRunner::run_serial(
    std::span<const emg::Recording> recordings) const {
  const auto t0 = Clock::now();
  auto report = run_batch(recordings, nullptr);
  report.wall_seconds = seconds_between(t0, Clock::now());
  return report;
}

}  // namespace datc::runtime
