#include "runtime/pipeline_runner.hpp"

#include <chrono>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/symbols.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"

namespace datc::runtime {
namespace {

using Clock = std::chrono::steady_clock;

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
    : config_(config), eval_(config.eval) {}

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
  uwb::LinkConfig link = config_.link;
  link.seed = config_.link.seed ^ static_cast<std::uint64_t>(channel_id);
  auto link_run = uwb::run_datc_over_link(tx, link, config_.eval.dtc.dac_bits);
  out.pulses_tx = link_run.pulses_tx;
  out.pulses_erased = link_run.pulses_erased;
  auto events_rx = std::move(link_run.events_rx);
  out.events_rx = events_rx.size();
  out.decode = link_run.decode;

  score(rec, tx, events_rx, out.rx_correlation_pct, out.tx_correlation_pct);
  if (config_.keep_rx_events) out.rx_events = std::move(events_rx);
  return out;
}

void PipelineRunner::score(const emg::Recording& rec,
                           const core::EventStream& tx,
                           const core::EventStream& rx, Real& rx_pct,
                           Real& tx_pct) const {
  // The ground truth first, so its build does not overlap the live
  // envelopes' memory; then one scoring pass for both sides.
  const auto truth = eval_.ground_truth(rec);
  const Real duration = rec.emg_v.duration_s();
  const auto recon_rx = eval_.reconstruct_datc(rx, duration);
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
  report.channels.resize(n);

  // Stage 1 (parallel): fused block encode per channel.
  std::vector<core::EventStream> tx(n);
  const auto enc = emg::datc_encoder_config(config_.eval);
  for_each_index(pool, n,
                 [&recordings, &tx, &report, &enc](std::size_t i) {
    core::EventArena arena;
    core::encode_datc_events(recordings[i].emg_v, enc, arena);
    tx[i] = arena.take_stream();
    report.channels[i].channel = static_cast<std::uint32_t>(i);
    report.channels[i].events_tx = tx[i].size();
  });

  // Stage 2 (one radio, inherently serial): arbitrate, modulate, cross
  // the channel, decode addresses, demux.
  auto link_run = uwb::run_aer_over_link(tx, config_.link, config_.shared,
                                         config_.eval.dtc.dac_bits);
  report.shared.arbiter = link_run.arbiter;
  report.shared.demux = link_run.demux;
  report.shared.pulses_tx = link_run.pulses_tx;
  report.shared.pulses_erased = link_run.pulses_erased;
  report.shared.events_rx = link_run.merged_rx.size();
  report.shared.decode = link_run.decode;

  // Stage 3 (parallel): per-channel reconstruction and scoring.
  for_each_index(
      pool, n, [this, &recordings, &tx, &link_run, &report](std::size_t i) {
        auto& ch = report.channels[i];
        auto& events_rx = link_run.per_channel_rx[i];
        ch.events_rx = events_rx.size();
        score(recordings[i], tx[i], events_rx, ch.rx_correlation_pct,
              ch.tx_correlation_pct);
        if (config_.keep_rx_events) ch.rx_events = std::move(events_rx);
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
