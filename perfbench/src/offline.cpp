// offline-16ch: closed loop over the dataset-evaluation path. Sixteen
// private-radio channels of motor-unit sEMG, whole records, through
// PipelineFactory::make_runner()->run() at jobs = nproc. Reconstruction
// dominates here; net, store and session scheduling do no work.

#include <bit>
#include <memory>

#include "chain.hpp"
#include "probes.hpp"
#include "runtime/pipeline_runner.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace datc;

constexpr std::size_t kChannels = 16;
constexpr Real kDurationS = 20.0;
/// A batch of 16 x 20 s must be complete within this many ms.
constexpr double kLatencyLimitMs = 250.0;
constexpr int kSetupReps = 3;

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_channel(const runtime::ChannelReport& a,
                  const runtime::ChannelReport& b) {
  return a.events_tx == b.events_tx && a.pulses_tx == b.pulses_tx &&
         a.pulses_erased == b.pulses_erased && a.events_rx == b.events_rx &&
         a.decode.packets_decoded == b.decode.packets_decoded &&
         a.decode.pulses_detected == b.decode.pulses_detected &&
         same_bits(a.rx_correlation_pct, b.rx_correlation_pct) &&
         same_bits(a.tx_correlation_pct, b.tx_correlation_pct);
}

bool same_report(const runtime::BatchReport& a,
                 const runtime::BatchReport& b) {
  if (a.channels.size() != b.channels.size()) return false;
  for (std::size_t i = 0; i < a.channels.size(); ++i) {
    if (!same_channel(a.channels[i], b.channels[i])) return false;
  }
  return true;
}

/// The runner against the stage-by-stage chain, channel by channel.
void check_against_chain(const runtime::BatchReport& runner,
                         const ChainResult& chain, Report& report) {
  report.check(runner.channels.size() == chain.channels.size(),
               "offline: runner and chain channel counts");
  const std::size_t n =
      std::min(runner.channels.size(), chain.channels.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& r = runner.channels[i];
    const auto& c = chain.channels[i];
    report.check(r.events_tx == c.events_tx && r.pulses_tx == c.pulses_tx &&
                     r.pulses_erased == c.pulses_erased &&
                     r.events_rx == c.events_rx &&
                     r.decode.packets_decoded == c.decode.packets_decoded &&
                     r.decode.pulses_detected == c.decode.pulses_detected &&
                     same_bits(r.rx_correlation_pct, c.rx_correlation_pct) &&
                     same_bits(r.tx_correlation_pct, c.tx_correlation_pct),
                 "offline: runner == stage-by-stage chain, channel " +
                     std::to_string(i));
  }
}

struct Loop {
  std::vector<double> wall_s;
  std::vector<double> x_realtime;
  std::vector<double> lag_s;
};

/// Closed loop: the next batch is issued as soon as the previous returns.
Loop measure(runtime::PipelineRunner& runner,
             const std::vector<emg::Recording>& recs,
             const runtime::BatchReport& first, double seconds,
             Report& report) {
  Loop loop;
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  double last_end = -1.0;
  while (Clock::now() < stop) {
    const double issue = now_s();
    if (last_end >= 0.0) loop.lag_s.push_back(issue - last_end);
    const auto t0 = Clock::now();
    const runtime::BatchReport rep = runner.run(recs);
    const double wall = seconds_since(t0);
    last_end = now_s();
    loop.wall_s.push_back(wall);
    loop.x_realtime.push_back(rep.emg_seconds_processed / wall);
    report.check(same_report(rep, first),
                 "offline: batch output identical to the first batch");
  }
  return loop;
}

}  // namespace

Report run_offline(const Options& opt) {
  Report report;
  config::ScenarioSpec spec;
  spec.name = "offline-16ch";
  spec.source.channels = kChannels;
  spec.source.duration_s = kDurationS;
  spec.session.jobs = std::min(nproc(), kChannels);

  std::vector<emg::Recording> recs;
  std::unique_ptr<config::PipelineFactory> factory;
  std::unique_ptr<runtime::PipelineRunner> runner;
  const SetupTimes setup = time_setup(kSetupReps, [&] {
    SetupRep rep;
    const auto t0 = Clock::now();
    recs = synthesize(opt.seed, 1, kChannels, kDurationS,
                      emg::EmgModel::kMotorUnitPool);
    rep.synthesis_s = seconds_since(t0);
    factory = std::make_unique<config::PipelineFactory>(spec);
    rep.calibration_s = time_calibration(*factory);
    runner = factory->make_runner();
    return rep;
  });

  (void)runner->run(recs);  // pool start-up and first touch, untimed
  const runtime::BatchReport first = runner->run(recs);

  if (!opt.trace) {
    const Loop loop = measure(*runner, recs, first, opt.seconds, report);
    Tracer off(false);
    check_against_chain(first, run_chain(*factory, recs, off), report);

    EndToEnd e;
    e.setup = setup;
    e.x_realtime = median(loop.x_realtime);
    e.x_realtime_samples = loop.x_realtime.size();
    e.latency_p50_s = quantile(loop.wall_s, 0.5);
    e.latency_p99_s = quantile(loop.wall_s, 0.99);
    e.latency_samples = loop.wall_s.size();
    for (const double w : loop.wall_s) e.late += w * 1e3 > kLatencyLimitMs;
    for (const auto& ch : first.channels) {
      e.rx_correlation_pct += ch.rx_correlation_pct;
    }
    e.correlation_samples = first.channels.size();
    e.rx_correlation_pct /= static_cast<double>(e.correlation_samples);
    report_end_to_end(report, e);
    report.note("offline-16ch: closed loop, 1 client, jobs=" +
                std::to_string(runner->jobs()) + ", latency limit " +
                std::to_string(kLatencyLimitMs) + " ms per batch");
    return report;
  }

  LayerProbe probe;
  probe.setup = setup;
  Tracer tracer(true);
  probe_chain(*factory, recs, 5, tracer, probe);
  check_against_chain(first, probe.chain, report);
  probe_runner(*factory, recs, 5, probe);

  // The streaming path on the same records: one private session per
  // channel through a SessionManager, in the scenario's chunk size.
  std::vector<std::vector<std::span<const Real>>> chunks;
  for (const auto& rec : recs) {
    chunks.push_back(private_chunks(rec, spec.session.chunk_samples));
  }
  probe.managed = probe_managed(*factory, chunks, spec.session.jobs);
  probe.recorder = probe_recorder(*factory, chunks[0], false,
                                  opt.scratch + "/recorder", tracer);
  probe.server =
      probe_server(*factory, chunks[0], 1, opt.scratch + "/server", tracer);
  probe.lag_s =
      measure(*runner, recs, first, std::min(2.0, opt.seconds), report).lag_s;
  probe.accounting = account(tracer.spans());
  report_layers(report, probe);
  return report;
}

}  // namespace perfbench
