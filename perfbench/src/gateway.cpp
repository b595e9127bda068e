// aer-gateway-64: closed loop from one producer thread. A few (<= nproc)
// shared-aer-64ch gateways, each a SharedAerStreamingSession, fed
// 64-sample lockstep rounds through one runtime::SessionManager. The dense
// addressed radio (arbiter, address decode, demux) and per-chunk strand
// scheduling dominate; recon runs the streaming path in short runs.

#include <algorithm>
#include <memory>

#include "chain.hpp"
#include "dsp/stats.hpp"
#include "emg/evaluation.hpp"
#include "probes.hpp"
#include "runtime/session.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace datc;

constexpr std::size_t kRoundSamples = 64;
constexpr std::size_t kMaxGateways = 4;
/// A round must have left push_chunk within this many ms of its submit.
constexpr double kLatencyLimitMs = 50.0;
constexpr int kSetupReps = 3;

struct Gateway {
  std::vector<emg::Recording> recs;
  std::vector<Real> rounds;  ///< every round, channel-major, back to back
  std::vector<std::span<const Real>> chunks;
};

/// Channel-major samples of one lockstep round of `k` samples per channel.
void fill_round(std::span<const datc::emg::Recording> recs, std::size_t at,
                std::size_t k, std::vector<Real>& out) {
  out.clear();
  for (const auto& rec : recs) {
    const auto& s = rec.emg_v.samples();
    const std::size_t n = std::min(k, s.size() - std::min(at, s.size()));
    out.insert(out.end(), s.begin() + static_cast<std::ptrdiff_t>(at),
               s.begin() + static_cast<std::ptrdiff_t>(at + n));
  }
}

void build_rounds(Gateway& g) {
  std::vector<Real> round;
  std::vector<std::size_t> sizes;
  const std::size_t n = g.recs.front().emg_v.size();
  for (std::size_t at = 0; at < n; at += kRoundSamples) {
    fill_round(g.recs, at, kRoundSamples, round);
    g.rounds.insert(g.rounds.end(), round.begin(), round.end());
    sizes.push_back(round.size());
  }
  std::size_t off = 0;
  for (const std::size_t s : sizes) {
    g.chunks.emplace_back(g.rounds.data() + off, s);
    off += s;
  }
}

/// Per-channel envelope hashes of every gateway after a pass.
using Hashes = std::vector<std::vector<std::uint64_t>>;

std::vector<std::uint64_t> drain_hashes(runtime::SharedAerStreamingSession& s,
                                        std::vector<std::vector<Real>>* keep) {
  std::vector<std::uint64_t> h(s.num_channels());
  std::vector<Real> env;
  for (std::size_t ch = 0; ch < s.num_channels(); ++ch) {
    env.clear();
    s.drain_arv(ch, env);
    h[ch] = hash_reals(env);
    if (keep != nullptr) keep->push_back(env);
  }
  return h;
}

struct Pass {
  ManagedPass managed;
  Hashes hashes;
};

Pass run_pass(const config::PipelineFactory& factory,
              runtime::SessionManager& manager,
              const std::vector<Gateway>& gateways) {
  const std::size_t g_count = gateways.size();
  Completions completions;
  std::vector<std::vector<ChunkTimes>> times(g_count);
  std::vector<std::vector<std::span<const Real>>> chunks(g_count);
  std::vector<runtime::SessionManager::SessionId> ids;
  std::vector<runtime::SharedAerStreamingSession*> raw;
  for (std::size_t g = 0; g < g_count; ++g) {
    chunks[g] = gateways[g].chunks;
    times[g].resize(chunks[g].size());
    auto s = factory.make_shared_session();
    raw.push_back(s.get());
    ids.push_back(manager.add(std::make_unique<TimedSession>(
        std::move(s), &times[g], &completions)));
  }
  Pass pass;
  pass.managed = run_managed(manager, ids, chunks, times, completions);
  // Release destroys the sessions, so nothing refers to `completions` or
  // `times` once this pass returns.
  for (std::size_t g = 0; g < g_count; ++g) {
    pass.hashes.push_back(drain_hashes(*raw[g], nullptr));
    manager.release(ids[g]);
  }
  return pass;
}

}  // namespace

Report run_gateway(const Options& opt) {
  Report report;
  config::ScenarioSpec spec = config::make_preset("shared-aer-64ch");
  spec.name = "aer-gateway-64";
  spec.session.chunk_samples = kRoundSamples;
  spec.session.jobs = nproc();
  const std::size_t g_count = std::min(kMaxGateways, nproc());

  std::vector<Gateway> gateways;
  std::unique_ptr<config::PipelineFactory> factory;
  const SetupTimes setup = time_setup(kSetupReps, [&] {
    SetupRep rep;
    const auto t0 = Clock::now();
    gateways.assign(g_count, Gateway{});
    for (std::size_t g = 0; g < g_count; ++g) {
      gateways[g].recs =
          synthesize(opt.seed, 100 + g, spec.source.channels,
                     spec.source.duration_s, emg::EmgModel::kFilteredNoise);
      build_rounds(gateways[g]);
    }
    rep.synthesis_s = seconds_since(t0);
    factory = std::make_unique<config::PipelineFactory>(spec);
    rep.calibration_s = time_calibration(*factory);
    (void)factory->calibration();
    return rep;
  });

  runtime::SessionManager::Config mc;
  mc.jobs = spec.session.jobs;
  runtime::SessionManager manager(mc);
  (void)run_pass(*factory, manager, gateways);  // warm-up, untimed

  // The reference: a direct session per gateway fed the same rounds, and
  // its envelope-vs-force score (deterministic).
  Hashes reference;
  std::vector<uwb::AerStats> arbiter_ref;
  const emg::Evaluator eval(factory->eval_config());
  double corr_sum = 0.0;
  std::size_t corr_n = 0;
  for (std::size_t g = 0; g < g_count; ++g) {
    auto direct = factory->make_shared_session();
    for (const auto& c : gateways[g].chunks) direct->push_chunk(c);
    direct->finish();
    std::vector<std::vector<Real>> env;
    reference.push_back(drain_hashes(*direct, &env));
    arbiter_ref.push_back(direct->arbiter_stats());
    for (std::size_t ch = 0; ch < env.size(); ++ch) {
      const auto truth = eval.ground_truth(gateways[g].recs[ch]);
      const std::size_t n = std::min(truth.size(), env[ch].size());
      corr_sum += dsp::correlation_percent(
          std::span<const Real>(truth.data(), n),
          std::span<const Real>(env[ch].data(), n));
      ++corr_n;
    }
  }
  const auto check_pass = [&](const Pass& p) {
    for (std::size_t g = 0; g < g_count; ++g) {
      report.check(p.hashes[g] == reference[g],
                   "aer-gateway-64: managed gateway " + std::to_string(g) +
                       " == direct SharedAerStreamingSession");
    }
  };

  const double duration = spec.source.duration_s;
  const double signal_s = duration * static_cast<double>(
                                         spec.source.channels * g_count);
  if (!opt.trace) {
    ManagedPass all;
    std::vector<double> x_realtime;
    const auto stop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    while (Clock::now() < stop) {
      const Pass p = run_pass(*factory, manager, gateways);
      check_pass(p);
      x_realtime.push_back(signal_s / p.managed.wall_s);
      all.append(p.managed);
    }

    EndToEnd e;
    e.rx_correlation_pct = corr_sum / static_cast<double>(corr_n);
    e.correlation_samples = corr_n;
    e.setup = setup;
    e.x_realtime = median(x_realtime);
    e.x_realtime_samples = x_realtime.size();
    e.latency_p50_s = quantile(all.latency_s, 0.5);
    e.latency_p99_s = quantile(all.latency_s, 0.99);
    e.latency_samples = all.latency_s.size();
    for (const double l : all.latency_s) e.late += l * 1e3 > kLatencyLimitMs;
    report_end_to_end(report, e);
    report.note("aer-gateway-64: closed loop, 1 producer, " +
                std::to_string(g_count) + " gateways x " +
                std::to_string(spec.source.channels) + " ch, " +
                std::to_string(kRoundSamples) + "-sample rounds, jobs=" +
                std::to_string(manager.jobs()) + ", latency limit " +
                std::to_string(kLatencyLimitMs) + " ms per round");
    return report;
  }

  LayerProbe probe;
  probe.setup = setup;
  {
    const Pass p = run_pass(*factory, manager, gateways);
    check_pass(p);
    probe.managed = p.managed;
    probe.lag_s = p.managed.lag_s;
  }
  Tracer tracer(true);
  const std::vector<emg::Recording>& recs0 = gateways[0].recs;
  probe_chain(*factory, recs0, 5, tracer, probe);
  // Batch chain == streaming gateway: per-channel envelopes and arbiter.
  for (std::size_t ch = 0; ch < recs0.size(); ++ch) {
    report.check(probe.chain.channels[ch].rx_envelope_hash == reference[0][ch],
                 "aer-gateway-64: stage-by-stage chain == gateway 0, channel " +
                     std::to_string(ch));
  }
  report.check(probe.chain.arbiter.sent == arbiter_ref[0].sent &&
                   probe.chain.arbiter.dropped == arbiter_ref[0].dropped,
               "aer-gateway-64: chain arbiter == gateway 0 arbiter");
  probe_runner(*factory, recs0, 5, probe);
  probe.recorder = probe_recorder(*factory, gateways[0].chunks, true,
                                  opt.scratch + "/recorder", tracer);
  probe.server =
      probe_server(*factory, gateways[0].chunks,
                   static_cast<std::uint16_t>(spec.source.channels),
                   opt.scratch + "/server", tracer);
  probe.accounting = account(tracer.spans());
  report_layers(report, probe);
  return report;
}

}  // namespace perfbench
