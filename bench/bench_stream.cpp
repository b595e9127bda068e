// Streaming session engine evaluation: (1) the bit-identicality gate —
// chunked encode -> link -> decode -> reconstruct vs the batch pipeline
// across chunk sizes, per-channel and shared-AER; (2) a sessions x
// chunk-size throughput grid through the SessionManager, with the
// per-session peak working set as the bounded-memory (RSS proxy) figure.
//
// Emits BENCH_stream.json next to the binary so CI smoke-gates parity and
// tracks the throughput trajectory.

#include "bench_util.hpp"

#include <chrono>
#include <fstream>

#include "config/factory.hpp"
#include "runtime/session.hpp"
#include "sim/stream_parity.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr std::size_t kParityChunks[] = {1, 7, 64, 4096, 0};  // 0 = whole

/// The bench regime: the paper-baseline preset moved to a slightly lossy
/// 0.6 m link. Encoder/recon/calibration defaults come from the preset —
/// the bench never restates them.
const config::PipelineFactory& stream_factory() {
  static const config::PipelineFactory factory = [] {
    auto spec = config::make_preset("paper-baseline");
    config::set_scenario_key(spec, "link.seed", "2025");
    config::set_scenario_key(spec, "link.distance_m", "0.6");
    config::set_scenario_key(spec, "link.erasure_prob", "0.05");
    return config::PipelineFactory(std::move(spec));
  }();
  return factory;
}

std::vector<emg::Recording> stream_channels(std::size_t n, Real duration_s) {
  std::vector<emg::Recording> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emg::RecordingSpec spec;
    spec.seed = 3000 + i;
    spec.duration_s = duration_s;
    spec.gain_v = 0.2 + 0.02 * static_cast<Real>(i % 16);
    spec.name = "stream-bench-ch" + std::to_string(i);
    recs.push_back(emg::make_recording(spec));
  }
  return recs;
}

struct GridPoint {
  std::size_t sessions{0};
  std::size_t chunk{0};
  Real wall_ms{0.0};
  Real throughput_x_realtime{0.0};
  std::size_t peak_buffered_bytes{0};
};

GridPoint run_grid_point(const std::vector<emg::Recording>& recs,
                         std::size_t chunk) {
  const auto cfg = stream_factory().session_config();
  runtime::SessionManager manager({.jobs = 0, .max_pending_chunks = 4});
  std::vector<runtime::StreamingSession*> sessions;
  std::vector<runtime::SessionManager::SessionId> ids;
  for (std::size_t c = 0; c < recs.size(); ++c) {
    auto s = std::make_unique<runtime::StreamingSession>(
        cfg, static_cast<std::uint32_t>(c));
    sessions.push_back(s.get());
    ids.push_back(manager.add(std::move(s)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t total = recs[0].emg_v.size();
  for (std::size_t pos = 0; pos < total; pos += chunk) {
    for (std::size_t c = 0; c < recs.size(); ++c) {
      const auto& samples = recs[c].emg_v.samples();
      const std::size_t n = std::min(chunk, samples.size() - pos);
      manager.submit_chunk(ids[c],
                           std::span<const Real>(samples.data() + pos, n));
    }
  }
  for (const auto id : ids) manager.submit_finish(id);
  manager.drain();
  const Real wall =
      std::chrono::duration<Real>(std::chrono::steady_clock::now() - t0)
          .count();

  GridPoint p;
  p.sessions = recs.size();
  p.chunk = chunk;
  p.wall_ms = wall * 1e3;
  Real emg_seconds = 0.0;
  for (const auto& rec : recs) emg_seconds += rec.emg_v.duration_s();
  p.throughput_x_realtime = wall > 0.0 ? emg_seconds / wall : 0.0;
  for (const auto* s : sessions) {
    p.peak_buffered_bytes =
        std::max(p.peak_buffered_bytes, s->peak_buffered_bytes());
  }
  return p;
}

void print_stream_table() {
  bench::print_header(
      "Streaming session engine: chunked pipeline parity + throughput",
      "continuously running event-driven front end - long-lived sessions "
      "with O(chunk) memory instead of whole-record batches");

  const auto& factory = stream_factory();
  const auto eval = factory.eval_config();
  const auto link = factory.link_config();
  const auto cal = factory.calibration();

  // ---- parity: streaming == batch, exactly, for every chunk size.
  const auto rec = stream_channels(1, 3.0)[0];
  std::vector<sim::StreamParityResult> parity;
  std::printf("per-channel parity (3 s record, erasures + jitter):\n");
  std::printf("  chunk    events(batch/stream)  events==  arv==  max|dARV|\n");
  for (const std::size_t chunk : kParityChunks) {
    parity.push_back(
        sim::check_stream_parity(rec.emg_v, eval, link, cal, chunk));
    const auto& r = parity.back();
    std::printf("  %-7s  %9zu /%9zu  %-8s  %-5s  %.3g\n",
                chunk == 0 ? "whole" : std::to_string(chunk).c_str(),
                r.events_batch, r.events_stream,
                r.events_equal ? "yes" : "NO", r.arv_equal ? "yes" : "NO",
                r.max_abs_arv_diff);
  }

  std::vector<dsp::TimeSeries> shared_chans;
  for (auto& r : stream_channels(4, 2.0)) shared_chans.push_back(r.emg_v);
  uwb::SharedAerConfig shared;
  shared.aer.address_bits = 2;
  shared.aer.min_spacing_s = 2e-6;
  std::vector<sim::StreamParityResult> shared_parity;
  std::printf("shared-AER parity (4 channels x 2 s, one arbitrated radio):\n");
  for (const std::size_t chunk : kParityChunks) {
    shared_parity.push_back(sim::check_shared_stream_parity(
        shared_chans, eval, link, shared, cal, chunk));
    const auto& r = shared_parity.back();
    std::printf("  chunk %-6s events %zu, events== %s, arv== %s\n",
                chunk == 0 ? "whole" : std::to_string(chunk).c_str(),
                r.events_batch, r.events_equal ? "yes" : "NO",
                r.arv_equal ? "yes" : "NO");
  }

  // ---- sessions x chunk-size grid.
  std::printf("sessions x chunk-size grid (SessionManager, all cores):\n");
  std::printf("  sessions  chunk  wall ms   x realtime  peak session KiB\n");
  std::vector<GridPoint> grid;
  for (const std::size_t sessions : {1u, 8u, 32u}) {
    const auto recs = stream_channels(sessions, 4.0);
    for (const std::size_t chunk : {64u, 512u, 4096u}) {
      grid.push_back(run_grid_point(recs, chunk));
      const auto& p = grid.back();
      std::printf("  %8zu  %5zu  %8.1f  %10.0f  %16.1f\n", p.sessions,
                  p.chunk, p.wall_ms, p.throughput_x_realtime,
                  static_cast<Real>(p.peak_buffered_bytes) / 1024.0);
    }
  }

  // ---- JSON for the CI gate.
  std::ofstream json("BENCH_stream.json");
  if (!json.good()) {
    std::printf("WARNING: could not write BENCH_stream.json\n");
    return;
  }
  json.precision(12);
  const auto parity_block = [&json](
                                const std::vector<sim::StreamParityResult>& v,
                                const char* name) {
    json << "  \"" << name << "\": [\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
      json << "    {\"chunk_size\": " << v[i].chunk_size
           << ", \"events_batch\": " << v[i].events_batch
           << ", \"events_equal\": " << (v[i].events_equal ? "true" : "false")
           << ", \"arv_equal\": " << (v[i].arv_equal ? "true" : "false")
           << "}" << (i + 1 < v.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
  };
  json << "{\n";
  parity_block(parity, "parity");
  parity_block(shared_parity, "shared_parity");
  json << "  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& p = grid[i];
    json << "    {\"sessions\": " << p.sessions << ", \"chunk\": " << p.chunk
         << ", \"wall_ms\": " << p.wall_ms
         << ", \"throughput_x_realtime\": " << p.throughput_x_realtime
         << ", \"peak_buffered_bytes\": " << p.peak_buffered_bytes << "}"
         << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void bench_stream_session_4096(benchmark::State& state) {
  // One streaming session chewing 4096-sample chunks, full chain.
  const auto cfg = stream_factory().session_config();
  const auto rec = stream_channels(1, 2.0)[0];
  const auto& samples = rec.emg_v.samples();
  for (auto _ : state) {
    runtime::StreamingSession session(cfg, 0);
    for (std::size_t pos = 0; pos < samples.size(); pos += 4096) {
      const std::size_t n = std::min<std::size_t>(4096, samples.size() - pos);
      session.push_chunk(std::span<const Real>(samples.data() + pos, n));
    }
    session.finish();
    benchmark::DoNotOptimize(session.report().events_rx);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(bench_stream_session_4096)->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_stream_table)
