// Robustness study behind the paper's claim that "even if we add some
// pulses due to the artifacts ... the signal is still received with a
// good correlation, as artifacts effect is similar to pulse missing":
//  * UWB pulse-erasure sweep (pulse missing),
//  * artifact injection at the sensor (extra pulses),
//  * link-distance sweep through the energy-detection receiver,
//  * progressive muscle fatigue (spectrum compression under the encoder),
//  * injected system faults (chunk drops / sensor bursts via the fault
//    layer, store I/O failures through the Recorder) — the degradation
//    curves CI smoke-gates in BENCH_robustness.json.
//
// Every regime is a scenario: the base spec plus per-point key overrides
// (the same overrides `datc sweep --axes` would apply), so the bench
// cannot restate pipeline defaults.

#include "bench_util.hpp"

#include <filesystem>
#include <fstream>

#include "config/factory.hpp"
#include "core/atc_encoder.hpp"
#include "dsp/emg_metrics.hpp"
#include "emg/generator.hpp"
#include "runtime/faulty_session.hpp"
#include "fault/file_io.hpp"
#include "store/recorder.hpp"
#include "uwb/link_pipeline.hpp"

namespace {

namespace fs = std::filesystem;
using datc::dsp::Real;
using namespace datc;

/// Strong pulse on a near body-area link — the regime where only the
/// injected impairment (erasures, artifacts, distance) matters.
config::ScenarioSpec strong_link_spec() {
  auto spec = config::make_preset("paper-baseline");
  config::set_scenario_key(spec, "link.pulse_amplitude_v", "0.5");
  config::set_scenario_key(spec, "link.distance_m", "0.3");
  return spec;
}

/// Fixed-threshold ATC over the runner's link: marker-only packets,
/// reconstructed and scored with the runner's evaluator.
Real atc_over_link_pct(const runtime::PipelineRunner& runner,
                       const emg::Recording& rec, Real threshold_v) {
  core::AtcEncoderConfig enc;
  enc.threshold_v = threshold_v;
  const auto run = uwb::run_atc_over_link(
      core::encode_atc(rec.emg_v, enc).events, runner.config().link);
  const auto& eval = runner.evaluator();
  const auto recon = eval.reconstruct_atc(run.events_rx, threshold_v,
                                          rec.emg_v.duration_s());
  return eval.score(rec, {recon}).front();
}

/// One point of the chunk-fault degradation curve: stream a recording
/// through a FaultySession-wrapped session and score the degraded
/// envelope against the ground-truth ARV.
struct ChunkFaultPoint {
  Real drop_prob{0.0};
  Real dropout_prob{0.0};
  runtime::SessionFaultStats faults{};
  Real corr_pct{0.0};
  bool deterministic{false};  ///< two same-seed runs were bit-identical
};

ChunkFaultPoint run_chunk_fault_point(const char* drop_prob,
                                      const char* dropout_prob) {
  auto spec = strong_link_spec();
  // Noise model keeps the per-point synthesis cheap; the fault layer is
  // what this curve measures, not the motor-unit pool.
  config::set_scenario_key(spec, "source.model", "noise");
  config::set_scenario_key(spec, "source.duration_s", "6");
  config::set_scenario_key(spec, "fault.chunk_drop_prob", drop_prob);
  config::set_scenario_key(spec, "fault.sensor_dropout_prob", dropout_prob);
  const config::PipelineFactory factory(spec);
  const auto rec = factory.make_recording(0);
  const auto& samples = rec.emg_v.samples();

  ChunkFaultPoint point;
  point.drop_prob = spec.fault.chunk_drop_prob;
  point.dropout_prob = spec.fault.sensor_dropout_prob;
  const auto run = [&](std::vector<Real>& arv) {
    auto inner = factory.make_streaming_session(0);
    auto* streaming = inner.get();
    auto session = factory.wrap_session_faults(std::move(inner), 0);
    const std::size_t chunk = spec.session.chunk_samples;
    for (std::size_t pos = 0; pos < samples.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, samples.size() - pos);
      session->push_chunk(std::span<const Real>(samples.data() + pos, n));
      streaming->drain_arv(arv);
    }
    session->finish();
    streaming->drain_arv(arv);
    if (const auto* faulty =
            dynamic_cast<const runtime::FaultySession*>(session.get())) {
      point.faults = faulty->stats();
    }
  };
  std::vector<Real> arv_a;
  std::vector<Real> arv_b;
  run(arv_a);
  run(arv_b);
  point.deterministic = arv_a == arv_b;

  point.corr_pct = bench::evaluator().score(rec, {arv_a}).front();
  return point;
}

/// One point of the store-fault curve: a fixed synthetic event stream
/// recorded through a seeded FaultyFileIo, reporting the degradation
/// accounting (retries, drops, the offered == written + dropped check).
struct StoreFaultPoint {
  Real write_fail_prob{0.0};
  store::Recorder::Stats stats{};
  bool invariant_ok{false};
};

StoreFaultPoint run_store_fault_point(Real write_fail_prob) {
  const auto dir =
      (fs::temp_directory_path() /
       ("datc_bench_robustness_" +
        std::to_string(static_cast<int>(write_fail_prob * 100))))
          .string();
  fs::remove_all(dir);

  fault::StoreFaultSpec fspec;
  fspec.write_fail_prob = write_fail_prob;
  fspec.fsync_fail_prob = write_fail_prob / 2.0;
  store::RecorderConfig rcfg;
  rcfg.log.dir = dir;
  rcfg.log.io = std::make_shared<fault::FaultyFileIo>(fspec, /*seed=*/4242);
  rcfg.max_queued_events = 1u << 20;  // overflow drops are timing-bound
  rcfg.io_backoff_initial_ms = 0.01;
  rcfg.io_backoff_max_ms = 0.05;
  store::Recorder recorder(rcfg);
  std::vector<core::Event> events(20000);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i] = core::Event{static_cast<Real>(i) * 1e-4, 1, 0};
  }
  recorder.offer(events);
  recorder.close();

  StoreFaultPoint point;
  point.write_fail_prob = write_fail_prob;
  point.stats = recorder.stats();
  point.invariant_ok =
      point.stats.offered == point.stats.written + point.stats.dropped;
  fs::remove_all(dir);
  return point;
}

struct ErasurePoint {
  Real prob{0.0};
  std::size_t events_tx{0};
  std::size_t events_rx{0};
  Real corr_pct{0.0};
};

void print_robustness() {
  bench::print_header(
      "Robustness - pulse erasure, artifacts, link distance, fatigue",
      "artifact pulses ~ pulse missing: correlation degrades gracefully");

  const auto& rec = bench::showcase();
  const auto& eval = bench::evaluator();

  // 1) Erasure sweep.
  std::vector<ErasurePoint> erasure;
  sim::Table t1({"erasure prob", "events RX/TX", "corr % (D-ATC)",
                 "corr % (ATC 0.3V)"});
  for (const char* p : {"0", "0.05", "0.1", "0.2", "0.3", "0.5"}) {
    auto spec = strong_link_spec();
    config::set_scenario_key(spec, "link.erasure_prob", p);
    const config::PipelineFactory factory(spec);
    const auto runner = factory.make_runner();
    const auto d = runner->run_channel(rec, 0);
    const Real a = atc_over_link_pct(*runner, rec, 0.3);
    erasure.push_back({factory.spec().link.erasure_prob, d.events_tx,
                       d.events_rx, d.rx_correlation_pct});
    t1.add_row({p,
                sim::Table::integer(d.events_rx) + "/" +
                    sim::Table::integer(d.events_tx),
                sim::Table::num(d.rx_correlation_pct, 2),
                sim::Table::num(a, 2)});
  }
  std::printf("pulse-missing sweep (UWB erasures):\n%s", t1.to_text().c_str());

  // 2) Artifact injection at the sensor — scenario-key mixes (the
  //    artifact-burst preset is the union of the last two rows).
  struct Mix {
    const char* name;
    std::vector<std::pair<const char*, const char*>> overrides;
  };
  const Mix mixes[] = {
      {"clean", {}},
      {"50 Hz hum 30 mV + wander",
       {{"source.powerline_amplitude_v", "0.03"},
        {"source.baseline_wander_amp_v", "0.03"}}},
      {"motion bursts + spikes",
       {{"source.motion_burst_rate_hz", "0.5"},
        {"source.motion_burst_amp_v", "0.25"},
        {"source.spike_rate_hz", "2"},
        {"source.spike_amp_v", "0.4"}}},
  };
  sim::Table t2({"artifact mix", "events (D-ATC)", "corr % (D-ATC)",
                 "corr % (ATC 0.3V)"});
  for (const auto& mix : mixes) {
    auto spec = strong_link_spec();
    for (const auto& [key, value] : mix.overrides) {
      config::set_scenario_key(spec, key, value);
    }
    const config::PipelineFactory factory(spec);
    const auto noisy = factory.make_recording(0);
    const auto d = eval.datc(noisy);
    const auto a = eval.atc(noisy, 0.3);
    t2.add_row({mix.name, sim::Table::integer(d.num_events),
                sim::Table::num(d.correlation_pct, 2),
                sim::Table::num(a.correlation_pct, 2)});
  }
  std::printf("\nartifact injection at the electrode:\n%s",
              t2.to_text().c_str());

  // 3) Distance sweep through the energy detector.
  sim::Table t3({"distance m", "pulses detected %", "corr % (D-ATC)"});
  for (const char* d_m : {"0.3", "1", "2", "5", "10"}) {
    auto spec = strong_link_spec();
    config::set_scenario_key(spec, "link.distance_m", d_m);
    const config::PipelineFactory factory(spec);
    const auto r = factory.make_runner()->run_channel(rec, 0);
    const Real det = r.decode.pulses_in == 0
                         ? 0.0
                         : 100.0 * static_cast<Real>(r.decode.pulses_detected) /
                               static_cast<Real>(r.decode.pulses_in);
    t3.add_row({d_m, sim::Table::num(det, 1),
                sim::Table::num(r.rx_correlation_pct, 2)});
  }
  std::printf("\nlink-distance sweep (energy-detection RX):\n%s",
              t3.to_text().c_str());

  // 4) Muscle fatigue: the fatigue-drift preset synthesises a grip
  //    protocol whose MUAPs stretch as effort accumulates; the sEMG
  //    spectrum compresses and the crossing statistics shift under the
  //    encoder.
  {
    const config::PipelineFactory factory(
        config::make_preset("fatigue-drift"));
    const auto frec = factory.make_recording(0);
    const auto d = eval.datc(frec);
    // Median frequency over the early high-effort segment vs the same
    // segment re-synthesised fresh: isolates the conduction slowing from
    // the force dynamics (rest periods would otherwise dominate the
    // late-window spectrum). The fresh pool must start from the SAME Rng
    // state the fatigued synthesis consumed — the state after the grip
    // protocol's draws — or pool randomness confounds the comparison.
    dsp::Rng fresh_rng(factory.spec().source.seed);
    (void)emg::grip_protocol(fresh_rng, factory.spec().source.start_mvc,
                             factory.spec().source.duration_s,
                             factory.spec().source.sample_rate_hz);
    auto fresh = emg::synthesize_pool(frec.force, emg::MotorUnitPoolConfig{},
                                      fresh_rng);
    const std::size_t seg = frec.emg_v.size() / 3;
    const Real fs = frec.emg_v.sample_rate_hz();
    const Real mf_fatigued = dsp::median_frequency_hz(
        std::span<const Real>(frec.emg_v.samples().data() + seg, seg), fs);
    const Real mf_fresh = dsp::median_frequency_hz(
        std::span<const Real>(fresh.samples().data() + seg, seg), fs);
    std::printf(
        "\nmuscle fatigue (fatigue-drift preset, conduction slowing): "
        "mid-session median frequency %.0f Hz vs %.0f Hz fresh,\n  D-ATC "
        "correlation vs ARV stays %.2f %% (the spectral compression moves "
        "the crossing rate, not the tracking).\n",
        mf_fatigued, mf_fresh, d.correlation_pct);
  }

  // 5) Injected chunk-stream faults through the fault layer: the curve
  //    the chaos scenarios rest on — dropped chunks behave like pulse
  //    missing, sensor dropout bursts like artifacts, and a fixed fault
  //    seed reproduces the degraded envelope bit for bit.
  std::vector<ChunkFaultPoint> chunk_faults;
  sim::Table t5({"drop prob", "dropout prob", "chunks dropped",
                 "samples corrupted", "corr % vs ARV", "deterministic"});
  const std::pair<const char*, const char*> chunk_points[] = {
      {"0", "0"}, {"0.02", "0"}, {"0.05", "0.02"}, {"0.1", "0.05"}};
  for (const auto& [drop, dropout] : chunk_points) {
    chunk_faults.push_back(run_chunk_fault_point(drop, dropout));
    const auto& pt = chunk_faults.back();
    t5.add_row({drop, dropout, sim::Table::integer(pt.faults.chunks_dropped),
                sim::Table::integer(pt.faults.samples_corrupted),
                sim::Table::num(pt.corr_pct, 2),
                pt.deterministic ? "yes" : "NO"});
  }
  std::printf("\ninjected chunk/sensor faults (streaming, seeded):\n%s",
              t5.to_text().c_str());

  // 6) Store I/O faults through the Recorder's degraded mode: retries
  //    absorb transient failures; what they cannot absorb is dropped and
  //    counted, never fatal — offered == written + dropped throughout.
  std::vector<StoreFaultPoint> store_faults;
  sim::Table t6({"write-fail prob", "written", "dropped", "io retries",
                 "invariant"});
  for (const Real p : {0.0, 0.1, 0.3, 0.5}) {
    store_faults.push_back(run_store_fault_point(p));
    const auto& pt = store_faults.back();
    t6.add_row({sim::Table::num(p, 2), sim::Table::integer(pt.stats.written),
                sim::Table::integer(pt.stats.dropped),
                sim::Table::integer(pt.stats.io_retries),
                pt.invariant_ok ? "holds" : "BROKEN"});
  }
  std::printf("\nstore I/O faults (Recorder retry + drop-and-continue):\n%s",
              t6.to_text().c_str());

  std::printf(
      "\nshape check: correlation decays smoothly with erasures (no "
      "cliff), and artifacts cost only a few\n  correlation points — the "
      "paper's graceful-degradation claim; injected system faults follow "
      "the same curve.\n");

  std::ofstream json("BENCH_robustness.json");
  if (!json.good()) {
    std::printf("WARNING: could not write BENCH_robustness.json\n");
    return;
  }
  json.precision(12);
  json << "{\n  \"erasure\": [\n";
  for (std::size_t i = 0; i < erasure.size(); ++i) {
    const auto& p = erasure[i];
    json << "    {\"prob\": " << p.prob << ", \"events_tx\": " << p.events_tx
         << ", \"events_rx\": " << p.events_rx
         << ", \"corr_pct\": " << p.corr_pct << "}"
         << (i + 1 < erasure.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"chunk_faults\": [\n";
  for (std::size_t i = 0; i < chunk_faults.size(); ++i) {
    const auto& p = chunk_faults[i];
    json << "    {\"drop_prob\": " << p.drop_prob
         << ", \"dropout_prob\": " << p.dropout_prob
         << ", \"chunks_dropped\": " << p.faults.chunks_dropped
         << ", \"chunks_duplicated\": " << p.faults.chunks_duplicated
         << ", \"samples_corrupted\": " << p.faults.samples_corrupted
         << ", \"corr_pct\": " << p.corr_pct
         << ", \"deterministic\": " << (p.deterministic ? "true" : "false")
         << "}" << (i + 1 < chunk_faults.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"store_faults\": [\n";
  for (std::size_t i = 0; i < store_faults.size(); ++i) {
    const auto& p = store_faults[i];
    json << "    {\"write_fail_prob\": " << p.write_fail_prob
         << ", \"offered\": " << p.stats.offered
         << ", \"written\": " << p.stats.written
         << ", \"dropped\": " << p.stats.dropped
         << ", \"io_errors\": " << p.stats.io_errors
         << ", \"io_retries\": " << p.stats.io_retries
         << ", \"invariant_ok\": " << (p.invariant_ok ? "true" : "false")
         << "}" << (i + 1 < store_faults.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

void bench_e2e_run(benchmark::State& state) {
  const auto& rec = bench::showcase();
  auto spec = strong_link_spec();
  config::set_scenario_key(spec, "link.erasure_prob", "0.1");
  const config::PipelineFactory factory(spec);
  const auto runner = factory.make_runner();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner->run_channel(rec, 0).rx_correlation_pct);
  }
}
BENCHMARK(bench_e2e_run)->Unit(benchmark::kMillisecond);

}  // namespace

DATC_BENCH_MAIN(print_robustness)
