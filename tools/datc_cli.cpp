// datc — command-line front end to the library.
//
// `datc` (no arguments) lists the subcommands; `datc <sub> --help` prints
// the detailed per-subcommand reference (flags, defaults, examples).
//
// All I/O is CSV so results pipe straight into plotting tools; the event
// store subcommands (record/query/replay) additionally speak the binary
// segment format under a session directory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/atc_encoder.hpp"
#include "core/datc_encoder.hpp"
#include "core/event_io.hpp"
#include "core/reconstruct.hpp"
#include "dsp/envelope.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/session.hpp"
#include "config/scenario_grid.hpp"
#include "sim/stream_parity.hpp"
#include "store/log.hpp"
#include "store/recorder.hpp"
#include "store/replay.hpp"
#include "synth/report.hpp"

using namespace datc;
using dsp::Real;

namespace {

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  int i = first;
  for (; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got " + key);
    }
    args[key.substr(2)] = argv[i + 1];
  }
  if (i < argc) {
    // A trailing flag without a value used to be silently discarded —
    // and a mistyped command would then run with side effects.
    throw std::invalid_argument(std::string("flag without a value: ") +
                                argv[i]);
  }
  return args;
}

Real arg_num(const Args& a, const std::string& key, Real fallback) {
  const auto it = a.find(key);
  return it == a.end() ? fallback : std::stod(it->second);
}

std::string arg_str(const Args& a, const std::string& key,
                    const std::string& fallback) {
  const auto it = a.find(key);
  return it == a.end() ? fallback : it->second;
}

bool write_signal_csv(const std::string& path, const dsp::TimeSeries& sig) {
  std::ofstream f(path);
  if (!f.good()) return false;
  f << "time_s,emg_v\n";
  f.precision(10);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    f << sig.time_of(i) << ',' << sig[i] << '\n';
  }
  return f.good();
}

dsp::TimeSeries read_signal_csv(const std::string& path) {
  std::ifstream f(path);
  dsp::require(f.good(), "cannot open " + path);
  std::string line;
  dsp::require(static_cast<bool>(std::getline(f, line)), "empty file");
  std::vector<Real> t;
  std::vector<Real> v;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string a;
    std::string b;
    dsp::require(static_cast<bool>(std::getline(row, a, ',')) &&
                     static_cast<bool>(std::getline(row, b, ',')),
                 "bad row: " + line);
    t.push_back(std::stod(a));
    v.push_back(std::stod(b));
  }
  dsp::require(t.size() >= 2, "need at least two samples");
  const Real fs = 1.0 / (t[1] - t[0]);
  return dsp::TimeSeries(std::move(v), fs);
}

/// Incremental time_s,value CSV source: a file or stdin ("-"). Derives
/// the sample rate from the first two rows' time column, so a
/// mis-declared rate cannot silently mis-parameterise the chain.
class SignalCsvSource {
 public:
  explicit SignalCsvSource(const std::string& in) {
    if (in != "-") {
      file_.open(in);
      dsp::require(file_.good(), "cannot open " + in);
      is_ = &file_;
    } else {
      is_ = &std::cin;
    }
    std::string line;
    dsp::require(static_cast<bool>(std::getline(*is_, line)),
                 "signal CSV: empty input");  // header
    Real t0;
    Real t1;
    dsp::require(next_row(&t0, &first_) && next_row(&t1, &second_),
                 "signal CSV: need at least two samples");
    dsp::require(t1 > t0, "signal CSV: time column must be increasing");
    fs_hz_ = 1.0 / (t1 - t0);
  }

  [[nodiscard]] Real sample_rate_hz() const { return fs_hz_; }

  /// Yields every sample value in order (the two header-probe rows
  /// first). False at end of input.
  [[nodiscard]] bool next(Real* v) {
    if (pending_ < 2) {
      *v = pending_ == 0 ? first_ : second_;
      ++pending_;
      return true;
    }
    Real t;
    return next_row(&t, v);
  }

 private:
  [[nodiscard]] bool next_row(Real* t, Real* v) {
    std::string line;
    while (std::getline(*is_, line)) {
      if (line.empty()) continue;
      std::istringstream row(line);
      std::string t_cell;
      std::string v_cell;
      dsp::require(static_cast<bool>(std::getline(row, t_cell, ',')) &&
                       static_cast<bool>(std::getline(row, v_cell, ',')),
                   "bad row: " + line);
      *t = std::stod(t_cell);
      *v = std::stod(v_cell);
      return true;
    }
    return false;
  }

  std::ifstream file_;
  std::istream* is_{nullptr};
  Real fs_hz_{0.0};
  Real first_{0.0};
  Real second_{0.0};
  int pending_{0};
};

// ---------------------------------------------------- scenario plumbing
//
// Every pipeline-running subcommand resolves its parameters into a
// config::ScenarioSpec and builds the chain through PipelineFactory —
// the CLI never wires encoder/link/recon structs by hand. Without
// --scenario, the historical flag defaults are applied on top of the
// spec defaults, so legacy invocations behave identically.

/// Exact decimal form of a Real for set_scenario_key round-trips.
std::string real_str(Real v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One `--flag VALUE` forwarded into a scenario key.
struct FlagKey {
  const char* flag;
  const char* key;
  /// Historical default applied when no --scenario is given; nullptr
  /// leaves the spec's own default.
  const char* legacy_default;
};

/// Flags were historically parsed as doubles then cast (`--seed 1e6`,
/// `--channels 16.0` were accepted), so a flag value whose double form
/// is a non-negative integer is normalised to plain digits before it
/// reaches the strict scenario-key parser. Everything else (fractions,
/// enums, malformed text) passes through for the key's own parser to
/// judge. Scenario FILES stay strict — only the flag surface is lenient.
std::string normalize_flag_value(const std::string& v) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    return v;
  }
  if (pos != v.size() || !std::isfinite(d) || d < 0.0 ||
      d != std::floor(d) || d >= 9.007199254740992e15) {
    return v;  // not an exactly-representable non-negative integer
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", d);
  return buf;
}

/// Builds the spec for a subcommand: `--scenario FILE|PRESET` (else the
/// defaults), explicit flags on top, then free-form `--set "k=v; k=v"`.
config::ScenarioSpec spec_from_args(const Args& a,
                                    std::initializer_list<FlagKey> flags,
                                    const char* cmd_name) {
  const bool have_scenario = a.count("scenario") != 0;
  config::ScenarioSpec spec;
  if (have_scenario) spec = config::load_scenario(a.at("scenario"));
  for (const auto& fk : flags) {
    const auto it = a.find(fk.flag);
    if (it != a.end()) {
      config::set_scenario_key(spec, fk.key,
                               normalize_flag_value(it->second));
    } else if (!have_scenario && fk.legacy_default != nullptr) {
      config::set_scenario_key(spec, fk.key, fk.legacy_default);
    }
  }
  const auto set_it = a.find("set");
  if (set_it != a.end()) {
    for (const auto& axis : config::parse_axes(set_it->second)) {
      dsp::require(axis.values.size() == 1,
                   std::string(cmd_name) +
                       ": --set takes one value per key (use `datc sweep` "
                       "for value lists)");
      config::set_scenario_key(spec, axis.key, axis.values[0]);
    }
  }
  return spec;
}

int cmd_generate(const Args& a) {
  emg::RecordingSpec spec;
  spec.seed = static_cast<std::uint64_t>(arg_num(a, "seed", 1.0));
  spec.gain_v = arg_num(a, "gain", 0.35);
  spec.duration_s = arg_num(a, "duration", 20.0);
  spec.name = "cli";
  const auto rec = emg::make_recording(spec);
  const auto out = arg_str(a, "out", "signal.csv");
  if (!write_signal_csv(out, rec.emg_v)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu samples (%.1f s, gain %.2f V) to %s\n",
              rec.emg_v.size(), spec.duration_s, spec.gain_v, out.c_str());
  return 0;
}

int cmd_encode(const Args& a) {
  const auto sig = read_signal_csv(arg_str(a, "in", "signal.csv"));
  const auto scheme = arg_str(a, "scheme", "datc");
  const auto out = arg_str(a, "out", "events.csv");
  core::EventStream events;
  if (scheme == "datc") {
    const auto r = core::encode_datc(sig, core::DatcEncoderConfig{});
    events = r.events;
  } else if (scheme == "atc") {
    core::AtcEncoderConfig cfg;
    cfg.threshold_v = arg_num(a, "vth", 0.3);
    events = core::encode_atc(sig, cfg).events;
  } else {
    std::fprintf(stderr, "unknown scheme '%s' (datc|atc)\n", scheme.c_str());
    return 1;
  }
  if (!core::write_events_csv(out, events)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("%s: %zu events -> %s\n", scheme.c_str(), events.size(),
              out.c_str());
  return 0;
}

int cmd_reconstruct(const Args& a) {
  const auto events = core::read_events_csv(arg_str(a, "events", "events.csv"));
  const Real duration = arg_num(a, "duration", 20.0);
  core::RateCalibrationConfig cal_cfg;
  cal_cfg.count_fs_hz = 2000.0;
  const auto cal = std::make_shared<core::RateCalibration>(cal_cfg);
  const core::DatcReconstructor rx(core::ReconstructionConfig{}, cal);
  const auto est = rx.reconstruct(events, duration);
  const auto out = arg_str(a, "out", "envelope.csv");
  {
    std::ofstream f(out);
    if (!f.good()) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    f << "time_s,arv_v\n";
    for (std::size_t i = 0; i < est.size(); ++i) {
      f << static_cast<Real>(i) / 2500.0 << ',' << est[i] << '\n';
    }
  }
  std::printf("reconstructed %zu envelope samples -> %s\n", est.size(),
              out.c_str());
  const auto truth_path = arg_str(a, "truth", "");
  if (!truth_path.empty()) {
    const auto sig = read_signal_csv(truth_path);
    const auto truth = dsp::arv_envelope(sig.view(), sig.sample_rate_hz(),
                                         0.25);
    std::printf("correlation vs %s: %.2f %%\n", truth_path.c_str(),
                emg::score_against(truth, {est}).front());
  }
  return 0;
}

int cmd_pipeline(const Args& a) {
  auto spec = spec_from_args(
      a,
      {
          {"channels", "source.channels", "16"},
          {"duration", "source.duration_s", "20"},
          {"seed", "source.seed", "1"},
          {"seed", "link.seed", "1"},  // one --seed drives both, as before
          {"gain-lo", "source.gain_lo_v", "0.16"},
          {"gain-hi", "source.gain_hi_v", "0.85"},
          {"distance", "link.distance_m", "0.5"},
          {"jobs", "session.jobs", "0"},
          {"link", "aer.topology", "private"},
      },
      "pipeline");
  if (a.count("spacing-us") != 0) {
    const Real spacing_us = arg_num(a, "spacing-us", 2.0);
    dsp::require(spacing_us >= 0.0, "pipeline: --spacing-us must be >= 0");
    config::set_scenario_key(spec, "aer.min_spacing_s",
                             real_str(spacing_us * 1e-6));
  }
  const config::PipelineFactory factory(spec);

  std::printf("synthesising %zu channel(s) x %.1f s ...\n",
              spec.source.channels, spec.source.duration_s);
  const auto recs = factory.make_recordings();
  const auto runner = factory.make_runner();
  const auto report = runner->run(recs);

  // In shared mode the radio is link-wide, so per-channel pulse counts do
  // not exist — the column is dashed out and the totals printed below.
  const bool shared_mode = report.link_mode == runtime::LinkMode::kSharedAer;
  std::printf("ch  gain_v  events_tx  pulses_tx  events_rx  tx_corr  rx_corr\n");
  for (const auto& ch : report.channels) {
    std::printf("%2u  %6.3f  %9zu  ", ch.channel,
                recs[ch.channel].spec.gain_v, ch.events_tx);
    if (shared_mode) {
      std::printf("%9s  ", "-");
    } else {
      std::printf("%9zu  ", ch.pulses_tx);
    }
    std::printf("%9zu  %6.1f%%  %6.1f%%\n", ch.events_rx,
                ch.tx_correlation_pct, ch.rx_correlation_pct);
  }
  if (report.link_mode == runtime::LinkMode::kSharedAer) {
    const auto& s = report.shared;
    std::printf(
        "shared AER link: %zu events offered, %zu sent (%zu dropped in "
        "arbitration, worst queue %.2f ms), %zu pulses on air (%zu erased), "
        "%zu frames decoded, %zu bad addresses; ledger: %zu matched, %zu "
        "address errors, %zu code errors, %zu spurious\n",
        s.arbiter.in_events, s.arbiter.sent, s.arbiter.dropped,
        s.arbiter.max_delay_s * 1e3, s.pulses_tx, s.pulses_erased,
        s.events_rx, s.demux.invalid_address, s.ledger.matched,
        s.ledger.address_errors, s.ledger.code_errors, s.ledger.spurious);
  }
  std::printf(
      "%zu channel(s) on %zu job(s): %.1f ms wall, %.0fx realtime\n",
      report.channels.size(), runner->jobs(), report.wall_seconds * 1e3,
      report.throughput_x_realtime());
  return 0;
}

/// The `stream`/`record` flag -> key forwarding (legacy defaults equal
/// the spec defaults; the list keeps explicit flags working on top of
/// --scenario).
constexpr std::initializer_list<FlagKey> kStreamFlags = {
    {"chunk", "session.chunk_samples", nullptr},
    {"seed", "link.seed", nullptr},
    {"channel", "session.channel", nullptr},
    {"distance", "link.distance_m", nullptr},
};

int cmd_stream(const Args& a) {
  SignalCsvSource source(arg_str(a, "in", "-"));
  const Real fs = source.sample_rate_hz();
  auto spec = spec_from_args(a, kStreamFlags, "stream");
  // The signal's own rate wins: a scenario cannot mis-declare the rate of
  // a CSV it does not produce.
  config::set_scenario_key(spec, "source.sample_rate_hz", real_str(fs));
  const config::PipelineFactory factory(spec);
  const auto eval = factory.eval_config();
  const std::size_t chunk_size = spec.session.chunk_samples;

  const bool verify = arg_num(a, "verify", 0.0) != 0.0;
  auto cfg = factory.session_config();
  cfg.keep_rx_events = verify;
  runtime::StreamingSession session(cfg, spec.session.channel);

  const auto out_path = arg_str(a, "out", "envelope.csv");
  std::ofstream fout(out_path);
  if (!fout.good()) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  fout << "time_s,arv_v\n";
  fout.precision(10);

  std::vector<Real> all_samples;  // retained only when verifying
  std::vector<Real> all_arv;      // ditto: the envelope actually written
  std::vector<Real> chunk_buf;
  chunk_buf.reserve(chunk_size);
  std::vector<Real> arv;
  std::size_t emitted = 0;
  const auto flush_chunk = [&] {
    if (chunk_buf.empty()) return;
    session.push_chunk(chunk_buf);
    chunk_buf.clear();
    arv.clear();
    session.drain_arv(arv);
    for (const Real v : arv) {
      fout << static_cast<Real>(emitted++) / eval.analog_fs_hz << ',' << v
           << '\n';
    }
    if (verify) all_arv.insert(all_arv.end(), arv.begin(), arv.end());
  };
  Real v_row;
  while (source.next(&v_row)) {
    chunk_buf.push_back(v_row);
    if (verify) all_samples.push_back(v_row);
    if (chunk_buf.size() >= chunk_size) flush_chunk();
  }
  flush_chunk();
  session.finish();
  arv.clear();
  session.drain_arv(arv);
  for (const Real v : arv) {
    fout << static_cast<Real>(emitted++) / eval.analog_fs_hz << ',' << v
         << '\n';
  }
  if (verify) all_arv.insert(all_arv.end(), arv.begin(), arv.end());

  const auto report = session.report();
  std::printf(
      "streamed %zu samples (%.0f Hz) in %zu-sample chunks: %zu events tx, "
      "%zu pulses on air (%zu erased), %zu events rx, %zu envelope samples "
      "-> %s\n",
      report.samples_in, fs, chunk_size, report.events_tx,
      report.pulses_tx,
      report.pulses_erased, report.events_rx, report.arv_emitted,
      out_path.c_str());
  std::printf("fixed latency %.0f ms, peak working set %.1f KiB\n",
              1e3 * (eval.window_s / 2.0 + 1.0 / eval.analog_fs_hz),
              static_cast<Real>(session.peak_buffered_bytes()) / 1024.0);

  if (verify) {
    // Verify the envelope THIS run emitted (not a fresh re-stream), so
    // the CLI's own feed path is covered too.
    const dsp::TimeSeries sig(std::move(all_samples), eval.analog_fs_hz);
    const auto r =
        sim::check_stream_output(sig, eval, factory.link_config(),
                                 factory.calibration(), chunk_size,
                                 spec.session.channel, session.rx_events(),
                                 all_arv);
    std::printf("verify vs batch: events %s (%zu), ARV %s (max diff %.3g)\n",
                r.events_equal ? "identical" : "DIFFER", r.events_batch,
                r.arv_equal ? "identical" : "DIFFER", r.max_abs_arv_diff);
    if (!r.identical()) return 1;
  }
  return 0;
}

int cmd_record(const Args& a) {
  SignalCsvSource source(arg_str(a, "in", "-"));
  const auto dir = arg_str(a, "dir", "");
  dsp::require(!dir.empty(), "record: --dir is required");
  // A session directory is one recording: appending a second session
  // would collide with the resumed time watermark (new times restart at
  // ~0) and overwrite the manifest/envelope sidecars. Refuse up front
  // with a usable message instead of failing inside the writer thread.
  if (std::filesystem::exists(dir)) {
    dsp::require(std::filesystem::is_directory(dir) &&
                     std::filesystem::is_empty(dir),
                 "record: --dir " + dir +
                     " already holds data; record each session into a "
                     "fresh directory");
  }
  const Real fs = source.sample_rate_hz();
  auto spec = spec_from_args(a, kStreamFlags, "record");
  config::set_scenario_key(spec, "source.sample_rate_hz", real_str(fs));
  const config::PipelineFactory factory(spec);
  const std::size_t chunk_size = spec.session.chunk_samples;

  const Real seg_events_f = arg_num(a, "segment-events", 65536.0);
  dsp::require(seg_events_f >= 1.0,
               "record: --segment-events must be >= 1");
  const Real seg_span = arg_num(a, "segment-span",
                                std::numeric_limits<Real>::infinity());
  dsp::require(seg_span > 0.0, "record: --segment-span must be positive");

  const auto session =
      factory.make_streaming_session(spec.session.channel);

  // Factory-built recorder config: fault.store_* keys in the scenario
  // route segment I/O through the seeded fault-injection seam.
  store::RecorderConfig rcfg = factory.recorder_config(dir);
  rcfg.log.max_events_per_segment =
      static_cast<std::uint64_t>(seg_events_f);
  rcfg.log.max_segment_span_s = seg_span;
  store::Recorder recorder(rcfg);
  session->set_event_tee(
      [&recorder](std::span<const core::Event> ev) { recorder.offer(ev); });

  std::vector<Real> live_arv;
  std::vector<Real> chunk_buf;
  chunk_buf.reserve(chunk_size);
  Real v_row;
  while (source.next(&v_row)) {
    chunk_buf.push_back(v_row);
    if (chunk_buf.size() >= chunk_size) {
      session->push_chunk(chunk_buf);
      chunk_buf.clear();
      session->drain_arv(live_arv);
    }
  }
  if (!chunk_buf.empty()) session->push_chunk(chunk_buf);
  session->finish();
  session->drain_arv(live_arv);
  recorder.close();

  const auto report = session->report();
  const auto manifest = factory.manifest(
      static_cast<Real>(report.samples_in) / spec.source.sample_rate_hz);
  store::write_manifest(dir, manifest);
  store::write_envelope_f64(dir, live_arv);

  const auto stats = recorder.stats();
  std::printf(
      "recorded %zu samples (%.1f s at %.0f Hz): %zu events decoded, %llu "
      "stored in %llu segment(s) (%llu dropped at the queue) -> %s\n",
      report.samples_in, manifest.duration_s, fs, report.events_rx,
      static_cast<unsigned long long>(stats.written),
      static_cast<unsigned long long>(stats.segments_finalized),
      static_cast<unsigned long long>(stats.dropped), dir.c_str());
  std::printf("manifest + %zu-sample live envelope sidecar written; replay "
              "with: datc replay --dir %s --verify 1\n",
              live_arv.size(), dir.c_str());
  return 0;
}

/// `serve` flag -> scenario-key forwarding (serve.* shapes the daemon;
/// session.jobs sizes the shard worker pools).
constexpr std::initializer_list<FlagKey> kServeFlags = {
    {"port", "serve.port", nullptr},
    {"shards", "serve.shards", nullptr},
    {"max-sessions", "serve.max_sessions", nullptr},
    {"inflight", "serve.inflight", nullptr},
    {"jobs", "session.jobs", nullptr},
};

int cmd_serve(const Args& a) {
  const auto spec = spec_from_args(a, kServeFlags, "serve");
  const auto out_dir = arg_str(a, "out-dir", "");
  net::Server server(net::make_serve_config(spec, out_dir));
  server.install_signal_handlers();
  std::printf(
      "datc serve: listening on 127.0.0.1:%u — %zu shard(s), max %zu "
      "session(s), inflight bound %zu%s%s\n",
      static_cast<unsigned>(server.port()), spec.serve.shards,
      spec.serve.max_sessions, spec.serve.max_inflight_chunks,
      out_dir.empty() ? " (ingest only, no persistence)" : ", output -> ",
      out_dir.c_str());
  std::fflush(stdout);
  server.run();
  const auto st = server.stats();
  std::printf(
      "datc serve: drained: %llu session(s) finished, %llu aborted, %llu "
      "quarantined; %llu chunk(s), %.1f MiB rx; chunk->envelope p50 %.0f "
      "us, p99 %.0f us\n",
      static_cast<unsigned long long>(st.sessions_finished),
      static_cast<unsigned long long>(st.sessions_aborted),
      static_cast<unsigned long long>(st.quarantined_sessions),
      static_cast<unsigned long long>(st.chunks_rx),
      static_cast<Real>(st.bytes_rx) / (1024.0 * 1024.0),
      st.chunk_to_envelope.p50_us, st.chunk_to_envelope.p99_us);
  return 0;
}

int cmd_loadgen(const Args& a) {
  const auto spec = spec_from_args(a, kStreamFlags, "loadgen");
  const Real port_f = arg_num(a, "port", 0.0);
  dsp::require(port_f >= 1.0 && port_f <= 65535.0,
               "loadgen: --port is required (1..65535)");
  net::LoadGenConfig cfg;
  cfg.port = static_cast<std::uint16_t>(port_f);
  cfg.host = arg_str(a, "host", "127.0.0.1");
  cfg.sessions = static_cast<std::size_t>(arg_num(a, "sessions", 8.0));
  cfg.concurrency =
      static_cast<std::size_t>(arg_num(a, "concurrency", 64.0));
  cfg.chunk_samples = spec.session.chunk_samples;
  cfg.tenant = arg_str(a, "tenant", "loadgen");
  const bool shared = spec.aer.topology == config::LinkTopology::kSharedAer;
  cfg.channel_count = shared ? spec.source.channels : 1;
  cfg.rate_chunks_per_s = arg_num(a, "rate", 0.0);
  const Real realtime = arg_num(a, "realtime", 0.0);
  if (realtime > 0.0) {
    cfg.rate_chunks_per_s = realtime * spec.source.sample_rate_hz /
                            static_cast<Real>(cfg.chunk_samples);
  }
  // A built-in preset resolves on the server too, so name it in HELLO;
  // scenario FILES shape only the local signal (the server cannot be
  // asked to read files over the wire).
  const auto scen_ref = arg_str(a, "scenario", "");
  const auto& presets = config::preset_names();
  if (std::find(presets.begin(), presets.end(), scen_ref) !=
      presets.end()) {
    cfg.scenario = scen_ref;
  }

  std::vector<Real> signal;
  const auto in = arg_str(a, "in", "");
  if (!in.empty()) {
    dsp::require(!shared,
                 "loadgen: --in replays a single-channel CSV; shared "
                 "topologies use the synthetic source");
    const auto sig = read_signal_csv(in);
    signal.reserve(sig.size());
    for (std::size_t i = 0; i < sig.size(); ++i) signal.push_back(sig[i]);
  } else {
    const config::PipelineFactory factory(spec);
    if (shared) {
      // Channel-major lockstep rounds of chunk_samples, the layout
      // SharedAerStreamingSession consumes.
      const auto recs = factory.make_recordings();
      const std::size_t per_ch = recs[0].emg_v.size();
      signal.reserve(per_ch * recs.size());
      for (std::size_t at = 0; at < per_ch; at += cfg.chunk_samples) {
        const std::size_t n = std::min(cfg.chunk_samples, per_ch - at);
        for (const auto& rec : recs) {
          for (std::size_t i = 0; i < n; ++i) {
            signal.push_back(rec.emg_v[at + i]);
          }
        }
      }
    } else {
      const auto rec = factory.make_recording(spec.session.channel);
      signal.reserve(rec.emg_v.size());
      for (std::size_t i = 0; i < rec.emg_v.size(); ++i) {
        signal.push_back(rec.emg_v[i]);
      }
    }
  }

  const auto report = net::run_loadgen(cfg, signal);
  const Real per_ch_samples =
      static_cast<Real>(report.samples_sent) /
      static_cast<Real>(std::max<std::size_t>(1, cfg.channel_count));
  const Real signal_s = per_ch_samples / spec.source.sample_rate_hz;
  std::printf(
      "loadgen: %zu/%zu session(s) ok (%zu failed), %llu chunk(s), %llu "
      "sample(s), %llu envelope sample(s) acked in %.2f s (%.1fx "
      "realtime aggregate)\n",
      report.sessions_ok, cfg.sessions, report.sessions_failed,
      static_cast<unsigned long long>(report.chunks_sent),
      static_cast<unsigned long long>(report.samples_sent),
      static_cast<unsigned long long>(report.envelope_samples),
      report.wall_s,
      report.wall_s > 0.0 ? signal_s / report.wall_s : 0.0);
  return report.sessions_failed == 0 ? 0 : 1;
}

int cmd_query(const Args& a) {
  const auto dir = arg_str(a, "dir", "");
  dsp::require(!dir.empty(), "query: --dir is required");
  // Validate the cheap flags before any I/O: a --format typo must not
  // cost a full CRC pass over a large log first.
  const auto format = arg_str(a, "format", "csv");
  dsp::require(format == "csv" || format == "binary",
               "query: unknown --format '" + format + "' (csv|binary)");
  const auto out = arg_str(a, "out", "-");
  dsp::require(format != "binary" || out != "-",
               "query: --format binary needs --out <path>");
  const Real t_lo = arg_num(a, "from", 0.0);
  const Real t_hi = arg_num(a, "to",
                            std::numeric_limits<Real>::infinity());
  dsp::require(t_lo < t_hi, "query: need --from < --to");
  std::optional<std::uint16_t> channel;
  if (a.count("channel") != 0) {
    const Real channel_f = arg_num(a, "channel", 0.0);
    dsp::require(channel_f >= 0.0 && channel_f <= 65535.0,
                 "query: --channel must lie in [0, 65535]");
    channel = static_cast<std::uint16_t>(channel_f);
  }
  const store::LogReader log(dir);

  if (arg_num(a, "verify", 0.0) != 0.0) {
    dsp::require(log.verify(), "query: segment CRC verification FAILED");
  }
  const auto events = log.query(t_lo, t_hi, channel);

  if (format == "csv") {
    if (out == "-") {
      core::write_events_csv(std::cout, events);
    } else if (!core::write_events_csv(out, events)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
  } else {
    if (!core::write_events_binary(out, events)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
  }
  // Summary on stderr so stdout stays a clean event stream.
  const std::string chan_note =
      channel ? " channel " + std::to_string(*channel) : "";
  std::fprintf(stderr,
               "%zu event(s) in [%g, %g)%s from %zu segment(s), %llu "
               "events total\n",
               events.size(), t_lo, t_hi, chan_note.c_str(),
               log.segments().size(),
               static_cast<unsigned long long>(log.total_events()));
  return 0;
}

int cmd_replay(const Args& a) {
  const auto dir = arg_str(a, "dir", "");
  dsp::require(!dir.empty(), "replay: --dir is required");
  const auto result = store::replay_envelope(dir);
  const auto out_path = arg_str(a, "out", "envelope.csv");
  {
    std::ofstream f(out_path);
    if (!f.good()) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    f << "time_s,arv_v\n";
    f.precision(10);
    for (std::size_t i = 0; i < result.arv.size(); ++i) {
      f << static_cast<Real>(i) / result.manifest.analog_fs_hz << ','
        << result.arv[i] << '\n';
    }
  }
  std::printf(
      "replayed %zu stored event(s) over %.1f s -> %zu envelope samples "
      "-> %s\n",
      result.events, result.duration_s, result.arv.size(),
      out_path.c_str());
  if (arg_num(a, "verify", 0.0) != 0.0) {
    dsp::require(store::has_envelope_f64(dir),
                 "replay: no envelope.f64 sidecar to verify against");
    const auto parity = store::check_replay_parity(dir);
    std::printf("replay vs recorded live envelope: %s (%zu samples, max "
                "diff %.3g)\n",
                parity.equal ? "bit-identical" : "DIFFER", parity.samples,
                parity.max_abs_diff);
    if (!parity.equal) return 1;
  }
  return 0;
}

int cmd_sweep(const Args& a) {
  Args with_default = a;
  with_default.emplace("scenario", "paper-baseline");
  config::ScenarioGridConfig cfg;
  cfg.base = spec_from_args(with_default, {}, "sweep");
  cfg.axes = config::parse_axes(arg_str(a, "axes", ""));
  const Real jobs_f = arg_num(a, "jobs", 0.0);
  dsp::require(jobs_f >= 0.0 && jobs_f <= 1024.0,
               "sweep: --jobs must lie in [0, 1024] (0 = hardware)");
  cfg.jobs = static_cast<std::size_t>(jobs_f);

  std::size_t points = 1;
  for (const auto& axis : cfg.axes) points *= axis.values.size();
  std::printf("scenario grid: base '%s', %zu axis(es), %zu point(s)\n",
              cfg.base.name.c_str(), cfg.axes.size(), points);
  const auto result = config::run_scenario_grid(cfg);
  std::printf("%s", config::scenario_grid_table(result).c_str());

  const auto out = arg_str(a, "out", "");
  if (!out.empty()) {
    if (!config::write_scenario_grid_json(out, result)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %zu grid point(s) to %s\n", result.points.size(),
                out.c_str());
  }
  return 0;
}

/// Matches `name` against a shell-style pattern with `*` (any run) and
/// `?` (any one char). Iterative two-cursor match, no recursion.
bool glob_match(const std::string& pat, const std::string& name) {
  std::size_t p = 0, n = 0;
  std::size_t star = std::string::npos, star_n = 0;
  while (n < name.size()) {
    if (p < pat.size() && (pat[p] == '?' || pat[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pat.size() && pat[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pat.size() && pat[p] == '*') ++p;
  return p == pat.size();
}

/// Expands a literal glob in the pattern's own directory (the wildcard
/// may only appear in the filename component). Returns sorted matches.
std::vector<std::string> expand_glob(const std::string& pattern) {
  const std::filesystem::path pat(pattern);
  const auto dir = pat.parent_path();
  const std::string leaf = pat.filename().string();
  std::vector<std::string> out;
  std::error_code ec;
  for (std::filesystem::directory_iterator
           it(dir.empty() ? std::filesystem::path(".") : dir, ec),
       end;
       it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    if (!glob_match(leaf, it->path().filename().string())) continue;
    out.push_back(dir.empty() ? it->path().filename().string()
                              : (dir / it->path().filename()).string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// `datc scenario <action> ...` takes positional arguments, so it parses
// argv itself instead of going through the --flag/value Args map.
int cmd_scenario_raw(int argc, char** argv) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: datc scenario list | keys | print REF |\n"
                 "       validate FILE... | emit NAME|all [--out FILE] "
                 "[--dir DIR]\n");
    return 2;
  };
  if (argc < 3) return usage();
  const std::string action = argv[2];

  if (action == "list") {
    for (const auto& name : config::preset_names()) {
      std::printf("  %-16s %s\n", name.c_str(),
                  config::preset_summary(name).c_str());
    }
    return 0;
  }
  if (action == "keys") {
    const config::ScenarioSpec defaults;
    std::printf("%-30s %-16s %s\n", "key", "default", "description");
    for (const auto& k : config::scenario_keys()) {
      std::printf("%-30s %-16s %s\n", k.key.c_str(),
                  k.get(defaults).c_str(), k.doc.c_str());
    }
    return 0;
  }
  if (action == "print") {
    if (argc != 4) return usage();
    const auto spec = config::load_scenario(argv[3]);
    std::fputs(config::serialize_scenario(spec).c_str(), stdout);
    return 0;
  }
  if (action == "validate") {
    if (argc < 4) return usage();
    // Expand literal glob patterns ourselves: a quoted `datc scenario
    // validate 'scenarios/*.datc'` (or a pattern the shell found no match
    // for and passed through verbatim) must behave like the expanded
    // list, not like one file named `*`.
    std::vector<std::string> files;
    std::size_t failed = 0;
    for (int i = 3; i < argc; ++i) {
      const std::string pat = argv[i];
      if (pat.find_first_of("*?") == std::string::npos) {
        files.push_back(pat);
        continue;
      }
      const auto matches = expand_glob(pat);
      if (matches.empty()) {
        std::printf("FAIL  %s\nno files match pattern\n", pat.c_str());
        ++failed;
      }
      files.insert(files.end(), matches.begin(), matches.end());
    }
    // Validate EVERY file before exiting: a CI run must show the full
    // damage report, not the first parse error.
    std::size_t ok = 0;
    for (const auto& file : files) {
      try {
        const auto spec = config::parse_scenario_file(file);
        std::printf("OK    %s (%s)\n", file.c_str(), spec.name.c_str());
        ++ok;
      } catch (const std::exception& e) {
        std::printf("FAIL  %s\n%s\n", file.c_str(), e.what());
        ++failed;
      } catch (...) {
        std::printf("FAIL  %s\nunknown error\n", file.c_str());
        ++failed;
      }
    }
    std::printf("%zu file(s): %zu ok, %zu failed\n", ok + failed, ok,
                failed);
    return failed == 0 ? 0 : 1;
  }
  if (action == "emit") {
    if (argc < 4) return usage();
    const std::string name = argv[3];
    const auto args = parse_args(argc, argv, 4);
    const auto write_one = [](const std::string& preset,
                              const std::string& path) {
      std::ofstream f(path);
      dsp::require(f.good(), "scenario emit: cannot write " + path);
      f << config::serialize_scenario(config::make_preset(preset));
      dsp::require(f.good(), "scenario emit: write failed for " + path);
      std::printf("wrote %s\n", path.c_str());
    };
    if (name == "all") {
      const auto dir = arg_str(args, "dir", "scenarios");
      std::filesystem::create_directories(dir);
      for (const auto& preset : config::preset_names()) {
        write_one(preset, (std::filesystem::path(dir) / (preset + ".datc"))
                              .string());
      }
      return 0;
    }
    const auto out = arg_str(args, "out", "");
    if (out.empty()) {
      std::fputs(
          config::serialize_scenario(config::make_preset(name)).c_str(),
          stdout);
    } else {
      write_one(name, out);
    }
    return 0;
  }
  return usage();
}

int cmd_table1() {
  std::vector<bool> stim(8000);
  for (std::size_t i = 0; i < stim.size(); ++i) stim[i] = (i / 7) % 4 == 0;
  const auto rep = synth::synthesize_dtc(core::DtcConfig{}, stim);
  std::printf("%s", synth::format_table1(rep).c_str());
  return 0;
}

// -------------------------------------------------- subcommand dispatch

struct Subcommand {
  const char* name;
  const char* summary;  ///< one-liner for the usage listing
  const char* help;     ///< full `datc <sub> --help` reference
  int (*run)(const Args&);
  /// Commands with positional arguments (scenario) parse argv directly.
  int (*run_raw)(int argc, char** argv){nullptr};
};

int cmd_table1_adapter(const Args&) { return cmd_table1(); }

constexpr Subcommand kSubcommands[] = {
    {"generate", "synthesise a grip-protocol sEMG recording (CSV)",
     "usage: datc generate [--seed N] [--gain G] [--duration S]\n"
     "                     [--out sig.csv]\n"
     "  --seed N       recording seed (default 1)\n"
     "  --gain G       sEMG amplitude in volts (default 0.35)\n"
     "  --duration S   record length in seconds (default 20)\n"
     "  --out PATH     output CSV `time_s,emg_v` (default signal.csv)\n",
     cmd_generate},
    {"encode", "run a D-ATC/ATC transmitter over a recording",
     "usage: datc encode [--in sig.csv] [--scheme datc|atc] [--vth V]\n"
     "                   [--out events.csv]\n"
     "  --in PATH      input CSV `time_s,emg_v` (default signal.csv)\n"
     "  --scheme S     datc (self-adjusting threshold) or atc (fixed)\n"
     "  --vth V        atc threshold in volts (default 0.3)\n"
     "  --out PATH     output events CSV (default events.csv)\n",
     cmd_encode},
    {"reconstruct", "rebuild the force envelope from an event stream",
     "usage: datc reconstruct [--events events.csv] [--duration S]\n"
     "                        [--out envelope.csv] [--truth sig.csv]\n"
     "  --events PATH  input events CSV (default events.csv)\n"
     "  --duration S   record length in seconds (default 20)\n"
     "  --out PATH     output envelope CSV (default envelope.csv)\n"
     "  --truth PATH   ground-truth signal; prints correlation %\n",
     cmd_reconstruct},
    {"pipeline", "multi-channel engine: encode -> UWB link -> reconstruct",
     "usage: datc pipeline [--scenario FILE|PRESET] [--set \"k=v; k=v\"]\n"
     "                     [--channels M] [--jobs N] [--duration S]\n"
     "                     [--seed K] [--distance D] [--link private|shared]\n"
     "                     [--spacing-us U] [--gain-lo G] [--gain-hi G]\n"
     "  --scenario S   scenario file or built-in preset; explicit flags\n"
     "                 and --set overrides apply on top of it\n"
     "  --set KV       free-form key overrides, e.g. \"erasure_prob=0.1\"\n"
     "  --channels M   number of EMG channels (default 16)\n"
     "  --jobs N       worker threads, 0 = hardware (default 0)\n"
     "  --link MODE    private radios, or `shared` for ONE arbitrated\n"
     "                 AER radio every channel contends for\n"
     "  --distance D   TX-RX distance in metres (default 0.5)\n"
     "  --spacing-us U minimum AER on-air spacing (shared mode)\n",
     cmd_pipeline},
    {"stream", "run the full chain incrementally on sample chunks",
     "usage: datc stream [--in sig.csv|-] [--scenario FILE|PRESET]\n"
     "                   [--set \"k=v; k=v\"] [--chunk N] [--seed K]\n"
     "                   [--distance D] [--channel C] [--out envelope.csv]\n"
     "                   [--verify 1]\n"
     "  --in PATH      CSV signal, `-` reads stdin (default -)\n"
     "  --scenario S   scenario file or preset for the chain parameters\n"
     "                 (the CSV's own sample rate always wins)\n"
     "  --chunk N      samples per chunk (default 256)\n"
     "  --verify 1     re-run the batch pipeline and require the chunked\n"
     "                 output to be bit-identical\n"
     "  The envelope is written as it is emitted (fixed window/2 latency).\n",
     cmd_stream},
    {"record", "stream a signal AND persist decoded events to a store",
     "usage: datc record --dir SESSION_DIR [--in sig.csv|-] [--chunk N]\n"
     "                   [--scenario FILE|PRESET] [--set \"k=v; k=v\"]\n"
     "                   [--seed K] [--distance D] [--channel C]\n"
     "                   [--segment-events N] [--segment-span S]\n"
     "  Runs the streaming chain like `stream`, teeing every decoded\n"
     "  event into an append-only segmented log under SESSION_DIR,\n"
     "  which must be new or empty — one directory per session\n"
     "  (bounded write queue: storage never blocks decoding). Also\n"
     "  writes manifest.txt (replay parameters) and envelope.f64 (the\n"
     "  live ARV envelope, for replay parity checks).\n"
     "  --segment-events N  rotate segments after N events (default 65536)\n"
     "  --segment-span S    rotate segments after S seconds of events\n",
     cmd_record},
    {"query", "time-range/channel queries over a recorded event store",
     "usage: datc query --dir SESSION_DIR [--from T] [--to T]\n"
     "                  [--channel C] [--format csv|binary] [--out -|PATH]\n"
     "                  [--verify 1]\n"
     "  Returns every stored event with time in [--from, --to) — the\n"
     "  half-open window the rate estimator uses — optionally restricted\n"
     "  to one AER channel. O(log n): binary search over segment time\n"
     "  bounds, then over each segment's fixed-width records.\n"
     "  --format csv     `time_s,vth_code,channel` (stdout with --out -)\n"
     "  --format binary  DATCEVT2 file with CRC trailer (needs --out)\n"
     "  --verify 1       recompute every segment CRC first\n",
     cmd_query},
    {"replay", "re-simulate reconstruction from a recorded store",
     "usage: datc replay --dir SESSION_DIR [--out envelope.csv]\n"
     "                   [--verify 1]\n"
     "  Rebuilds the receiver (calibration + reconstructor) from\n"
     "  manifest.txt, feeds the stored event log back through it and\n"
     "  writes the ARV envelope. --verify 1 additionally requires the\n"
     "  replayed envelope to be bit-identical to the live run's\n"
     "  envelope.f64 sidecar.\n",
     cmd_replay},
    {"serve", "fleet-scale ingest daemon over a framed TCP protocol",
     "usage: datc serve [--scenario FILE|PRESET] [--set \"k=v; k=v\"]\n"
     "                  [--port P] [--shards N] [--max-sessions N]\n"
     "                  [--inflight N] [--jobs N] [--out-dir DIR]\n"
     "  Accepts length-prefixed HELLO/DATA/END sessions on 127.0.0.1 and\n"
     "  runs each through the factory-built streaming chain on N sharded\n"
     "  session managers — envelopes are bit-identical to a direct\n"
     "  `datc stream` of the same chunks. Per-connection backpressure:\n"
     "  past `--inflight` unprocessed chunks the socket stops being read\n"
     "  (TCP pushback). SIGINT/SIGTERM drains gracefully: accepted\n"
     "  sessions finish and recorders flush before exit.\n"
     "  --port P        TCP port; 0 = ephemeral, printed on startup\n"
     "  --shards N      SessionManager shards (serve.shards)\n"
     "  --max-sessions N concurrent session cap (serve.max_sessions)\n"
     "  --inflight N    inflight-chunk bound (serve.inflight)\n"
     "  --out-dir DIR   persist DIR/<tenant>/session-<id>/ (event log +\n"
     "                  manifest.txt + envelope.f64); default ingest-only\n",
     cmd_serve},
    {"loadgen", "loopback load generator for a running `datc serve`",
     "usage: datc loadgen --port P [--sessions N] [--concurrency N]\n"
     "                    [--scenario PRESET|FILE] [--set \"k=v; k=v\"]\n"
     "                    [--in sig.csv] [--rate R] [--realtime X]\n"
     "                    [--tenant NAME] [--host H] [--chunk N]\n"
     "  Replays a synthetic (scenario-built) or CSV signal into a running\n"
     "  server from many worker threads and reports completed sessions,\n"
     "  failures and aggregate throughput. A built-in PRESET passed via\n"
     "  --scenario is also named in HELLO, so the server runs the same\n"
     "  pipeline it was generated with.\n"
     "  --sessions N    sessions to run to completion (default 8)\n"
     "  --concurrency N worker threads = open sockets (default 64)\n"
     "  --rate R        chunks per second per session (default unpaced)\n"
     "  --realtime X    pace at X times realtime (overrides --rate)\n",
     cmd_loadgen},
    {"scenario", "inspect, validate and emit declarative scenarios",
     "usage: datc scenario list              built-in presets\n"
     "       datc scenario keys              full key reference + defaults\n"
     "       datc scenario print REF         serialize a preset or file\n"
     "       datc scenario validate FILE...  parse + validate (CI gate)\n"
     "       datc scenario emit NAME|all [--out FILE] [--dir DIR]\n"
     "  A scenario is `key = value` text ('#' comments). Every pipeline\n"
     "  subcommand accepts --scenario FILE|PRESET; `datc sweep` expands\n"
     "  axis overrides over one.\n",
     nullptr, cmd_scenario_raw},
    {"sweep", "expand scenario axis overrides into a comparable grid",
     "usage: datc sweep [--scenario FILE|PRESET] [--set \"k=v; k=v\"]\n"
     "                  [--axes \"channels=1,8,64; distance=0.2,1\"]\n"
     "                  [--jobs N] [--out FILE.json]\n"
     "  Runs the cross-product of the axis values over the base scenario\n"
     "  (default preset paper-baseline) through the batch engine, one\n"
     "  grid point per pool job, and prints one comparable report row\n"
     "  per point (BENCH_scenarios.json schema with --out).\n",
     cmd_sweep},
    {"table1", "print the DTC synthesis report",
     "usage: datc table1\n"
     "  Prints the standard-cell synthesis summary (the paper's Table 1).\n",
     cmd_table1_adapter},
};

void usage() {
  std::fprintf(stderr, "usage: datc <subcommand> [--flag value ...]\n"
                       "       datc <subcommand> --help\n\n");
  for (const auto& sub : kSubcommands) {
    std::fprintf(stderr, "  %-12s %s\n", sub.name, sub.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const Subcommand* sub = nullptr;
  for (const auto& s : kSubcommands) {
    if (cmd == s.name) sub = &s;
  }
  if (sub == nullptr) {
    usage();
    return 2;
  }
  // --help anywhere on the line prints help; running a command the user
  // was still asking about would have side effects.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::fprintf(stderr, "%s", sub->help);
      return 0;
    }
  }
  try {
    if (sub->run_raw != nullptr) return sub->run_raw(argc, argv);
    const auto args = parse_args(argc, argv, 2);
    return sub->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "datc %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
