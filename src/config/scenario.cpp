#include "config/scenario.hpp"
#include "core/frame.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace datc::config {

namespace {

// ------------------------------------------------------------- primitives

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Shortest decimal form that parses back to exactly `v` (clean presets,
/// exact round-trip).
std::string fmt_real(Real v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  if (std::strtod(buf, nullptr) == v || std::isnan(v)) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Real parse_real(const std::string& s) {
  std::size_t pos = 0;
  Real v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw ScenarioError("not a number: '" + s + "'");
  }
  if (pos != s.size()) {
    throw ScenarioError("trailing characters after number: '" + s + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& s) {
  if (s.empty() || s[0] == '-') {
    throw ScenarioError("expected a non-negative integer, got '" + s + "'");
  }
  std::size_t pos = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    throw ScenarioError("not an integer: '" + s + "'");
  }
  if (pos != s.size()) {
    throw ScenarioError("trailing characters after integer: '" + s + "'");
  }
  return v;
}

std::uint64_t parse_uint_max(const std::string& s, std::uint64_t max) {
  const auto v = parse_u64(s);
  if (v > max) {
    throw ScenarioError("value " + s + " exceeds the maximum " +
                        std::to_string(max));
  }
  return v;
}

const char* model_name(SourceModel m) {
  switch (m) {
    case SourceModel::kMotorUnitPool: return "pool";
    case SourceModel::kFilteredNoise: return "noise";
    case SourceModel::kFatigued: return "fatigued";
  }
  return "pool";
}

SourceModel parse_model(const std::string& s) {
  if (s == "pool") return SourceModel::kMotorUnitPool;
  if (s == "noise") return SourceModel::kFilteredNoise;
  if (s == "fatigued") return SourceModel::kFatigued;
  throw ScenarioError("unknown model '" + s + "' (pool|noise|fatigued)");
}

const char* topology_name(LinkTopology t) {
  return t == LinkTopology::kSharedAer ? "shared" : "private";
}

LinkTopology parse_topology(const std::string& s) {
  if (s == "private") return LinkTopology::kPrivate;
  if (s == "shared") return LinkTopology::kSharedAer;
  throw ScenarioError("unknown topology '" + s + "' (private|shared)");
}

core::FrameSize parse_frame(const std::string& s) {
  const auto v = parse_u64(s);
  for (const auto f : core::kAllFrameSizes) {
    if (v == static_cast<std::uint64_t>(f)) return f;
  }
  throw ScenarioError("frame must be one of 100|200|400|800, got '" + s +
                      "'");
}

std::string name_value(const std::string& s) {
  if (s.empty()) throw ScenarioError("scenario name must not be empty");
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) {
      throw ScenarioError(
          "scenario name may only contain [A-Za-z0-9._-], got '" + s + "'");
    }
  }
  return s;
}

// ------------------------------------------------------------ key registry

#define DATC_REAL_KEY(key_str, field, doc_str)                          \
  ScenarioKey {                                                         \
    key_str, doc_str,                                                   \
        [](const ScenarioSpec& s) { return fmt_real(s.field); },        \
        [](ScenarioSpec& s, const std::string& v) {                     \
          s.field = parse_real(v);                                      \
        }                                                               \
  }

#define DATC_UINT_KEY(key_str, field, type, max, doc_str)               \
  ScenarioKey {                                                         \
    key_str, doc_str,                                                   \
        [](const ScenarioSpec& s) {                                     \
          return std::to_string(s.field);                               \
        },                                                              \
        [](ScenarioSpec& s, const std::string& v) {                     \
          s.field = static_cast<type>(parse_uint_max(v, max));          \
        }                                                               \
  }

std::vector<ScenarioKey> build_registry() {
  constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
  std::vector<ScenarioKey> keys;

  keys.push_back(ScenarioKey{
      "scenario", "scenario name ([A-Za-z0-9._-]; labels reports)",
      [](const ScenarioSpec& s) { return s.name; },
      [](ScenarioSpec& s, const std::string& v) { s.name = name_value(v); }});

  // ---- source
  keys.push_back(DATC_UINT_KEY("source.channels", source.channels,
                               std::size_t, 1u << 20,
                               "number of sEMG channels [1, 4096]"));
  keys.push_back(DATC_REAL_KEY("source.duration_s", source.duration_s,
                               "record length per channel, seconds"));
  keys.push_back(DATC_REAL_KEY(
      "source.sample_rate_hz", source.sample_rate_hz,
      "analog sample rate; also the reconstruction output grid"));
  keys.push_back(DATC_UINT_KEY("source.seed", source.seed, std::uint64_t,
                               kU64Max,
                               "synthesis seed; channel i uses seed + i"));
  keys.push_back(DATC_REAL_KEY(
      "source.gain_lo_v", source.gain_lo_v,
      "full-MVC ARV of the weakest channel, volts"));
  keys.push_back(DATC_REAL_KEY(
      "source.gain_hi_v", source.gain_hi_v,
      "full-MVC ARV of the strongest channel (log spread between)"));
  keys.push_back(DATC_REAL_KEY("source.start_mvc", source.start_mvc,
                               "grip protocol's starting effort (0, 1]"));
  keys.push_back(ScenarioKey{
      "source.model", "synthesis model: pool | noise | fatigued",
      [](const ScenarioSpec& s) {
        return std::string(model_name(s.source.model));
      },
      [](ScenarioSpec& s, const std::string& v) {
        s.source.model = parse_model(v);
      }});
  keys.push_back(DATC_REAL_KEY("source.fatigue_tau_s", source.fatigue_tau_s,
                               "fatigue accumulation time constant, s"));
  keys.push_back(DATC_REAL_KEY(
      "source.fatigue_sigma_stretch", source.fatigue_sigma_stretch,
      "MUAP stretch factor at full fatigue"));
  keys.push_back(DATC_REAL_KEY(
      "source.fatigue_amplitude_gain", source.fatigue_amplitude_gain,
      "amplitude change at full fatigue"));
  keys.push_back(DATC_UINT_KEY(
      "source.artifact_seed", source.artifact_seed, std::uint64_t, kU64Max,
      "artifact injection seed; channel i uses seed ^ i"));
  keys.push_back(DATC_REAL_KEY("source.powerline_amplitude_v",
                               source.powerline_amplitude_v,
                               "50 Hz interference amplitude, volts"));
  keys.push_back(DATC_REAL_KEY("source.powerline_freq_hz",
                               source.powerline_freq_hz,
                               "powerline interference frequency"));
  keys.push_back(DATC_REAL_KEY("source.baseline_wander_amp_v",
                               source.baseline_wander_amp_v,
                               "slow baseline drift amplitude, volts"));
  keys.push_back(DATC_REAL_KEY("source.baseline_wander_hz",
                               source.baseline_wander_hz,
                               "baseline drift frequency"));
  keys.push_back(DATC_REAL_KEY("source.motion_burst_rate_hz",
                               source.motion_burst_rate_hz,
                               "expected motion-artifact bursts per second"));
  keys.push_back(DATC_REAL_KEY("source.motion_burst_amp_v",
                               source.motion_burst_amp_v,
                               "motion burst peak amplitude, volts"));
  keys.push_back(DATC_REAL_KEY("source.spike_rate_hz", source.spike_rate_hz,
                               "random impulse artifacts per second"));
  keys.push_back(DATC_REAL_KEY("source.spike_amp_v", source.spike_amp_v,
                               "impulse artifact amplitude, volts"));

  // ---- encoder
  keys.push_back(DATC_REAL_KEY(
      "encoder.window_s", encoder.window_s,
      "RX event window and ground-truth ARV window, seconds"));
  keys.push_back(DATC_REAL_KEY("encoder.clock_hz", encoder.clock_hz,
                               "DTC clock (2 kHz in the paper)"));
  keys.push_back(DATC_UINT_KEY("encoder.dac_bits", encoder.dac_bits,
                               unsigned, 32,
                               "threshold DAC width = code bits per packet"));
  keys.push_back(DATC_REAL_KEY("encoder.dac_vref", encoder.dac_vref,
                               "DAC reference voltage (Eqn. 3)"));
  keys.push_back(ScenarioKey{
      "encoder.frame", "DTC frame length in clock cycles: 100|200|400|800",
      [](const ScenarioSpec& s) {
        return std::to_string(static_cast<unsigned>(s.encoder.frame));
      },
      [](ScenarioSpec& s, const std::string& v) {
        s.encoder.frame = parse_frame(v);
      }});
  keys.push_back(DATC_REAL_KEY("encoder.band_lo_hz", encoder.band_lo_hz,
                               "assumed sEMG band low edge at the RX"));
  keys.push_back(DATC_REAL_KEY("encoder.band_hi_hz", encoder.band_hi_hz,
                               "assumed sEMG band high edge at the RX"));

  // ---- link
  keys.push_back(DATC_UINT_KEY(
      "link.seed", link.seed, std::uint64_t, kU64Max,
      "radio seed; private channel i draws from seed ^ i"));
  keys.push_back(DATC_REAL_KEY("link.distance_m", link.distance_m,
                               "TX-RX distance, metres"));
  keys.push_back(DATC_REAL_KEY("link.ref_loss_db", link.ref_loss_db,
                               "path loss at the 0.1 m reference distance"));
  keys.push_back(DATC_REAL_KEY("link.path_loss_exponent",
                               link.path_loss_exponent,
                               "log-distance path loss exponent"));
  keys.push_back(DATC_REAL_KEY("link.erasure_prob", link.erasure_prob,
                               "i.i.d. pulse loss probability [0, 1)"));
  keys.push_back(DATC_REAL_KEY("link.jitter_rms_s", link.jitter_rms_s,
                               "received-time jitter RMS, seconds"));
  keys.push_back(DATC_REAL_KEY("link.pulse_amplitude_v",
                               link.pulse_amplitude_v,
                               "pulse peak amplitude at the antenna, volts"));
  keys.push_back(DATC_REAL_KEY("link.symbol_period_s", link.symbol_period_s,
                               "bit-slot spacing inside a packet, seconds"));
  keys.push_back(DATC_REAL_KEY(
      "link.false_alarm_prob", link.false_alarm_prob,
      "energy detector per-slot false alarm probability (0, 0.5)"));

  // ---- aer
  keys.push_back(ScenarioKey{
      "aer.topology", "link topology: private | shared (one AER radio)",
      [](const ScenarioSpec& s) {
        return std::string(topology_name(s.aer.topology));
      },
      [](ScenarioSpec& s, const std::string& v) {
        s.aer.topology = parse_topology(v);
      }});
  keys.push_back(DATC_UINT_KEY(
      "aer.address_bits", aer.address_bits, unsigned, 32,
      "AER address width; 0 = smallest covering the channel count"));
  keys.push_back(DATC_REAL_KEY("aer.min_spacing_s", aer.min_spacing_s,
                               "arbiter's minimum on-air packet spacing"));
  keys.push_back(DATC_REAL_KEY(
      "aer.max_queue_delay_s", aer.max_queue_delay_s,
      "arbiter latency budget; later events are dropped"));

  // ---- session
  keys.push_back(DATC_UINT_KEY("session.chunk_samples",
                               session.chunk_samples, std::size_t,
                               std::uint64_t{1} << 32,
                               "streaming chunk size per channel [1, 1e6]"));
  keys.push_back(DATC_UINT_KEY("session.jobs", session.jobs, std::size_t,
                               1u << 16,
                               "worker threads [0, 1024]; 0 = hardware"));
  keys.push_back(DATC_UINT_KEY(
      "session.channel", session.channel, std::uint32_t, 0xFFFFFFFFull,
      "channel id (AER address) of a single streamed session"));

  // ---- serve (ingest daemon; shapes the server, never the pipeline)
  keys.push_back(DATC_UINT_KEY(
      "serve.port", serve.port, std::uint16_t, 65535,
      "ingest daemon TCP port; 0 = ephemeral (loopback testing)"));
  keys.push_back(DATC_UINT_KEY(
      "serve.shards", serve.shards, std::size_t, 1u << 10,
      "SessionManager shards; sessions land by id hash [1, 256]"));
  keys.push_back(DATC_UINT_KEY(
      "serve.max_sessions", serve.max_sessions, std::size_t, 1u << 24,
      "concurrent session cap; later HELLOs get a typed reject"));
  keys.push_back(DATC_UINT_KEY(
      "serve.inflight", serve.max_inflight_chunks, std::size_t, 1u << 16,
      "per-connection inflight-chunk bound before TCP pushback [1, 1024]"));

  // ---- fault (all defaults off: bit-identical to the fault-free chain)
  keys.push_back(DATC_UINT_KEY(
      "fault.seed", fault.seed, std::uint64_t, kU64Max,
      "fault plan seed; drives every injected-fault decision stream"));
  keys.push_back(DATC_REAL_KEY(
      "fault.store_write_fail_prob", fault.store_write_fail_prob,
      "torn-write probability per store I/O write op [0, 1]"));
  keys.push_back(DATC_REAL_KEY(
      "fault.store_fsync_fail_prob", fault.store_fsync_fail_prob,
      "failure probability per store sync op [0, 1]"));
  keys.push_back(DATC_UINT_KEY(
      "fault.store_enospc_every_ops", fault.store_enospc_every_ops,
      std::uint64_t, kU64Max,
      "every Nth store op period ends in an ENOSPC window (0 = off)"));
  keys.push_back(DATC_UINT_KEY(
      "fault.store_enospc_window_ops", fault.store_enospc_window_ops,
      std::uint64_t, kU64Max,
      "failing ops at the end of each ENOSPC period"));
  keys.push_back(DATC_REAL_KEY(
      "fault.chunk_drop_prob", fault.chunk_drop_prob,
      "probability a session chunk is dropped before delivery [0, 1]"));
  keys.push_back(DATC_REAL_KEY(
      "fault.chunk_dup_prob", fault.chunk_dup_prob,
      "probability a session chunk is delivered twice [0, 1]"));
  keys.push_back(DATC_REAL_KEY(
      "fault.chunk_stall_prob", fault.chunk_stall_prob,
      "probability chunk delivery stalls (exercises the watchdog)"));
  keys.push_back(DATC_REAL_KEY("fault.chunk_stall_ms", fault.chunk_stall_ms,
                               "stall duration, wall-clock milliseconds"));
  keys.push_back(DATC_REAL_KEY(
      "fault.chunk_poison_prob", fault.chunk_poison_prob,
      "probability chunk delivery throws (exercises quarantine)"));
  keys.push_back(DATC_REAL_KEY(
      "fault.sensor_dropout_prob", fault.sensor_dropout_prob,
      "per-chunk probability of a lead-off burst (samples read 0 V)"));
  keys.push_back(DATC_REAL_KEY(
      "fault.sensor_saturate_prob", fault.sensor_saturate_prob,
      "per-chunk probability of a saturation burst (clips to the rail)"));
  keys.push_back(DATC_REAL_KEY("fault.sensor_rail_v", fault.sensor_rail_v,
                               "saturation rail voltage"));
  keys.push_back(DATC_REAL_KEY(
      "fault.health_starvation_s", fault.health_starvation_s,
      "decode-health: trip after this long without events (0 = off)"));
  keys.push_back(DATC_REAL_KEY(
      "fault.health_bad_rate", fault.health_bad_rate,
      "decode-health: trip when bad-decode fraction exceeds this (0 = "
      "off)"));
  keys.push_back(DATC_REAL_KEY(
      "fault.health_window_s", fault.health_window_s,
      "decode-health: sliding window for the bad-rate check, seconds"));

  return keys;
}

#undef DATC_REAL_KEY
#undef DATC_UINT_KEY

std::string last_component(const std::string& key) {
  const auto dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

}  // namespace

const std::vector<ScenarioKey>& scenario_keys() {
  static const std::vector<ScenarioKey> keys = build_registry();
  return keys;
}

const ScenarioKey& resolve_scenario_key(const std::string& key) {
  const auto& keys = scenario_keys();
  for (const auto& k : keys) {
    if (k.key == key) return k;
  }
  // Short form: the last path component, or a unique prefix of it.
  for (const int pass : {0, 1}) {
    std::vector<const ScenarioKey*> hits;
    for (const auto& k : keys) {
      const auto leaf = last_component(k.key);
      const bool match = pass == 0 ? leaf == key : leaf.rfind(key, 0) == 0;
      if (match) hits.push_back(&k);
    }
    if (hits.size() == 1) return *hits.front();
    if (hits.size() > 1) {
      std::string candidates;
      for (const auto* k : hits) {
        candidates += candidates.empty() ? k->key : ", " + k->key;
      }
      throw ScenarioError("ambiguous key '" + key + "' (matches " +
                          candidates + ")");
    }
  }
  throw ScenarioError("unknown key '" + key +
                      "' (see `datc scenario keys`)");
}

void set_scenario_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value) {
  const auto& k = resolve_scenario_key(key);
  try {
    k.set(spec, value);
  } catch (const std::exception& e) {
    throw ScenarioError(k.key + ": " + e.what());
  }
}

// --------------------------------------------------------------- ScenarioSpec

unsigned ScenarioSpec::resolved_address_bits() const {
  if (aer.address_bits != 0) return aer.address_bits;
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < source.channels) ++bits;
  return bits;
}

Real ScenarioSpec::gain_for_channel(std::size_t channel) const {
  if (source.channels <= 1) return source.gain_lo_v;
  return source.gain_lo_v *
         std::pow(source.gain_hi_v / source.gain_lo_v,
                  static_cast<Real>(channel) /
                      static_cast<Real>(source.channels - 1));
}

bool ScenarioSpec::has_artifacts() const {
  return source.powerline_amplitude_v > 0.0 ||
         source.baseline_wander_amp_v > 0.0 ||
         source.motion_burst_rate_hz > 0.0 || source.spike_rate_hz > 0.0;
}

bool ScenarioSpec::has_faults() const {
  return fault.store_write_fail_prob > 0.0 ||
         fault.store_fsync_fail_prob > 0.0 ||
         fault.store_enospc_every_ops > 0 || fault.chunk_drop_prob > 0.0 ||
         fault.chunk_dup_prob > 0.0 || fault.chunk_stall_prob > 0.0 ||
         fault.chunk_poison_prob > 0.0 || fault.sensor_dropout_prob > 0.0 ||
         fault.sensor_saturate_prob > 0.0;
}

std::vector<ScenarioSpec::Issue> ScenarioSpec::validate() const {
  std::vector<Issue> issues;
  const auto bad = [&issues](const char* key, const std::string& msg) {
    issues.push_back(Issue{key, msg});
  };
  const auto positive = [&bad](const char* key, Real v, const char* what) {
    if (!std::isfinite(v) || v <= 0.0) {
      bad(key, std::string(what) + " must be finite and > 0, got " +
                   fmt_real(v));
    }
  };
  const auto non_negative = [&bad](const char* key, Real v,
                                   const char* what) {
    if (!std::isfinite(v) || v < 0.0) {
      bad(key, std::string(what) + " must be finite and >= 0, got " +
                   fmt_real(v));
    }
  };

  if (source.channels < 1 || source.channels > 4096) {
    bad("source.channels", "channel count must lie in [1, 4096], got " +
                               std::to_string(source.channels));
  }
  positive("source.duration_s", source.duration_s, "duration");
  positive("source.sample_rate_hz", source.sample_rate_hz, "sample rate");
  positive("source.gain_lo_v", source.gain_lo_v, "gain_lo_v");
  if (!std::isfinite(source.gain_hi_v) ||
      source.gain_hi_v < source.gain_lo_v) {
    bad("source.gain_hi_v", "need gain_lo_v <= gain_hi_v, got " +
                                fmt_real(source.gain_hi_v));
  }
  if (!std::isfinite(source.start_mvc) || source.start_mvc <= 0.0 ||
      source.start_mvc > 1.0) {
    bad("source.start_mvc",
        "start effort must lie in (0, 1], got " + fmt_real(source.start_mvc));
  }
  positive("source.fatigue_tau_s", source.fatigue_tau_s, "fatigue tau");
  positive("source.fatigue_sigma_stretch", source.fatigue_sigma_stretch,
           "fatigue sigma stretch");
  positive("source.fatigue_amplitude_gain", source.fatigue_amplitude_gain,
           "fatigue amplitude gain");
  non_negative("source.powerline_amplitude_v", source.powerline_amplitude_v,
               "powerline amplitude");
  positive("source.powerline_freq_hz", source.powerline_freq_hz,
           "powerline frequency");
  non_negative("source.baseline_wander_amp_v", source.baseline_wander_amp_v,
               "baseline wander amplitude");
  positive("source.baseline_wander_hz", source.baseline_wander_hz,
           "baseline wander frequency");
  non_negative("source.motion_burst_rate_hz", source.motion_burst_rate_hz,
               "motion burst rate");
  non_negative("source.motion_burst_amp_v", source.motion_burst_amp_v,
               "motion burst amplitude");
  non_negative("source.spike_rate_hz", source.spike_rate_hz, "spike rate");
  non_negative("source.spike_amp_v", source.spike_amp_v, "spike amplitude");

  positive("encoder.window_s", encoder.window_s, "window");
  positive("encoder.clock_hz", encoder.clock_hz, "DTC clock");
  if (encoder.dac_bits < 1 || encoder.dac_bits > 8) {
    bad("encoder.dac_bits", "DAC width must lie in [1, 8] bits, got " +
                                std::to_string(encoder.dac_bits));
  }
  positive("encoder.dac_vref", encoder.dac_vref, "DAC reference");
  positive("encoder.band_lo_hz", encoder.band_lo_hz, "band low edge");
  if (!std::isfinite(encoder.band_hi_hz) ||
      encoder.band_hi_hz <= encoder.band_lo_hz) {
    bad("encoder.band_hi_hz", "need band_lo_hz < band_hi_hz, got " +
                                  fmt_real(encoder.band_hi_hz));
  } else if (std::isfinite(source.sample_rate_hz) &&
             encoder.band_hi_hz >= source.sample_rate_hz / 2.0) {
    bad("encoder.band_hi_hz",
        "band high edge must stay below the Nyquist rate " +
            fmt_real(source.sample_rate_hz / 2.0) + " Hz");
  }

  positive("link.distance_m", link.distance_m, "distance");
  non_negative("link.ref_loss_db", link.ref_loss_db, "reference loss");
  positive("link.path_loss_exponent", link.path_loss_exponent,
           "path loss exponent");
  if (!std::isfinite(link.erasure_prob) || link.erasure_prob < 0.0 ||
      link.erasure_prob >= 1.0) {
    bad("link.erasure_prob", "erasure probability must lie in [0, 1), got " +
                                 fmt_real(link.erasure_prob));
  }
  non_negative("link.jitter_rms_s", link.jitter_rms_s, "jitter");
  positive("link.pulse_amplitude_v", link.pulse_amplitude_v,
           "pulse amplitude");
  positive("link.symbol_period_s", link.symbol_period_s, "symbol period");
  if (!std::isfinite(link.false_alarm_prob) ||
      link.false_alarm_prob <= 0.0 || link.false_alarm_prob >= 0.5) {
    bad("link.false_alarm_prob",
        "false alarm probability must lie in (0, 0.5), got " +
            fmt_real(link.false_alarm_prob));
  }

  if (aer.topology == LinkTopology::kSharedAer) {
    const unsigned bits = resolved_address_bits();
    if (bits > 16) {
      bad("aer.address_bits",
          "address width " + std::to_string(bits) +
              " exceeds the 16-bit event address field");
    } else if ((std::size_t{1} << bits) < source.channels) {
      bad("aer.address_bits",
          std::to_string(aer.address_bits) + " address bit(s) cover only " +
              std::to_string(std::size_t{1} << bits) +
              " endpoints but the scenario has " +
              std::to_string(source.channels) + " channels");
    }
  } else if (aer.address_bits > 16) {
    bad("aer.address_bits", "address width must lie in [0, 16], got " +
                                std::to_string(aer.address_bits));
  }
  non_negative("aer.min_spacing_s", aer.min_spacing_s, "AER spacing");
  positive("aer.max_queue_delay_s", aer.max_queue_delay_s,
           "AER latency budget");

  if (session.chunk_samples < 1 || session.chunk_samples > 1000000) {
    bad("session.chunk_samples",
        "chunk size must lie in [1, 1e6] samples, got " +
            std::to_string(session.chunk_samples));
  }
  if (session.jobs > 1024) {
    bad("session.jobs", "jobs must lie in [0, 1024], got " +
                            std::to_string(session.jobs));
  }
  if (session.channel > 65535) {
    bad("session.channel",
        "session channel id must fit the 16-bit AER address field, got " +
            std::to_string(session.channel));
  }

  if (serve.shards < 1 || serve.shards > 256) {
    bad("serve.shards", "shard count must lie in [1, 256], got " +
                            std::to_string(serve.shards));
  }
  if (serve.max_sessions < 1) {
    bad("serve.max_sessions", "session cap must be >= 1");
  }
  if (serve.max_inflight_chunks < 1 || serve.max_inflight_chunks > 1024) {
    bad("serve.inflight",
        "inflight-chunk bound must lie in [1, 1024], got " +
            std::to_string(serve.max_inflight_chunks));
  }

  const auto prob = [&bad](const char* key, Real v, const char* what) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
      bad(key, std::string(what) + " must lie in [0, 1], got " +
                   fmt_real(v));
    }
  };
  prob("fault.store_write_fail_prob", fault.store_write_fail_prob,
       "store write-fail probability");
  prob("fault.store_fsync_fail_prob", fault.store_fsync_fail_prob,
       "store fsync-fail probability");
  if (fault.store_enospc_every_ops > 0 &&
      fault.store_enospc_window_ops < 1) {
    bad("fault.store_enospc_window_ops",
        "ENOSPC window must cover at least 1 op when the period is set");
  }
  prob("fault.chunk_drop_prob", fault.chunk_drop_prob,
       "chunk drop probability");
  prob("fault.chunk_dup_prob", fault.chunk_dup_prob,
       "chunk duplicate probability");
  prob("fault.chunk_stall_prob", fault.chunk_stall_prob,
       "chunk stall probability");
  non_negative("fault.chunk_stall_ms", fault.chunk_stall_ms,
               "chunk stall duration");
  prob("fault.chunk_poison_prob", fault.chunk_poison_prob,
       "chunk poison probability");
  prob("fault.sensor_dropout_prob", fault.sensor_dropout_prob,
       "sensor dropout probability");
  prob("fault.sensor_saturate_prob", fault.sensor_saturate_prob,
       "sensor saturation probability");
  positive("fault.sensor_rail_v", fault.sensor_rail_v, "sensor rail");
  non_negative("fault.health_starvation_s", fault.health_starvation_s,
               "health starvation threshold");
  prob("fault.health_bad_rate", fault.health_bad_rate,
       "health bad-rate threshold");
  positive("fault.health_window_s", fault.health_window_s,
           "health window");
  return issues;
}

void ScenarioSpec::validate_or_throw() const {
  const auto issues = validate();
  if (issues.empty()) return;
  std::string msg = "invalid scenario '" + name + "':";
  for (const auto& i : issues) {
    msg += "\n  " + i.key + ": " + i.message;
  }
  throw ScenarioError(msg);
}

// --------------------------------------------------------- parse/serialize

ScenarioSpec parse_scenario(const std::string& text,
                            const std::string& origin) {
  ScenarioSpec spec;
  std::map<std::string, int> line_of;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  const auto fail = [&origin](int line, const std::string& msg) {
    throw ScenarioError(origin + ":" + std::to_string(line) + ": " + msg);
  };
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    const auto line = trim(hash == std::string::npos ? raw
                                                     : raw.substr(0, hash));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(lineno, "expected `key = value`, got '" + line + "'");
    }
    const auto key = trim(line.substr(0, eq));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineno, "missing key before '='");
    if (value.empty()) fail(lineno, "missing value for key '" + key + "'");
    const ScenarioKey* k = nullptr;
    try {
      k = &resolve_scenario_key(key);
    } catch (const ScenarioError& e) {
      fail(lineno, e.what());
    }
    const auto [it, inserted] = line_of.emplace(k->key, lineno);
    if (!inserted) {
      fail(lineno, "duplicate key '" + k->key + "' (first set on line " +
                       std::to_string(it->second) + ")");
    }
    try {
      k->set(spec, value);
    } catch (const std::exception& e) {
      fail(lineno, k->key + ": " + e.what());
    }
  }

  const auto issues = spec.validate();
  if (!issues.empty()) {
    std::string msg;
    for (const auto& i : issues) {
      if (!msg.empty()) msg += "\n";
      const auto it = line_of.find(i.key);
      if (it != line_of.end()) {
        msg += origin + ":" + std::to_string(it->second) + ": " + i.key +
               ": " + i.message;
      } else {
        msg += origin + ": " + i.key + ": " + i.message + " (default value)";
      }
    }
    throw ScenarioError(msg);
  }
  return spec;
}

ScenarioSpec parse_scenario_file(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    throw ScenarioError("cannot open scenario file " + path);
  }
  std::ostringstream text;
  text << f.rdbuf();
  return parse_scenario(text.str(), path);
}

std::string serialize_scenario(const ScenarioSpec& spec) {
  std::string out =
      "# D-ATC pipeline scenario (see `datc scenario keys` for the full\n"
      "# key reference; `datc pipeline --scenario FILE` runs it).\n";
  std::string section;
  for (const auto& k : scenario_keys()) {
    const auto dot = k.key.find('.');
    const auto sec = dot == std::string::npos ? std::string()
                                              : k.key.substr(0, dot);
    if (sec != section) {
      section = sec;
      out += "\n# ---- " + section + "\n";
    }
    out += k.key + " = " + k.get(spec) + "\n";
  }
  return out;
}

// ----------------------------------------------------------------- presets

namespace {

struct PresetDef {
  const char* name;
  const char* summary;
  std::vector<std::pair<const char*, const char*>> overrides;
};

const std::vector<PresetDef>& preset_defs() {
  static const std::vector<PresetDef> defs = {
      {"paper-baseline",
       "single channel, 20 s grip protocol, 0.5 m body-area link (the "
       "paper's showcase regime)",
       {{"scenario", "paper-baseline"}, {"source.seed", "4221"}}},
      {"shared-aer-8ch",
       "8 channels contending for one arbitrated AER radio (the dataset's "
       "electrode count)",
       {{"scenario", "shared-aer-8ch"},
        {"source.channels", "8"},
        {"source.duration_s", "10"},
        {"source.gain_lo_v", "0.16"},
        {"source.gain_hi_v", "0.85"},
        {"aer.topology", "shared"}}},
      {"shared-aer-64ch",
       "64-channel shared-AER grid (high-density array; fast noise model)",
       {{"scenario", "shared-aer-64ch"},
        {"source.channels", "64"},
        {"source.duration_s", "5"},
        {"source.gain_lo_v", "0.16"},
        {"source.gain_hi_v", "0.85"},
        {"source.model", "noise"},
        {"aer.topology", "shared"},
        {"aer.min_spacing_s", "1e-6"}}},
      {"artifact-burst",
       "motion bursts + spikes + 50 Hz hum at the electrode (graceful-"
       "degradation claim)",
       {{"scenario", "artifact-burst"},
        {"source.powerline_amplitude_v", "0.03"},
        {"source.baseline_wander_amp_v", "0.03"},
        {"source.motion_burst_rate_hz", "0.5"},
        {"source.motion_burst_amp_v", "0.25"},
        {"source.spike_rate_hz", "2"},
        {"source.spike_amp_v", "0.4"}}},
      {"fatigue-drift",
       "sustained-effort fatigue: conduction slowing compresses the sEMG "
       "spectrum under the encoder",
       {{"scenario", "fatigue-drift"},
        {"source.model", "fatigued"},
        {"source.gain_lo_v", "0.35"},
        {"source.gain_hi_v", "0.35"},
        {"source.fatigue_tau_s", "8"},
        {"source.fatigue_sigma_stretch", "1.5"}}},
      {"lossy-far-link",
       "2 m link with 10 % pulse erasures and a strong pulse (the "
       "pulse-missing robustness regime)",
       {{"scenario", "lossy-far-link"},
        {"source.duration_s", "10"},
        {"link.distance_m", "2"},
        {"link.erasure_prob", "0.1"},
        {"link.pulse_amplitude_v", "0.5"}}},
      {"serve-smoke",
       "loopback ingest-daemon smoke: short fast-noise sessions streamed "
       "over TCP into 2 shards (`datc serve` / `datc loadgen` / CI gate)",
       {{"scenario", "serve-smoke"},
        {"source.model", "noise"},
        {"source.duration_s", "2"},
        {"session.chunk_samples", "256"},
        {"serve.shards", "2"},
        {"serve.max_sessions", "2048"},
        {"serve.inflight", "4"}}},
      {"chaos-soak",
       "everything degrades at once: lossy link, sensor bursts, chunk "
       "drops/dups/stalls, store I/O faults, health monitor armed "
       "(deterministic fault seed)",
       {{"scenario", "chaos-soak"},
        {"source.model", "noise"},
        {"source.duration_s", "10"},
        {"link.erasure_prob", "0.1"},
        {"fault.store_write_fail_prob", "0.05"},
        {"fault.store_fsync_fail_prob", "0.02"},
        {"fault.store_enospc_every_ops", "4096"},
        {"fault.store_enospc_window_ops", "8"},
        {"fault.chunk_drop_prob", "0.02"},
        {"fault.chunk_dup_prob", "0.02"},
        {"fault.chunk_stall_prob", "0.01"},
        {"fault.chunk_stall_ms", "2"},
        {"fault.sensor_dropout_prob", "0.05"},
        {"fault.sensor_saturate_prob", "0.03"},
        {"fault.health_starvation_s", "0.5"},
        {"fault.health_bad_rate", "0.5"},
        {"fault.health_window_s", "1"}}},
  };
  return defs;
}

}  // namespace

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& d : preset_defs()) n.push_back(d.name);
    return n;
  }();
  return names;
}

std::string preset_summary(const std::string& name) {
  for (const auto& d : preset_defs()) {
    if (name == d.name) return d.summary;
  }
  throw ScenarioError("unknown preset '" + name + "'");
}

ScenarioSpec make_preset(const std::string& name) {
  for (const auto& d : preset_defs()) {
    if (name != d.name) continue;
    ScenarioSpec spec;
    for (const auto& [key, value] : d.overrides) {
      set_scenario_key(spec, key, value);
    }
    spec.validate_or_throw();
    return spec;
  }
  std::string known;
  for (const auto& n : preset_names()) {
    known += known.empty() ? n : ", " + n;
  }
  throw ScenarioError("unknown preset '" + name + "' (known: " + known +
                      ")");
}

ScenarioSpec load_scenario(const std::string& ref) {
  std::error_code ec;
  if (std::filesystem::is_regular_file(ref, ec)) {
    return parse_scenario_file(ref);
  }
  for (const auto& n : preset_names()) {
    if (ref == n) return make_preset(ref);
  }
  throw ScenarioError("'" + ref +
                      "' is neither a scenario file nor a built-in preset");
}

}  // namespace datc::config
