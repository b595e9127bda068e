#pragma once
// Declarative scenario layer: ONE spec describes everything a D-ATC
// pipeline run needs — signal source, encoder, UWB link, AER arbitration,
// session chunking, reconstruction and seeds — in a human-writable
// `key = value` text format (scenarios/*.datc). Every construction path
// in the repo (batch sim, PipelineRunner, streaming sessions, replay,
// the CLI and the benches) is built from a ScenarioSpec through
// config::PipelineFactory, so a default lives in exactly one place.
//
// The same key registry drives parsing, serialization, validation,
// `datc scenario keys` documentation and the sweep driver's axis
// overrides (sim::run_scenario_grid) — adding a key once wires it into
// all five.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/frame.hpp"
#include "dsp/types.hpp"

namespace datc::config {

using dsp::Real;

/// Which synthesiser produces the sEMG for each channel.
enum class SourceModel {
  kMotorUnitPool,  ///< physiological Fuglevand pool (dataset default)
  kFilteredNoise,  ///< AM band-limited noise (big sweeps)
  kFatigued,       ///< motor-unit pool with progressive conduction slowing
};

/// Link topology: a private radio per channel, or one arbitrated medium.
enum class LinkTopology { kPrivate, kSharedAer };

/// The one declarative description of a pipeline run. Field defaults ARE
/// the project defaults — the CLI, benches and presets start from
/// ScenarioSpec{} and override, never restate.
struct ScenarioSpec {
  std::string name{"unnamed"};

  struct Source {
    std::size_t channels{1};
    Real duration_s{20.0};
    Real sample_rate_hz{2500.0};  ///< dataset rate; also the recon grid
    std::uint64_t seed{1};        ///< channel i synthesises with seed + i
    Real gain_lo_v{0.28};         ///< ARV at 100 % MVC, weakest channel
    Real gain_hi_v{0.28};         ///< strongest channel (log spread between)
    Real start_mvc{0.7};          ///< grip protocol starts at 70 % MVC
    SourceModel model{SourceModel::kMotorUnitPool};
    // Fatigue model parameters (model = fatigued).
    Real fatigue_tau_s{30.0};
    Real fatigue_sigma_stretch{1.4};
    Real fatigue_amplitude_gain{1.1};
    // Artifact injection at the electrode (all zero = clean).
    std::uint64_t artifact_seed{606};  ///< channel i injects with seed ^ i
    Real powerline_amplitude_v{0.0};
    Real powerline_freq_hz{50.0};
    Real baseline_wander_amp_v{0.0};
    Real baseline_wander_hz{0.3};
    Real motion_burst_rate_hz{0.0};
    Real motion_burst_amp_v{0.0};
    Real spike_rate_hz{0.0};
    Real spike_amp_v{0.0};
  } source;

  struct Encoder {
    Real window_s{0.25};    ///< RX window and ground-truth ARV window
    Real clock_hz{2000.0};  ///< DTC clock (fclk = 2 * f_sEMG,max)
    unsigned dac_bits{4};
    Real dac_vref{1.0};
    core::FrameSize frame{core::FrameSize::k100};
    Real band_lo_hz{20.0};  ///< assumed sEMG band at the receiver
    Real band_hi_hz{450.0};
  } encoder;

  struct Link {
    std::uint64_t seed{7};  ///< base radio seed (xor channel id, private)
    Real distance_m{0.5};
    Real ref_loss_db{30.0};  ///< body-area reference loss
    Real path_loss_exponent{1.8};
    Real erasure_prob{0.0};
    Real jitter_rms_s{50e-12};
    Real pulse_amplitude_v{0.1};
    Real symbol_period_s{100e-9};
    Real false_alarm_prob{1e-6};
  } link;

  struct Aer {
    LinkTopology topology{LinkTopology::kPrivate};
    unsigned address_bits{0};  ///< 0 = smallest width covering channels
    Real min_spacing_s{2e-6};
    Real max_queue_delay_s{20e-3};
  } aer;

  struct Session {
    std::size_t chunk_samples{256};  ///< streaming chunk (per channel)
    std::size_t jobs{0};             ///< worker threads; 0 = hardware
    std::uint32_t channel{0};        ///< id of a single streamed session
  } session;

  /// Ingest-daemon parameters (`datc serve`): the TCP listener and the
  /// sharded session fan-out. Sessions accepted by the daemon are built
  /// through the same PipelineFactory as every other path, so serve.*
  /// only shapes the server, never the pipeline.
  struct Serve {
    std::uint16_t port{0};        ///< TCP port; 0 = ephemeral (loopback)
    std::size_t shards{2};        ///< SessionManager shards (by id hash)
    std::size_t max_sessions{4096};  ///< concurrent session cap
    /// Per-connection inflight-chunk bound: once this many submitted
    /// chunks have not yet produced their envelope, the server stops
    /// reading the socket (TCP pushback towards the client).
    std::size_t max_inflight_chunks{4};
  } serve;

  /// Deterministic fault injection + graceful-degradation thresholds.
  /// All defaults are "off": a spec with default fault.* keys runs the
  /// exact pre-fault pipeline, bit for bit. Probabilities are decided by
  /// seeded hashes of operation indices (src/fault), never wall time, so
  /// a fixed fault.seed reproduces identical fault sequences and counts.
  struct Fault {
    std::uint64_t seed{4242};  ///< one seed drives every fault stream
    // Store I/O faults (recorder/log writer path).
    Real store_write_fail_prob{0.0};   ///< torn-write prob per write op
    Real store_fsync_fail_prob{0.0};   ///< failure prob per sync op
    std::uint64_t store_enospc_every_ops{0};   ///< ENOSPC period (0 = off)
    std::uint64_t store_enospc_window_ops{16}; ///< failing ops per period
    // Session chunk-stream faults.
    Real chunk_drop_prob{0.0};
    Real chunk_dup_prob{0.0};
    Real chunk_stall_prob{0.0};
    Real chunk_stall_ms{5.0};
    Real chunk_poison_prob{0.0};  ///< chunk delivery throws (quarantine)
    // Sensor faults (dropout / saturation bursts at the electrode).
    Real sensor_dropout_prob{0.0};
    Real sensor_saturate_prob{0.0};
    Real sensor_rail_v{1.0};
    // Decode-health monitor thresholds (0 = check off).
    Real health_starvation_s{0.0};
    Real health_bad_rate{0.0};
    Real health_window_s{1.0};
  } fault;

  /// AER address width actually used on air: the configured width, or the
  /// smallest width covering `source.channels` when it is 0.
  [[nodiscard]] unsigned resolved_address_bits() const;

  /// Channel i's full-MVC gain: log spread from gain_lo_v to gain_hi_v
  /// (a single channel gets gain_lo_v).
  [[nodiscard]] Real gain_for_channel(std::size_t channel) const;

  /// True when any artifact amplitude/rate is non-zero.
  [[nodiscard]] bool has_artifacts() const;

  /// True when any fault.* probability/period is armed (seed, stall
  /// duration, rail and health thresholds alone do not count — they only
  /// shape faults once one is armed).
  [[nodiscard]] bool has_faults() const;

  /// Cross-field validation (no silent nonsense: NaN or non-positive
  /// rates, window sizes of 0, an AER address width too small for the
  /// channel count, ... all rejected). Returns every violated rule;
  /// empty means the spec is runnable.
  struct Issue {
    std::string key;      ///< registry key the rule anchors to
    std::string message;  ///< human-readable rule violation
  };
  [[nodiscard]] std::vector<Issue> validate() const;

  /// Throws ScenarioError listing every issue; no-op on a valid spec.
  void validate_or_throw() const;
};

/// Parse/validation failure. `what()` carries origin:line context for
/// errors attributable to an input line.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what) : std::runtime_error(what) {}
};

// ------------------------------------------------------------- key registry

/// One settable/serializable scenario key.
struct ScenarioKey {
  std::string key;  ///< dotted name, e.g. "link.distance_m"
  std::string doc;  ///< one-line reference shown by `datc scenario keys`
  std::string (*get)(const ScenarioSpec&);
  void (*set)(ScenarioSpec&, const std::string&);
};

/// The full registry, in serialization order.
[[nodiscard]] const std::vector<ScenarioKey>& scenario_keys();

/// Sets one key. Accepts the exact dotted name or an unambiguous short
/// form (the last path component, e.g. "channels", optionally a unique
/// prefix of it like "distance"). Throws ScenarioError on an unknown or
/// ambiguous name or an unparsable value.
void set_scenario_key(ScenarioSpec& spec, const std::string& key,
                      const std::string& value);

/// Resolves a short-form key name to its registry entry (see
/// set_scenario_key). Throws ScenarioError when unknown/ambiguous.
[[nodiscard]] const ScenarioKey& resolve_scenario_key(const std::string& key);

// --------------------------------------------------------- parse/serialize

/// Parses `key = value` text ('#' starts a comment, blank lines ignored).
/// Unknown keys, duplicate keys, malformed values and validation failures
/// throw ScenarioError with `origin:line:` context (validation failures
/// of keys left at their defaults cite the key instead of a line).
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text,
                                          const std::string& origin =
                                              "<scenario>");

/// parse_scenario over a file's contents.
[[nodiscard]] ScenarioSpec parse_scenario_file(const std::string& path);

/// Serializes every key (grouped, commented). parse(serialize(s)) == s.
[[nodiscard]] std::string serialize_scenario(const ScenarioSpec& spec);

// ----------------------------------------------------------------- presets

/// Names of the built-in presets, in display order. Each is also shipped
/// as scenarios/<name>.datc (generated by `datc scenario emit`).
[[nodiscard]] const std::vector<std::string>& preset_names();

/// One-line description of a preset (for `datc scenario list`).
[[nodiscard]] std::string preset_summary(const std::string& name);

/// Builds a built-in preset by name. Throws ScenarioError when unknown.
[[nodiscard]] ScenarioSpec make_preset(const std::string& name);

/// Loads a scenario from `ref`: an existing file path first, else a
/// built-in preset name. Throws ScenarioError when neither resolves.
[[nodiscard]] ScenarioSpec load_scenario(const std::string& ref);

}  // namespace datc::config
