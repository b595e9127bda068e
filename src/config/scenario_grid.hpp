#pragma once
// Scenario sweep driver: expands axis overrides over a base ScenarioSpec
// (cross-product, e.g. channels = 1,8,64 x distance = 0.2,1.0), runs
// every expanded scenario through PipelineFactory's batch engine
// across the thread pool, and emits ONE comparable report schema for
// every mode (private radios and shared AER alike; shared points also
// carry the link's TX <-> RX ledger). The one sweep driver: backs the
// `datc sweep` CLI and bench_scenarios (BENCH_scenarios.json).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "config/scenario.hpp"
#include "uwb/aer.hpp"

namespace datc::config {

using dsp::Real;

/// One sweep axis: a scenario key (short forms allowed, see
/// set_scenario_key) and the values it steps through.
struct ScenarioAxis {
  std::string key;
  std::vector<std::string> values;
};

/// Parses "channels=1,8,64; distance=0.2,1.0" (';' separates axes, ','
/// separates values). Throws ScenarioError on malformed text or
/// unknown keys.
[[nodiscard]] std::vector<ScenarioAxis> parse_axes(const std::string& text);

struct ScenarioGridConfig {
  ScenarioSpec base;
  std::vector<ScenarioAxis> axes;  ///< empty = run the base spec once
  std::size_t jobs{0};  ///< grid points in flight; 0 = hardware threads
};

/// The one report schema every scenario run emits, whatever the mode.
struct ScenarioRunReport {
  std::string scenario;   ///< spec name
  std::string overrides;  ///< "channels=8 link.distance_m=1" ("" = base)
  std::string topology;   ///< "private" | "shared"
  std::size_t channels{0};
  Real duration_s{0.0};
  std::size_t events_tx{0};
  std::size_t pulses_tx{0};
  std::size_t pulses_erased{0};
  std::size_t events_rx{0};
  std::size_t events_dropped{0};    ///< lost in AER arbitration (shared)
  std::size_t invalid_address{0};   ///< demuxed outside [0, channels)
  uwb::AerLedgerCounts ledger{};    ///< decoded frames vs sent (shared)
  Real mean_rx_correlation_pct{0.0};
  Real min_rx_correlation_pct{0.0};
  Real mean_tx_correlation_pct{0.0};  ///< lossless-link reference score
  Real wall_seconds{0.0};             ///< pipeline time (synthesis excluded)
};

/// Runs ONE scenario through the factory-built batch engine (serial; the
/// grid parallelises across points, not within them).
[[nodiscard]] ScenarioRunReport run_scenario(
    const ScenarioSpec& spec);

struct ScenarioGridResult {
  std::vector<ScenarioRunReport> points;  ///< row-major over the axes
};

/// Expands the axes and runs every point. Points are independent
/// (deterministic per spec), so the result is identical for any `jobs`.
/// Throws ScenarioError if any expanded point fails validation.
[[nodiscard]] ScenarioGridResult run_scenario_grid(
    const ScenarioGridConfig& config);

/// Aligned text table (one row per point).
[[nodiscard]] std::string scenario_grid_table(
    const ScenarioGridResult& result);

/// One point as a JSON object (no trailing separator) — the ONE
/// ScenarioRunReport serialization, shared by write_scenario_grid_json
/// and bench_scenarios so the schema cannot drift.
void write_scenario_point_json(std::ostream& out,
                               const ScenarioRunReport& point);

/// JSON report; returns false on I/O failure. This is the
/// BENCH_scenarios.json schema CI gates on.
[[nodiscard]] bool write_scenario_grid_json(const std::string& path,
                                            const ScenarioGridResult& result);

}  // namespace datc::config
