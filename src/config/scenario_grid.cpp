#include "config/scenario_grid.hpp"

#include <algorithm>
#include <fstream>
#include <limits>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "runtime/pipeline_runner.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/table_writer.hpp"

namespace datc::config {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto pos = s.find(sep, start);
    const auto end = pos == std::string::npos ? s.size() : pos;
    out.push_back(trim(s.substr(start, end - start)));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

}  // namespace

std::vector<ScenarioAxis> parse_axes(const std::string& text) {
  std::vector<ScenarioAxis> axes;
  for (const auto& part : split(text, ';')) {
    if (part.empty()) continue;
    const auto eq = part.find('=');
    if (eq == std::string::npos) {
      throw ScenarioError("axis '" + part +
                                  "': expected key=v1,v2,...");
    }
    ScenarioAxis axis;
    // Resolve now: an unknown axis key must fail before any point runs,
    // and the canonical name keeps report labels unambiguous.
    axis.key = config::resolve_scenario_key(trim(part.substr(0, eq))).key;
    for (const auto& v : split(part.substr(eq + 1), ',')) {
      if (v.empty()) {
        throw ScenarioError("axis '" + axis.key +
                                    "': empty value in list");
      }
      axis.values.push_back(v);
    }
    if (axis.values.empty()) {
      throw ScenarioError("axis '" + axis.key + "': no values");
    }
    axes.push_back(std::move(axis));
  }
  return axes;
}

ScenarioRunReport run_scenario(const ScenarioSpec& spec) {
  const PipelineFactory factory(spec);
  const auto recordings = factory.make_recordings();
  const auto runner = factory.make_runner();
  const auto batch = runner->run_serial(recordings);

  ScenarioRunReport out;
  out.scenario = spec.name;
  out.topology = spec.aer.topology == config::LinkTopology::kSharedAer
                     ? "shared"
                     : "private";
  out.channels = batch.channels.size();
  out.duration_s = spec.source.duration_s;
  out.wall_seconds = batch.wall_seconds;

  Real sum_rx = 0.0;
  Real sum_tx = 0.0;
  Real min_rx = std::numeric_limits<Real>::infinity();
  for (const auto& ch : batch.channels) {
    out.events_tx += ch.events_tx;
    out.events_rx += ch.events_rx;
    sum_rx += ch.rx_correlation_pct;
    sum_tx += ch.tx_correlation_pct;
    min_rx = std::min(min_rx, ch.rx_correlation_pct);
  }
  if (!batch.channels.empty()) {
    const auto n = static_cast<Real>(batch.channels.size());
    out.mean_rx_correlation_pct = sum_rx / n;
    out.mean_tx_correlation_pct = sum_tx / n;
    out.min_rx_correlation_pct = min_rx;
  }
  if (batch.link_mode == runtime::LinkMode::kSharedAer) {
    out.pulses_tx = batch.shared.pulses_tx;
    out.pulses_erased = batch.shared.pulses_erased;
    out.events_dropped = batch.shared.arbiter.dropped;
    out.invalid_address = batch.shared.demux.invalid_address;
    out.ledger = batch.shared.ledger;
  } else {
    for (const auto& ch : batch.channels) {
      out.pulses_tx += ch.pulses_tx;
      out.pulses_erased += ch.pulses_erased;
    }
  }
  return out;
}

ScenarioGridResult run_scenario_grid(const ScenarioGridConfig& config) {
  // Expand the cross-product row-major (last axis fastest).
  std::size_t n_points = 1;
  for (const auto& axis : config.axes) n_points *= axis.values.size();

  struct Point {
    ScenarioSpec spec;
    std::string overrides;
  };
  std::vector<Point> points;
  points.reserve(n_points);
  for (std::size_t index = 0; index < n_points; ++index) {
    Point p{config.base, ""};
    std::size_t stride = n_points;
    for (const auto& axis : config.axes) {
      stride /= axis.values.size();
      const auto& value = axis.values[(index / stride) % axis.values.size()];
      set_scenario_key(p.spec, axis.key, value);
      p.overrides += (p.overrides.empty() ? "" : " ") + axis.key + "=" +
                     value;
    }
    // Fail fast, naming the offending point, before any point runs.
    try {
      p.spec.validate_or_throw();
    } catch (const ScenarioError& e) {
      throw ScenarioError("grid point [" + p.overrides +
                                  "]: " + e.what());
    }
    points.push_back(std::move(p));
  }

  ScenarioGridResult result;
  result.points.resize(points.size());
  const auto run_point = [&points, &result](std::size_t i) {
    result.points[i] = run_scenario(points[i].spec);
    result.points[i].overrides = points[i].overrides;
  };
  if (config.jobs == 1 || points.size() <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
  } else {
    runtime::ThreadPool pool(config.jobs);
    runtime::parallel_for(pool, points.size(), run_point);
  }
  return result;
}

std::string scenario_grid_table(const ScenarioGridResult& result) {
  sim::Table table({"scenario", "overrides", "mode", "ch", "events tx/rx",
               "drop", "matched/addr/code/spur", "rx corr % (mean/min)",
               "wall ms"});
  for (const auto& p : result.points) {
    const auto& l = p.ledger;
    table.add_row(
        {p.scenario, p.overrides.empty() ? "-" : p.overrides, p.topology,
         sim::Table::integer(p.channels),
         sim::Table::integer(p.events_tx) + "/" + sim::Table::integer(p.events_rx),
         sim::Table::integer(p.events_dropped),
         p.topology == "shared"
             ? sim::Table::integer(l.matched) + "/" +
                   sim::Table::integer(l.address_errors) + "/" +
                   sim::Table::integer(l.code_errors) + "/" +
                   sim::Table::integer(l.spurious)
             : "-",
         sim::Table::num(p.mean_rx_correlation_pct, 2) + "/" +
             sim::Table::num(p.min_rx_correlation_pct, 2),
         sim::Table::num(p.wall_seconds * 1e3, 1)});
  }
  return table.to_text();
}

void write_scenario_point_json(std::ostream& out,
                               const ScenarioRunReport& p) {
  out << "{\"scenario\": \"" << p.scenario << "\""
      << ", \"overrides\": \"" << p.overrides << "\""
      << ", \"topology\": \"" << p.topology << "\""
      << ", \"channels\": " << p.channels
      << ", \"duration_s\": " << p.duration_s
      << ", \"events_tx\": " << p.events_tx
      << ", \"pulses_tx\": " << p.pulses_tx
      << ", \"pulses_erased\": " << p.pulses_erased
      << ", \"events_rx\": " << p.events_rx
      << ", \"events_dropped\": " << p.events_dropped
      << ", \"invalid_address\": " << p.invalid_address
      << ", \"matched\": " << p.ledger.matched
      << ", \"address_errors\": " << p.ledger.address_errors
      << ", \"code_errors\": " << p.ledger.code_errors
      << ", \"spurious\": " << p.ledger.spurious
      << ", \"mean_rx_correlation_pct\": " << p.mean_rx_correlation_pct
      << ", \"min_rx_correlation_pct\": " << p.min_rx_correlation_pct
      << ", \"mean_tx_correlation_pct\": " << p.mean_tx_correlation_pct
      << ", \"wall_seconds\": " << p.wall_seconds << "}";
}

bool write_scenario_grid_json(const std::string& path,
                              const ScenarioGridResult& result) {
  std::ofstream json(path);
  if (!json.good()) return false;
  json.precision(12);
  json << "{\n  \"points\": [\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    json << "    ";
    write_scenario_point_json(json, result.points[i]);
    json << (i + 1 < result.points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  return json.good();
}

}  // namespace datc::config
