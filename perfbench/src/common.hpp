#pragma once
// Shared plumbing of the whole-chain benchmark: options, the result
// report, input synthesis, set-up timing and small helpers.

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "config/factory.hpp"
#include "dsp/types.hpp"
#include "emg/dataset.hpp"

namespace perfbench {

using datc::dsp::Real;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  std::string scratch;  ///< private directory for files the run writes
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  std::size_t samples{1};  ///< how many observations the value summarises
};

/// What one run prints: end-to-end metrics (untraced run) or per-layer
/// metrics (traced run), plus every correctness check made on the way.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// Counts one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Deterministic 64-bit mix of the workload seed with a salt.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a over the bit patterns of `v`, chained through `h`.
[[nodiscard]] std::uint64_t hash_reals(std::span<const Real> v,
                                       std::uint64_t h = 1469598103934665603ull);

[[nodiscard]] bool bit_equal(std::span<const Real> a, std::span<const Real> b);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] std::size_t nproc();

/// `channels` recordings with gains log-spread from 0.16 V to 0.85 V (the
/// dataset's subject range), seeds derived from `seed` and `salt`.
[[nodiscard]] std::vector<datc::emg::Recording> synthesize(
    std::uint64_t seed, std::uint64_t salt, std::size_t channels,
    Real duration_s, datc::emg::EmgModel model);

/// Set-up timing: `setup` runs `reps` times and each rep reports its own
/// synthesis and calibration time; the medians are reported.
struct SetupTimes {
  double setup_s{0.0};
  double synthesis_s{0.0};
  double calibration_s{0.0};
  std::size_t reps{0};
};

struct SetupRep {
  double synthesis_s{0.0};
  double calibration_s{0.0};
};

[[nodiscard]] SetupTimes time_setup(int reps,
                                    const std::function<SetupRep()>& setup);

/// Builds a fresh (uncached) rate calibration for `factory`'s spec and
/// returns the seconds it took — the Monte Carlo cost every cold process
/// pays once.
[[nodiscard]] double time_calibration(const datc::config::PipelineFactory& f);

/// The end-to-end metric set every workload reports (untraced run).
struct EndToEnd {
  SetupTimes setup;
  double x_realtime{0.0};          ///< signal-seconds per wall-second
  std::size_t x_realtime_samples{0};
  double latency_p50_s{0.0};
  double latency_p99_s{0.0};
  std::size_t latency_samples{0};  ///< operations timed (and attempted)
  std::uint64_t late{0};           ///< over the limit or never completed
  double rx_correlation_pct{0.0};
  std::size_t correlation_samples{0};
};

/// Appends the end-to-end metrics in BENCHMARK.json order; `late_ratio`
/// is reported as on_time_pct = 100 * (1 - late_ratio).
void report_end_to_end(Report& report, const EndToEnd& e);

// ----------------------------------------------------------- workloads
[[nodiscard]] Report run_offline(const Options& opt);
[[nodiscard]] Report run_gateway(const Options& opt);
[[nodiscard]] Report run_serve(const Options& opt);

}  // namespace perfbench
