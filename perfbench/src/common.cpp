#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/rate_calibration.hpp"
#include "emg/evaluation.hpp"
#include "stats.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), samples});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("CHECK FAILED: " + what);
  }
}

double now_s() {
  static const Clock::time_point origin = Clock::now();
  return seconds_since(origin);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finaliser over seed ^ golden-ratio-scaled salt.
  std::uint64_t z = seed ^ (salt * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t hash_reals(std::span<const Real> v, std::uint64_t h) {
  for (const Real x : v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= bits & 0xFFu;
      h *= 1099511628211ull;
      bits >>= 8;
    }
  }
  return h;
}

bool bit_equal(std::span<const Real> a, std::span<const Real> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::vector<datc::emg::Recording> synthesize(std::uint64_t seed,
                                             std::uint64_t salt,
                                             std::size_t channels,
                                             Real duration_s,
                                             datc::emg::EmgModel model) {
  std::vector<datc::emg::Recording> out;
  out.reserve(channels);
  for (std::size_t i = 0; i < channels; ++i) {
    datc::emg::RecordingSpec spec;
    spec.seed = mix_seed(seed, salt * 1000003u + i);
    spec.duration_s = duration_s;
    spec.model = model;
    const Real frac = channels > 1 ? static_cast<Real>(i) /
                                         static_cast<Real>(channels - 1)
                                   : 0.0;
    spec.gain_v = 0.16 * std::pow(0.85 / 0.16, frac);
    spec.name = "perfbench-ch" + std::to_string(i);
    out.push_back(datc::emg::make_recording(spec));
  }
  return out;
}

SetupTimes time_setup(int reps, const std::function<SetupRep()>& setup) {
  std::vector<double> total;
  std::vector<double> synth;
  std::vector<double> cal;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const SetupRep rep = setup();
    total.push_back(seconds_since(t0));
    synth.push_back(rep.synthesis_s);
    cal.push_back(rep.calibration_s);
  }
  SetupTimes t;
  t.setup_s = median(total);
  t.synthesis_s = median(synth);
  t.calibration_s = median(cal);
  t.reps = static_cast<std::size_t>(reps);
  return t;
}

double time_calibration(const datc::config::PipelineFactory& f) {
  const auto eval = f.eval_config();
  const auto t0 = Clock::now();
  const datc::core::RateCalibration cal(
      datc::emg::calibration_config(eval, eval.datc_clock_hz));
  const double s = seconds_since(t0);
  // Touch the table so the construction cannot be elided.
  if (!std::isfinite(cal.rate_for_u(1.0))) return -1.0;
  return s;
}

void report_end_to_end(Report& report, const EndToEnd& e) {
  const double n = static_cast<double>(std::max<std::size_t>(
      e.latency_samples, 1));
  report.add("setup_s", e.setup.setup_s, "s", e.setup.reps);
  report.add("throughput_x_realtime", e.x_realtime, "x",
             e.x_realtime_samples);
  report.add("latency_p50_ms", e.latency_p50_s * 1e3, "ms",
             e.latency_samples);
  report.add("latency_p99_ms", e.latency_p99_s * 1e3, "ms",
             e.latency_samples);
  report.add("on_time_pct",
             100.0 * (1.0 - static_cast<double>(e.late) / n), "%",
             e.latency_samples);
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("rx_correlation_pct", e.rx_correlation_pct, "%",
             e.correlation_samples);
  report.note("latency tail: " + std::to_string(e.latency_samples) +
              " samples support " + supported_tail(e.latency_samples).label);
}

}  // namespace perfbench
