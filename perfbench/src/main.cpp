// Whole-chain benchmark program:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// Synthesises the workload's inputs from the seed, runs it for S seconds
// and checks its outputs in the same run. With --trace 0 it prints the
// end-to-end metrics, with --trace 1 the per-layer metrics of a separate
// traced run. Human-readable lines come first (every metric with its unit
// and sample count, every failed check, the run metadata); the last line
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every check passed, 3 on an output mismatch, 2 on
// bad arguments, 1 on any other error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "simd/dispatch.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

void print_meta(const Options& opt) {
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"cpu_model\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"simd_backend\": \"%s\"}\n",
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, perfbench::nproc(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      PERFBENCH_COMPILER,
      datc::simd::backend_name(datc::simd::kernels().backend));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "offline-16ch|aer-gateway-64|serve-open-256 --seed N "
               "--seconds S --trace 0|1 --scratch DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--scratch") {
        opt.scratch = val;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required (no default seed)");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  if (opt.scratch.empty()) return usage("--scratch is required");

  Report report;
  try {
    if (opt.workload == "offline-16ch") {
      report = perfbench::run_offline(opt);
    } else if (opt.workload == "aer-gateway-64") {
      report = perfbench::run_gateway(opt);
    } else if (opt.workload == "serve-open-256") {
      report = perfbench::run_serve(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  print_meta(opt);
  for (const auto& n : report.notes) std::printf("# %s\n", n.c_str());
  for (const auto& m : report.metrics) {
    std::printf("%-40s %16.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    report.check(std::isfinite(m.value), m.name + " is finite");
  }
  std::printf("%-40s %16.6f %-6s (n=%llu)\n", "error_ratio",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              "ratio", static_cast<unsigned long long>(report.attempted));

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 ? 0 : 3;
}
