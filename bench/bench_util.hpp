#pragma once
// Shared helpers for the reproduction benches. Each bench binary prints
// its paper-vs-measured table once (before google-benchmark runs) and
// additionally registers timing benchmarks for the code paths involved.

#include <benchmark/benchmark.h>
#include <cstdio>
#include <memory>

#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "sim/table_writer.hpp"

namespace datc::bench {

/// Lazily constructed shared fixtures (calibrations are Monte Carlo runs,
/// the showcase recording is a full motor-unit synthesis).
inline const emg::Evaluator& evaluator() {
  static const emg::Evaluator eval{};
  return eval;
}

inline const emg::Recording& showcase() {
  static const emg::Recording rec = emg::showcase_recording();
  return rec;
}

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

/// Standard main: print the reproduction table, then run the registered
/// timing benchmarks.
#define DATC_BENCH_MAIN(print_fn)                       \
  int main(int argc, char** argv) {                     \
    print_fn();                                         \
    ::benchmark::Initialize(&argc, argv);               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();              \
    ::benchmark::Shutdown();                            \
    return 0;                                           \
  }

}  // namespace datc::bench
