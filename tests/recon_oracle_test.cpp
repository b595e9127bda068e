// D-ATC rate inversion against an independent oracle: the original batch
// body (tests/recon_reference.hpp). Both library entry points — the batch
// DatcReconstructor, which runs the streaming core over the whole record,
// and StreamingDatcReconstructor fed in chunks — must match it bit for bit
// on real encoder output and on the edge cases of the window arithmetic.
// The last test pins the block emit path by counting scalar fallbacks
// (deterministic, no wall clock).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/datc_encoder.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "core/streaming_reconstruct.hpp"
#include "dsp/rng.hpp"
#include "emg/dataset.hpp"
#include "recon_reference.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

core::CalibrationPtr test_calibration() {
  static const core::CalibrationPtr cal = [] {
    core::RateCalibrationConfig c;
    c.count_fs_hz = 2000.0;
    c.num_samples = 100000;
    return std::make_shared<core::RateCalibration>(c);
  }();
  return cal;
}

/// Output-grid chunk sizes; 0 stands for the whole record in one push.
constexpr std::size_t kChunks[] = {1, 7, 64, 4096, 0};

/// Streams `events` in chunks of `chunk` output samples: each step pushes
/// the events below the next watermark and advances to it (the watermark
/// reaches the duration itself before finish()). Drains after every step
/// so both drain paths (hand-over and append) run.
std::vector<Real> stream_chunked(const core::EventStream& events,
                                 Real duration_s,
                                 const core::ReconstructionConfig& rc,
                                 std::size_t chunk) {
  core::StreamingDatcReconstructor recon(rc, test_calibration());
  std::vector<Real> out;
  const auto& ev = events.events();
  if (chunk == 0) {
    recon.push_events(std::span<const core::Event>(ev));
  } else {
    std::size_t next = 0;
    for (std::size_t k = 1;; ++k) {
      const Real wm = std::min(
          static_cast<Real>(k * chunk) / rc.output_fs_hz, duration_s);
      const std::size_t begin = next;
      while (next < ev.size() && ev[next].time_s < wm) ++next;
      recon.push_events(
          std::span<const core::Event>(ev.data() + begin, next - begin));
      recon.advance_to(wm);
      recon.drain(out);
      if (!(wm < duration_s)) break;
    }
    recon.push_events(
        std::span<const core::Event>(ev.data() + next, ev.size() - next));
  }
  recon.finish(duration_s);
  recon.drain(out);
  return out;
}

void expect_bitwise(const std::vector<Real>& want,
                    const std::vector<Real>& got, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << ": sample " << i << " got " << got[i] << " want "
        << want[i];
  }
}

/// Batch and every chunking against the oracle.
void check_against_oracle(const core::EventStream& events, Real duration_s,
                          const core::ReconstructionConfig& rc,
                          const std::string& what) {
  const auto want = oracle::reference_rate_inversion(events, duration_s, rc,
                                                      *test_calibration());
  const core::DatcReconstructor batch(rc, test_calibration());
  expect_bitwise(want, batch.reconstruct(events, duration_s),
                 what + " batch");
  for (const std::size_t chunk : kChunks) {
    expect_bitwise(want, stream_chunked(events, duration_s, rc, chunk),
                   what + " chunk " + std::to_string(chunk));
  }
}

core::ReconstructionConfig grid(Real window_s, Real fs) {
  core::ReconstructionConfig rc;
  rc.window_s = window_s;
  rc.output_fs_hz = fs;
  return rc;
}

TEST(ReconOracle, EncodedRecordings) {
  for (const std::uint64_t seed : {3u, 4u}) {
    emg::RecordingSpec spec;
    spec.seed = seed;
    spec.gain_v = 0.4;
    spec.duration_s = 3.0;
    const auto rec = emg::make_recording(spec);
    const auto tx = core::encode_datc(rec.emg_v, core::DatcEncoderConfig{});
    ASSERT_GT(tx.events.size(), 100u);
    check_against_oracle(tx.events, rec.emg_v.duration_s(),
                         core::ReconstructionConfig{},
                         "seed " + std::to_string(seed));
  }
}

TEST(ReconOracle, EmptyStreamAndSingleEvent) {
  const core::ReconstructionConfig rc;
  check_against_oracle(core::EventStream{}, 1.0, rc, "empty");
  core::EventStream one;
  one.add(0.4003, 9);
  check_against_oracle(one, 1.0, rc, "single event");
}

TEST(ReconOracle, EventsOnGridPointsAndWindowEdges) {
  const core::ReconstructionConfig rc;
  const Real fs = rc.output_fs_hz;
  const Real half = rc.window_s / 2.0;
  core::EventStream ev;
  std::uint8_t code = 2;
  for (std::size_t j = 700; j < 2400; j += 97) {
    const Real t = static_cast<Real>(j) / fs;
    // Exactly on the grid, and exactly on a sample's window edges — the
    // values the cursor comparisons (< t_lo, < t_hi, <= t) see.
    for (const Real at : {t - half, t, t + half}) {
      ev.add(at, code);
      code = static_cast<std::uint8_t>(2 + (code + 5) % 13);
    }
  }
  ev.sort_by_time();
  check_against_oracle(ev, 1.2, rc, "edges");
}

TEST(ReconOracle, RecordShorterThanOneWindow) {
  const core::ReconstructionConfig rc;  // 0.25 s window
  core::EventStream ev;
  for (int i = 0; i < 40; ++i) {
    ev.add(0.0021 * i, static_cast<std::uint8_t>(3 + i % 5));
  }
  check_against_oracle(ev, 0.1, rc, "short record");
}

TEST(ReconOracle, OneSampleAndEvenWindows) {
  dsp::Rng rng(404);
  core::EventStream ev;
  Real t = 0.0;
  while (true) {
    t += 0.002 + 0.03 * rng.canonical();
    if (t >= 2.0) break;
    ev.add(t, static_cast<std::uint8_t>(1 + rng.canonical() * 15.0));
  }
  // w = 1 (h = 0): no smoothing, the rate window spans one sample.
  check_against_oracle(ev, 2.0, grid(1.0 / 2500.0, 2500.0), "h=0");
  // Even windows with a duration off the output grid: the last samples'
  // smoothing windows are clamped by a record length that is only known
  // at finish().
  check_against_oracle(ev, 1.9964, grid(0.2, 100.0), "even window");
  check_against_oracle(ev, 1.9961, grid(0.25, 1000.0), "w=250");
}

TEST(ReconOracle, RatesAbovePeakAndExactlyZero) {
  const core::ReconstructionConfig rc;
  const Real peak = test_calibration()->max_rate_hz();
  core::EventStream ev;
  // A burst at ~4x the calibration peak, then silence longer than the
  // window (rate exactly 0), then a sparse tail.
  const Real dt = 1.0 / (4.0 * peak);
  for (Real t = 0.3; t < 0.9; t += dt) ev.add(t, 14);
  for (Real t = 1.6; t < 2.5; t += 0.05) ev.add(t, 3);
  check_against_oracle(ev, 2.5, rc, "peak/zero");
}

TEST(ReconOracle, RandomStreamsAcrossGrids) {
  dsp::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    core::EventStream ev;
    const Real duration = 0.5 + 2.0 * rng.canonical();
    const Real mean_gap = 0.0005 + 0.02 * rng.canonical();
    Real t = 0.0;
    while (true) {
      t += mean_gap * 2.0 * rng.canonical();
      if (t >= duration) break;
      ev.add(t, static_cast<std::uint8_t>(rng.canonical() * 16.0));
    }
    const Real window = 0.01 + 0.4 * rng.canonical();
    const Real fs = trial % 2 == 0 ? 2500.0 : 700.0;
    check_against_oracle(ev, duration, grid(window, fs),
                         "trial " + std::to_string(trial));
  }
}

// The mechanism behind the speed-up: every interior sample goes through
// the block path, whatever the event density. Only the two record edges
// (clamped smoothing windows, h samples each) take the scalar path.
TEST(ReconMechanism, ScalarFallbacksOnlyAtRecordEdges) {
  const core::ReconstructionConfig rc;
  const auto h = static_cast<std::size_t>(
                     std::llround(rc.window_s * rc.output_fs_hz)) /
                 2;
  const Real duration = 20.0;
  std::vector<std::size_t> fallbacks;
  std::vector<std::size_t> events;
  for (const Real gap : {0.05, 0.004, 0.0007}) {
    core::EventStream ev;
    std::uint8_t code = 1;
    for (Real t = 0.0013; t < duration; t += gap) {
      ev.add(t, code);
      code = static_cast<std::uint8_t>(1 + (code + 3) % 15);
    }
    core::StreamingDatcReconstructor recon(rc, test_calibration());
    recon.push_events(std::span<const core::Event>(ev.events()));
    recon.finish(duration);
    std::vector<Real> out;
    recon.drain(out);
    ASSERT_EQ(out.size(), 50000u);
    fallbacks.push_back(recon.scalar_fallbacks());
    events.push_back(ev.size());
  }
  ASSERT_LT(events.front() * 50, events.back());
  for (const std::size_t f : fallbacks) {
    EXPECT_LE(f, 2 * h + 2);
    EXPECT_EQ(f, fallbacks.front()) << "fallbacks grew with the event count";
  }
}

}  // namespace
