// Runtime SIMD dispatch: every backend available on this host must
// produce BIT-IDENTICAL results to the scalar reference — decoded event
// streams, reconstructed envelopes and the raw kernel outputs — across
// the chunk-size x link-mode stream-parity matrix, and the batched RNG
// fills must draw the exact per-call sequence with the identical engine
// end-state. Backends the host cannot run are skipped (not passed): the
// CI matrix shows which lanes actually executed.

#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <vector>

#include "core/datc_encoder.hpp"
#include "core/event_arena.hpp"
#include "core/reconstruct.hpp"
#include "core/streaming_reconstruct.hpp"
#include "dsp/rng.hpp"
#include "emg/evaluation.hpp"
#include "sim/stream_parity.hpp"
#include "simd/dispatch.hpp"
#include "uwb/link_pipeline.hpp"

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

emg::Recording test_recording(std::uint64_t seed) {
  emg::RecordingSpec spec;
  spec.seed = seed;
  spec.duration_s = 2.0;
  spec.gain_v = 0.4;
  spec.name = "simd-ch" + std::to_string(seed);
  return emg::make_recording(spec);
}

sim::LinkConfig noisy_link(std::uint64_t seed) {
  sim::LinkConfig link;
  link.seed = seed;
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;  // mixed per-pulse jitter path
  return link;
}

sim::LinkConfig clean_link(std::uint64_t seed) {
  auto link = noisy_link(seed);
  link.channel.erasure_prob = 0.0;  // batched fill_gaussian jitter path
  return link;
}

/// Restores the dispatched backend when a test exits (even on failure).
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::kernels().backend) {}
  ~BackendGuard() { simd::force_backend(saved_); }

 private:
  simd::Backend saved_;
};

bool events_bitwise_equal(const core::EventStream& a,
                          const core::EventStream& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ea = a.events()[i];
    const auto& eb = b.events()[i];
    if (std::bit_cast<std::uint64_t>(ea.time_s) !=
            std::bit_cast<std::uint64_t>(eb.time_s) ||
        ea.vth_code != eb.vth_code || ea.channel != eb.channel) {
      return false;
    }
  }
  return true;
}

/// Encode -> link -> streaming reconstruction on the CURRENT backend.
struct PipelineOutput {
  core::EventStream tx;
  core::EventStream rx;
  std::vector<Real> arv;        ///< streaming, whole record pushed at once
  std::vector<Real> arv_batch;  ///< DatcReconstructor::reconstruct
};

PipelineOutput run_pipeline(const emg::Recording& rec,
                            const emg::EvalConfig& eval,
                            const sim::LinkConfig& link) {
  PipelineOutput out;
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(eval), arena);
  out.tx = arena.take_stream();
  out.rx = uwb::run_datc_over_link(out.tx, link, eval.dtc.dac_bits,
                                   /*cache_detection=*/true)
               .events_rx;
  core::StreamingDatcReconstructor recon(
      emg::datc_reconstruction_config(eval), test_calibration());
  recon.push_events(std::span<const core::Event>(out.rx.events()));
  recon.finish(rec.emg_v.duration_s());
  recon.drain(out.arv);
  out.arv_batch =
      core::DatcReconstructor(emg::datc_reconstruction_config(eval),
                              test_calibration())
          .reconstruct(out.rx, rec.emg_v.duration_s());
  return out;
}

// ------------------------------------------------------- backend matrix

class SimdBackendMatrixTest
    : public ::testing::TestWithParam<simd::Backend> {
 protected:
  void SetUp() override {
    if (!simd::backend_available(GetParam())) {
      GTEST_SKIP() << simd::backend_name(GetParam())
                   << " backend unavailable on this host";
    }
  }
};

// The full streaming == batch sweep under backend forcing: both link
// modes (erasure exercises the per-pulse RNG path, clean the batched
// fill), several chunkings including whole-record.
TEST_P(SimdBackendMatrixTest, StreamParityAcrossChunkSizesAndLinkModes) {
  BackendGuard guard;
  simd::force_backend(GetParam());
  const auto rec = test_recording(811);
  const sim::EvalConfig eval;
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{64},
                                  std::size_t{257}, std::size_t{1000}}) {
    for (const bool noisy : {true, false}) {
      const auto link = noisy ? noisy_link(17) : clean_link(17);
      const auto r = sim::check_stream_parity(rec.emg_v, eval, link,
                                              test_calibration(), chunk);
      EXPECT_TRUE(r.events_equal)
          << simd::backend_name(GetParam()) << " chunk " << chunk
          << (noisy ? " noisy" : " clean") << ": decoded events diverged ("
          << r.events_batch << " batch vs " << r.events_stream << ")";
      EXPECT_TRUE(r.arv_equal)
          << simd::backend_name(GetParam()) << " chunk " << chunk
          << (noisy ? " noisy" : " clean") << ": max ARV diff "
          << r.max_abs_arv_diff;
    }
  }
}

TEST_P(SimdBackendMatrixTest, SharedAerStreamParity) {
  BackendGuard guard;
  simd::force_backend(GetParam());
  const sim::EvalConfig eval;
  std::vector<dsp::TimeSeries> chans;
  for (std::uint64_t s : {901, 902, 903}) {
    chans.push_back(test_recording(s).emg_v);
  }
  const sim::SharedAerConfig shared{};
  const auto r = sim::check_shared_stream_parity(
      chans, eval, noisy_link(29), shared, test_calibration(), 512);
  EXPECT_TRUE(r.identical())
      << simd::backend_name(GetParam()) << ": shared-AER parity broke";
}

// The fused block encoder against the per-cycle reference encoder.
TEST_P(SimdBackendMatrixTest, BlockEncodeMatchesReferenceEncoder) {
  BackendGuard guard;
  simd::force_backend(GetParam());
  const auto rec = test_recording(812);
  const emg::EvalConfig eval;
  const auto cfg = emg::datc_encoder_config(eval);
  const auto ref = core::encode_datc(rec.emg_v, cfg);
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, cfg, arena);
  EXPECT_TRUE(events_bitwise_equal(arena.take_stream(), ref.events));
}

// fill_gaussian must draw the exact per-call sequence — any batch split
// and the engine end-state included (the spare cache carries across).
TEST_P(SimdBackendMatrixTest, RngFillMatchesPerCallDraws) {
  BackendGuard guard;
  simd::force_backend(GetParam());
  constexpr std::uint64_t kSeed = 20260808;
  constexpr std::size_t kN = 1537;  // odd: ends mid polar pair

  dsp::Rng per_call(kSeed);
  std::vector<Real> expected(kN);
  for (auto& v : expected) v = per_call.gaussian_bm();

  dsp::Rng whole(kSeed);
  std::vector<Real> batch(kN);
  whole.fill_gaussian(batch);
  EXPECT_EQ(batch, expected);

  dsp::Rng split(kSeed);
  std::vector<Real> head(611);
  std::vector<Real> tail(kN - head.size());
  split.fill_gaussian(head);
  split.fill_gaussian(tail);
  head.insert(head.end(), tail.begin(), tail.end());
  EXPECT_EQ(head, expected);

  // End-state: all three streams must continue identically.
  const Real next = per_call.canonical();
  EXPECT_EQ(whole.canonical(), next);
  EXPECT_EQ(split.canonical(), next);

  dsp::Rng uni_ref(kSeed);
  dsp::Rng uni_fill(kSeed);
  std::vector<Real> uni(kN);
  uni_fill.fill_uniform(uni);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(uni[i], uni_ref.canonical()) << "uniform draw " << i;
  }
}

/// recon_tail operands for n lanes from output index j0, with every
/// lane's rate in the memo except lane `miss` (n: none missing).
struct ReconTailCase {
  std::vector<std::int32_t> cnt;
  std::vector<Real> p_hi, p_lo;
  std::vector<std::uint64_t> keys;
  std::vector<Real> memo_u;
  simd::ReconTailArgs args{};

  ReconTailCase(std::size_t j0, std::size_t n, Real duration,
                std::size_t miss, dsp::Rng& rng)
      : cnt(n), p_hi(n), p_lo(n), keys(simd::kRateMemoSlots,
                                       simd::kRateMemoEmpty),
        memo_u(simd::kRateMemoSlots, 0.0) {
    args = simd::ReconTailArgs{j0,    2500.0, 0.125, duration,
                               625.0, 0.7978845608028654,
                               keys.data(), memo_u.data()};
    for (std::size_t i = 0; i < n; ++i) {
      // Distinct counts give distinct rates, so only lane `miss` misses
      // (or a lane evicted by a slot collision, on every backend alike).
      cnt[i] = static_cast<std::int32_t>(4 * i) +
               static_cast<std::int32_t>(rng.canonical() * 4.0);
      p_lo[i] = 100.0 * rng.canonical();
      p_hi[i] = p_lo[i] + 60.0 * rng.canonical();
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == miss) continue;
      const Real rate = simd::recon_rate_at(
          args, j0 + i, static_cast<Real>(cnt[i]));
      const auto key = std::bit_cast<std::uint64_t>(rate);
      keys[simd::rate_memo_slot(key)] = key;
      memo_u[simd::rate_memo_slot(key)] = 0.3 + rng.canonical();
    }
  }

  std::size_t run(const simd::KernelTable& kt, std::vector<Real>& out) const {
    out.assign(cnt.size(), -1.0);
    return kt.recon_tail(args, cnt.data(), p_hi.data(), p_lo.data(),
                         out.data(), cnt.size());
  }
};

// Raw recon_tail against the scalar table at every length 0..9 (all the
// remainder-loop shapes of the 4- and 2-lane bodies), on the left record
// edge (t_lo < 0), in the interior, past a known duration (t_hi
// truncated), and with a memo miss in every lane position.
TEST_P(SimdBackendMatrixTest, ReconTailMatchesScalarAtEveryLength) {
  const auto& scalar = simd::detail::scalar_table();
  const auto& kt = simd::table_for(GetParam());
  dsp::Rng rng(4242);
  const Real inf = std::numeric_limits<Real>::infinity();
  for (std::size_t n = 0; n <= 9; ++n) {
    for (const std::size_t j0 : {std::size_t{0}, std::size_t{300},
                                 std::size_t{49995}}) {
      for (std::size_t miss = 0; miss <= n; ++miss) {
        const ReconTailCase c(j0, n, j0 > 40000 ? 20.0 : inf, miss, rng);
        std::vector<Real> want;
        std::vector<Real> got;
        const std::size_t k_want = c.run(scalar, want);
        const std::size_t k_got = c.run(kt, got);
        ASSERT_EQ(k_got, k_want) << kt.name << " n=" << n << " j0=" << j0
                                 << " miss=" << miss;
        ASSERT_LE(k_want, miss);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << kt.name << " recon_tail n=" << n << " j0=" << j0
              << " miss=" << miss << " lane " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SimdBackendMatrixTest,
    ::testing::Values(simd::Backend::scalar, simd::Backend::avx2,
                      simd::Backend::neon),
    [](const ::testing::TestParamInfo<simd::Backend>& param) {
      return simd::backend_name(param.param);
    });

// --------------------------------------------- cross-backend equality

// Whole pipeline, every non-scalar backend vs the scalar reference:
// decoded events and the reconstructed envelope bit for bit.
TEST(SimdCrossBackendTest, PipelineBitIdenticalToScalar) {
  BackendGuard guard;
  const auto rec = test_recording(813);
  const sim::EvalConfig eval;
  const auto link = noisy_link(41);

  simd::force_backend(simd::Backend::scalar);
  const auto ref = run_pipeline(rec, eval, link);
  ASSERT_GT(ref.tx.size(), 0u);
  ASSERT_GT(ref.rx.size(), 0u);
  ASSERT_GT(ref.arv.size(), 0u);

  for (const auto b : {simd::Backend::avx2, simd::Backend::neon}) {
    if (!simd::backend_available(b)) continue;
    simd::force_backend(b);
    const auto got = run_pipeline(rec, eval, link);
    EXPECT_TRUE(events_bitwise_equal(got.tx, ref.tx))
        << simd::backend_name(b) << ": encoded stream diverged";
    EXPECT_TRUE(events_bitwise_equal(got.rx, ref.rx))
        << simd::backend_name(b) << ": decoded stream diverged";
    ASSERT_EQ(got.arv.size(), ref.arv.size());
    ASSERT_EQ(got.arv_batch.size(), ref.arv.size());
    for (std::size_t i = 0; i < ref.arv.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.arv[i]),
                std::bit_cast<std::uint64_t>(ref.arv[i]))
          << simd::backend_name(b) << ": ARV sample " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.arv_batch[i]),
                std::bit_cast<std::uint64_t>(ref.arv[i]))
          << simd::backend_name(b) << ": batch ARV sample " << i;
    }
  }
}

// Raw kernel outputs on synthetic operands, vector tables vs scalar.
TEST(SimdCrossBackendTest, KernelOutputsBitIdenticalToScalar) {
  constexpr std::size_t kN = 259;  // odd tail exercises remainder loops
  std::vector<Real> u(kN), v(kN), s(kN), a(kN);
  dsp::Rng rng(99);
  for (std::size_t i = 0; i < kN; ++i) {
    // Polar-tail operands: s in (0, 1), (u, v) inside the unit disc.
    Real x = 0.0;
    Real y = 0.0;
    Real m = 0.0;
    do {
      x = 2.0 * rng.canonical() - 1.0;
      y = 2.0 * rng.canonical() - 1.0;
      m = x * x + y * y;
    } while (m >= 1.0 || m == 0.0);
    u[i] = x;
    v[i] = y;
    s[i] = m;
    a[i] = 4.0 * rng.canonical() - 2.0;
  }

  const auto& scalar = simd::detail::scalar_table();
  std::vector<Real> z0_ref(kN), z1_ref(kN), sq_ref(kN);
  scalar.gauss_tail(u.data(), v.data(), s.data(), z0_ref.data(),
                    z1_ref.data(), kN);
  scalar.square_scale(sq_ref.data(), a.data(), 0.37, kN);

  for (const auto b : {simd::Backend::avx2, simd::Backend::neon}) {
    if (!simd::backend_available(b)) continue;
    const auto& kt = b == simd::Backend::avx2 ? simd::detail::avx2_table()
                                              : simd::detail::neon_table();
    std::vector<Real> z0(kN), z1(kN), sq(kN);
    kt.gauss_tail(u.data(), v.data(), s.data(), z0.data(), z1.data(), kN);
    kt.square_scale(sq.data(), a.data(), 0.37, kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(z0[i]),
                std::bit_cast<std::uint64_t>(z0_ref[i]))
          << kt.name << " gauss_tail z0[" << i << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(z1[i]),
                std::bit_cast<std::uint64_t>(z1_ref[i]))
          << kt.name << " gauss_tail z1[" << i << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sq[i]),
                std::bit_cast<std::uint64_t>(sq_ref[i]))
          << kt.name << " square_scale[" << i << "]";
    }
  }
}

}  // namespace
