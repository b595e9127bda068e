// Runtime SIMD dispatch: every backend available on this host must
// produce BIT-IDENTICAL results to the scalar reference — decoded event
// streams, reconstructed envelopes and the raw kernel outputs — across
// the chunk-size x link-mode stream-parity matrix, and the batched RNG
// fills must draw the exact per-call sequence with the identical engine
// end-state. Backends the host cannot run are skipped (not passed): the
// CI matrix shows which lanes actually executed.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <string>
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

uwb::LinkConfig noisy_link(std::uint64_t seed) {
  uwb::LinkConfig link;
  link.seed = seed;
  link.channel.distance_m = 0.6;
  link.channel.ref_loss_db = 30.0;
  link.channel.erasure_prob = 0.05;  // mixed per-pulse jitter path
  return link;
}

uwb::LinkConfig clean_link(std::uint64_t seed) {
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
                            const uwb::LinkConfig& link) {
  PipelineOutput out;
  core::EventArena arena;
  core::encode_datc_events(rec.emg_v, emg::datc_encoder_config(eval), arena);
  out.tx = arena.take_stream();
  out.rx = uwb::run_datc_over_link(out.tx, link, eval.dtc.dac_bits).events_rx;
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
  const emg::EvalConfig eval;
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
  const emg::EvalConfig eval;
  std::vector<dsp::TimeSeries> chans;
  for (std::uint64_t s : {901, 902, 903}) {
    chans.push_back(test_recording(s).emg_v);
  }
  const uwb::SharedAerConfig shared{};
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
/// lane's rate in the memo except lane `miss` (n: none missing), and a
/// held DAC code that changes at lane `change`.
struct ReconTailCase {
  std::vector<std::int32_t> cnt;
  std::vector<std::uint8_t> code;
  std::vector<Real> p_lo;
  std::vector<std::uint64_t> keys;
  std::vector<Real> memo_u;
  simd::ReconTailArgs args{};

  ReconTailCase(std::size_t j0, std::size_t n, Real duration,
                std::size_t miss, std::size_t change, dsp::Rng& rng)
      : cnt(n), code(n), p_lo(n), keys(simd::kRateMemoSlots,
                                       simd::kRateMemoEmpty),
        memo_u(simd::kRateMemoSlots, 0.0) {
    // An LSB that is not a power of two, so the products round.
    args = simd::ReconTailArgs{j0,       100.0 * rng.canonical(),
                               1.2 / 16.0, 2500.0,
                               0.125,    duration,
                               625.0,    0.7978845608028654,
                               keys.data(), memo_u.data()};
    const auto before = static_cast<std::uint8_t>(1 + rng.canonical() * 15);
    const auto after = static_cast<std::uint8_t>(1 + rng.canonical() * 15);
    for (std::size_t i = 0; i < n; ++i) {
      // Distinct counts give distinct rates, so only lane `miss` misses
      // (or a lane evicted by a slot collision, on every backend alike).
      cnt[i] = static_cast<std::int32_t>(4 * i) +
               static_cast<std::int32_t>(rng.canonical() * 4.0);
      code[i] = i < change ? before : after;
      p_lo[i] = 60.0 * rng.canonical();
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

  std::size_t run(const simd::KernelTable& kt, std::vector<Real>& out,
                  std::vector<Real>& p_hi) const {
    out.assign(cnt.size(), -1.0);
    p_hi.assign(cnt.size(), -1.0);
    return kt.recon_tail(args, cnt.data(), code.data(), p_hi.data(),
                         p_lo.data(), out.data(), cnt.size());
  }
};

void expect_bitwise(const std::vector<Real>& got,
                    const std::vector<Real>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " lane " << i;
  }
}

// Raw recon_tail against the scalar table at every length 0..9 (all the
// remainder-loop shapes of the 4- and 2-lane bodies), on the left record
// edge (t_lo < 0), in the interior, past a known duration (t_hi
// truncated), with a memo miss in every lane position and the held
// threshold changing at the first, middle and last lane. The appended
// prefix sums must match too, including which lanes a miss leaves
// unwritten.
TEST_P(SimdBackendMatrixTest, ReconTailMatchesScalarAtEveryLength) {
  const auto& scalar = simd::detail::scalar_table();
  const auto& kt = simd::table_for(GetParam());
  dsp::Rng rng(4242);
  const Real inf = std::numeric_limits<Real>::infinity();
  for (std::size_t n = 0; n <= 9; ++n) {
    for (const std::size_t j0 : {std::size_t{0}, std::size_t{300},
                                 std::size_t{49995}}) {
      for (std::size_t miss = 0; miss <= n; ++miss) {
        for (const std::size_t change :
             {std::size_t{0}, n / 2, n > 0 ? n - 1 : 0}) {
          const ReconTailCase c(j0, n, j0 > 40000 ? 20.0 : inf, miss, change,
                                rng);
          std::vector<Real> want, want_p, got, got_p;
          const std::size_t k_want = c.run(scalar, want, want_p);
          const std::size_t k_got = c.run(kt, got, got_p);
          const std::string what = std::string(kt.name) +
                                   " n=" + std::to_string(n) +
                                   " j0=" + std::to_string(j0) +
                                   " miss=" + std::to_string(miss) +
                                   " change=" + std::to_string(change);
          ASSERT_EQ(k_got, k_want) << what;
          ASSERT_LE(k_want, miss);
          expect_bitwise(got, want, what + " out");
          expect_bitwise(got_p, want_p, what + " p_hi");
          for (std::size_t i = 0; i < n; ++i) {
            // Exactly p_hi[0..k] is appended, k = the missing lane.
            ASSERT_EQ(got_p[i] != -1.0, i <= k_want) << what << " lane " << i;
          }
        }
      }
    }
  }
}

// recon_tail driven the way the emitter drives it: the prefix and step
// rings share slots, each call runs to the next ring wrap of either
// operand, and p_prev is read back from the ring. The block spans several
// wraps; with h = 0 and 1, p_lo reads sums the same call just appended.
// Every backend must reproduce the prefix sums and outputs of the plain
// linear computation.
TEST_P(SimdBackendMatrixTest, ReconTailFoldsPrefixAcrossRingWrap) {
  const auto& kt = simd::table_for(GetParam());
  dsp::Rng rng(777);
  for (const std::size_t h : {std::size_t{0}, std::size_t{1},
                              std::size_t{3}}) {
    const std::size_t w = 2 * h + 1;
    const std::size_t ring = 2 * w + 4;
    const std::size_t j_start = h + 5;
    const std::size_t n = 3 * ring + 2;
    const std::size_t last = j_start + n + h;  // samples 0 .. last - 1
    std::vector<std::uint64_t> keys(simd::kRateMemoSlots,
                                    simd::kRateMemoEmpty);
    std::vector<Real> memo_u(simd::kRateMemoSlots, 0.0);
    simd::ReconTailArgs args{0,   0.0, 1.2 / 16.0, 2500.0, 0.125,
                             std::numeric_limits<Real>::infinity(),
                             static_cast<Real>(w), 0.7978845608028654,
                             keys.data(), memo_u.data()};
    // Held codes in runs of a few samples; the linear prefix of lsb * code.
    std::vector<std::uint8_t> vth(last);
    std::uint8_t held = 1;
    for (std::size_t k = 0; k < last; ++k) {
      if (rng.canonical() < 0.3) {
        held = static_cast<std::uint8_t>(1 + rng.canonical() * 15);
      }
      vth[k] = held;
    }
    std::vector<Real> prefix(last + 1, 0.0);
    for (std::size_t k = 0; k < last; ++k) {
      prefix[k + 1] = prefix[k] + args.lsb * static_cast<Real>(vth[k]);
    }
    // Counts from a small set; u depends on the count only, and a memo
    // miss (a slot collision) is resolved the way the emitter does it.
    std::vector<std::int32_t> cnt(n);
    std::vector<Real> want(n);
    const auto u_of = [&](std::size_t i) {
      return 0.3 + static_cast<Real>(cnt[i]) / 7.0;
    };
    const auto remember = [&](std::size_t i) {
      const auto key = std::bit_cast<std::uint64_t>(
          simd::recon_rate_at(args, j_start + i, cnt[i]));
      keys[simd::rate_memo_slot(key)] = key;
      memo_u[simd::rate_memo_slot(key)] = u_of(i);
    };
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = j_start + i;
      cnt[i] = static_cast<std::int32_t>(rng.canonical() * 5.0);
      remember(i);
      want[i] =
          simd::recon_arv(args, prefix[j + h + 1] - prefix[j - h], u_of(i));
    }
    // Ring state at the block start: P[j_start - h .. j_start + h]. The
    // codes a call sums are written just before it (the trajectory runs
    // less than a ring ahead of the emitter).
    std::vector<Real> p_ring(ring, -1.0);
    std::vector<std::uint8_t> c_ring(ring, 0);
    for (std::size_t k = j_start - h; k <= j_start + h; ++k) {
      p_ring[k % ring] = prefix[k];
    }
    std::vector<Real> got(n, -1.0);
    std::size_t calls = 0;
    for (std::size_t j = j_start; j < j_start + n;) {
      const std::size_t ih = (j + h + 1) % ring;
      const std::size_t il = (j - h) % ring;
      const std::size_t seg =
          std::min({j_start + n - j, ring - ih, ring - il});
      for (std::size_t i = 0; i < seg; ++i) c_ring[ih + i] = vth[j + h + i];
      args.j0 = j;
      args.p_prev = p_ring[(j + h) % ring];
      const std::size_t done = kt.recon_tail(
          args, cnt.data() + (j - j_start), c_ring.data() + ih,
          p_ring.data() + ih, p_ring.data() + il, got.data() + (j - j_start),
          seg);
      j += done;
      ++calls;
      if (done < seg) {  // the kernel appended the missing sample's P
        const std::size_t i = j - j_start;
        remember(i);
        got[i] = simd::recon_arv(
            args, p_ring[(j + h + 1) % ring] - p_ring[(j - h) % ring],
            u_of(i));
        ++j;
      }
    }
    EXPECT_GT(calls, 3u);
    expect_bitwise(got, want, std::string(kt.name) + " h=" +
                                  std::to_string(h) + " out");
    for (std::size_t k = last + 1 - ring; k <= last; ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(p_ring[k % ring]),
                std::bit_cast<std::uint64_t>(prefix[k]))
          << kt.name << " h=" << h << " P[" << k << "]";
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
  const emg::EvalConfig eval;
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
