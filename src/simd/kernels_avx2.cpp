// AVX2 backend: 4-wide double lanes. Compiled with -mavx2 for this TU
// only (see CMakeLists); every arithmetic step mirrors the scalar
// reference in simd/kernels_scalar.cpp / simd/math.hpp operation for
// operation — separate mul and add (never fmadd), IEEE div/sqrt, exact
// int<->double conversions — so lane results are bit-identical to the
// scalar backend. On non-x86 builds this TU only aliases the scalar
// table (dispatch never selects avx2 there).

#include "simd/kernels.hpp"
#include "simd/math.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace datc::simd::detail {

namespace {

/// 4-lane datc_log (simd/math.hpp), normal positive inputs only — the
/// polar-method rejection interval (0, 1) never produces subnormals, so
/// the scalar subnormal branch has no vector counterpart.
[[nodiscard]] __m256d log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  // Unbiased exponent, one int64 per lane; values fit int32.
  const __m256i e64 = _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                                       _mm256_set1_epi64x(1023));
  const __m256i pack_idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const __m128i e32 =
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(e64, pack_idx));
  __m256d dk = _mm256_cvtepi32_pd(e32);
  const __m256i mbits = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffll)),
      _mm256_set1_epi64x(0x3ff0000000000000ll));
  __m256d m = _mm256_castsi256_pd(mbits);  // [1, 2)
  const __m256d gt =
      _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), gt);
  dk = _mm256_add_pd(dk, _mm256_and_pd(gt, _mm256_set1_pd(1.0)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d f = _mm256_sub_pd(m, one);
  const __m256d s =
      _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, _mm256_add_pd(
             _mm256_set1_pd(kLg2),
             _mm256_mul_pd(
                 w, _mm256_add_pd(_mm256_set1_pd(kLg4),
                                  _mm256_mul_pd(w, _mm256_set1_pd(kLg6))))));
  const __m256d t2 = _mm256_mul_pd(
      z,
      _mm256_add_pd(
          _mm256_set1_pd(kLg1),
          _mm256_mul_pd(
              w, _mm256_add_pd(
                     _mm256_set1_pd(kLg3),
                     _mm256_mul_pd(
                         w, _mm256_add_pd(
                                _mm256_set1_pd(kLg5),
                                _mm256_mul_pd(w, _mm256_set1_pd(kLg7))))))));
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(f, f));
  // dk*ln2_hi - ((hfsq - (s*(hfsq+r) + dk*ln2_lo)) - f)
  const __m256d inner = _mm256_add_pd(
      _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Lo)));
  return _mm256_sub_pd(
      _mm256_mul_pd(dk, _mm256_set1_pd(kLn2Hi)),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

void cmp_masks_avx2(const CmpMaskArgs& args, std::size_t k0, std::size_t n,
                    std::uint64_t* hi_words, std::uint64_t* lo_words) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    hi_words[w] = 0;
    lo_words[w] = 0;
  }
  const __m256d vclock = _mm256_set1_pd(args.clock_hz);
  const __m256d vfs = _mm256_set1_pd(args.fs);
  const __m256d voff = _mm256_set1_pd(args.offset_v);
  const __m256d vhi = _mm256_set1_pd(args.level_hi);
  const __m256d vlo = _mm256_set1_pd(args.level_lo);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m128i ioff = _mm_set1_epi32(static_cast<int>(args.off));
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d four = _mm256_set1_pd(4.0);
  const auto kd0 = static_cast<double>(k0);
  __m256d kd = _mm256_setr_pd(kd0, kd0 + 1.0, kd0 + 2.0, kd0 + 3.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_div_pd(kd, vclock);
    const __m256d pos = _mm256_mul_pd(t, vfs);
    const __m128i i0 = _mm256_cvttpd_epi32(pos);  // trunc, matches (size_t)
    const __m256d fi0 = _mm256_cvtepi32_pd(i0);   // exact
    const __m256d frac = _mm256_sub_pd(pos, fi0);
    const __m128i idx = _mm_sub_epi32(i0, ioff);
    // Masked form with a zeroed source: the plain gather's undefined
    // pass-through operand trips -Wmaybe-uninitialized under -Werror.
    const __m256d a = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                               args.base, idx, all, 8);
    const __m256d b = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                               args.base + 1, idx, all, 8);
    __m256d v =
        _mm256_add_pd(a, _mm256_mul_pd(frac, _mm256_sub_pd(b, a)));
    if (args.rectify) v = _mm256_andnot_pd(sign, v);
    const __m256d vp = _mm256_add_pd(v, voff);
    const auto mh = static_cast<std::uint64_t>(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(vp, vhi, _CMP_GT_OQ))));
    const auto ml = static_cast<std::uint64_t>(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(vp, vlo, _CMP_GT_OQ))));
    hi_words[i >> 6] |= mh << (i & 63);  // groups of 4 never straddle words
    lo_words[i >> 6] |= ml << (i & 63);
    kd = _mm256_add_pd(kd, four);
  }
  for (; i < n; ++i) {
    const CmpBits b = cmp_bits_at(args, k0 + i);
    hi_words[i >> 6] |= static_cast<std::uint64_t>(b.hi) << (i & 63);
    lo_words[i >> 6] |= static_cast<std::uint64_t>(b.lo) << (i & 63);
  }
}

void gauss_tail_avx2(const Real* u, const Real* v, const Real* s, Real* z0,
                     Real* z1, std::size_t n) {
  const __m256d neg2 = _mm256_set1_pd(-2.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sv = _mm256_loadu_pd(s + i);
    const __m256d l = log4(sv);
    const __m256d t =
        _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(neg2, l), sv));
    _mm256_storeu_pd(z0 + i, _mm256_mul_pd(_mm256_loadu_pd(u + i), t));
    _mm256_storeu_pd(z1 + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), t));
  }
  for (; i < n; ++i) {
    gauss_tail_one(u[i], v[i], s[i], z0[i], z1[i]);
  }
}

void square_scale_avx2(Real* dst, const Real* a, Real c, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d av = _mm256_loadu_pd(a + i);
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_mul_pd(vc, av), av));
  }
  for (; i < n; ++i) dst[i] = c * a[i] * a[i];
}

/// One recon_tail span of 4-lane blocks plus the shared scalar remainder.
/// A block that misses its table breaks before writing anything, so the
/// remainder loop restarts at the block and stops at the missing lane.
template <bool Fast>
std::size_t recon_span_avx2(const ReconTailArgs& args, std::int32_t* cnt,
                            const std::uint8_t* code, Real* p_hi,
                            const Real* p_lo, Real* out, std::size_t i,
                            std::size_t end, ReconTailState& s) {
  const __m256d vwin = _mm256_set1_pd(args.window_n);
  const __m256d vscale = _mm256_set1_pd(args.scale);
  for (; i + 4 <= end; i += 4) {
    // The count running sum in lane order (scalar int adds).
    const std::int32_t c0 = s.count + cnt[i];
    const std::int32_t c1 = c0 + cnt[i + 1];
    const std::int32_t c2 = c1 + cnt[i + 2];
    const std::int32_t c3 = c2 + cnt[i + 3];
    const __m128i vc = _mm_setr_epi32(c0, c1, c2, c3);
    __m256d u;
    if constexpr (Fast) {
      const __m128i in_table =
          _mm_cmplt_epi32(vc, _mm_set1_epi32(args.u_by_count_size));
      if (_mm_movemask_ps(_mm_castsi128_ps(in_table)) != 0xF) break;
      // Masked form with a zeroed source, as in cmp_masks_avx2.
      u = _mm256_mask_i32gather_pd(
          _mm256_setzero_pd(), args.u_by_count, vc,
          _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
      if (_mm256_movemask_pd(_mm256_cmp_pd(u, u, _CMP_ORD_Q)) != 0xF) break;
    } else {
      const auto jd0 = static_cast<double>(args.j0 + i);
      const __m256d jd = _mm256_setr_pd(jd0, jd0 + 1.0, jd0 + 2.0, jd0 + 3.0);
      const __m256d t = _mm256_div_pd(jd, _mm256_set1_pd(args.fs));
      const __m256d vhalf = _mm256_set1_pd(args.half);
      const __m256d t_lo = _mm256_sub_pd(t, vhalf);
      const __m256d t_hi = _mm256_add_pd(t, vhalf);
      // min/max with the operands swapped reproduce std::min(a, b) =
      // (b < a) ? b : a and std::max(a, b) = (a < b) ? b : a exactly,
      // signed zeros and NaN included.
      const __m256d w_eff =
          _mm256_sub_pd(_mm256_min_pd(_mm256_set1_pd(args.duration), t_hi),
                        _mm256_max_pd(_mm256_setzero_pd(), t_lo));
      const __m256d rate = _mm256_div_pd(
          _mm256_cvtepi32_pd(vc),
          _mm256_max_pd(_mm256_set1_pd(1e-9), w_eff));
      const __m256i key = _mm256_castpd_si256(rate);
      const __m256i fold = _mm256_xor_si256(key, _mm256_srli_epi64(key, 32));
      const __m256i slot = _mm256_and_si256(
          _mm256_srli_epi64(
              _mm256_mul_epu32(fold, _mm256_set1_epi64x(0x9E3779B1ll)),
              32 - kRateMemoBits),
          _mm256_set1_epi64x(static_cast<long long>(kRateMemoSlots - 1)));
      const __m256i got = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(args.memo_keys), slot, 8);
      if (_mm256_movemask_pd(_mm256_castsi256_pd(
              _mm256_cmpeq_epi64(got, key))) != 0xF) {
        break;
      }
      u = _mm256_i64gather_pd(args.memo_u, slot, 8);
    }
    s.count = c3;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cnt + i), vc);
    // The prefix chain in lane order (scalar adds: the order is the bits).
    const Real q0 = s.p + recon_vth(args, code, i);
    const Real q1 = q0 + recon_vth(args, code, i + 1);
    const Real q2 = q1 + recon_vth(args, code, i + 2);
    s.p = q2 + recon_vth(args, code, i + 3);
    const __m256d hi = _mm256_setr_pd(q0, q1, q2, s.p);
    // Store before loading p_lo: a short window reads this block's sums.
    _mm256_storeu_pd(p_hi + i, hi);
    const __m256d vth_sm =
        _mm256_div_pd(_mm256_sub_pd(hi, _mm256_loadu_pd(p_lo + i)), vwin);
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_div_pd(vth_sm, u), vscale));
  }
  for (; i < end; ++i) {
    if (!recon_tail_one(args, Fast, cnt, code, p_hi, p_lo, out, i, s)) {
      break;
    }
  }
  return i;
}

std::size_t recon_tail_avx2(const ReconTailArgs& args, std::int32_t* cnt,
                            const std::uint8_t* code, Real* p_hi,
                            const Real* p_lo, Real* out, std::size_t n) {
  return recon_tail_spans(
      args, n,
      [&](auto fast, std::size_t i, std::size_t end, ReconTailState& s) {
        return recon_span_avx2<decltype(fast)::value>(args, cnt, code, p_hi,
                                                      p_lo, out, i, end, s);
      });
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table{Backend::avx2, "avx2", cmp_masks_avx2,
                                 gauss_tail_avx2, square_scale_avx2,
                                 recon_tail_avx2};
  return table;
}

}  // namespace datc::simd::detail

#else  // non-x86: keep the symbol, never selected

namespace datc::simd::detail {
const KernelTable& avx2_table() { return scalar_table(); }
}  // namespace datc::simd::detail

#endif
