#pragma once
// Vector kernel table: the hot elementwise loops of the encode and decode
// paths, implemented once per backend (scalar reference, AVX2, NEON) with
// bit-identical results. Every kernel is a pure function over its
// arguments; the per-backend implementations reproduce the scalar
// operation sequence exactly (no fma contraction, same rounding at every
// step), which is what lets the stream-parity harness assert exact
// equality under DATC_SIMD forcing. Backend selection lives in
// simd/dispatch.hpp.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "dsp/types.hpp"
#include "simd/math.hpp"

namespace datc::simd {

enum class Backend { scalar, avx2, neon };

/// Lerp-source geometry for the comparator mask kernel: the analog value
/// at clock instant `pos` (in analog-sample coordinates) is
///   a + frac * (b - a),  a = base[i0 - off], b = base[i0 - off + 1],
///   i0 = trunc(pos), frac = pos - i0,
/// exactly the interpolation the per-cycle encoders inline. The caller
/// guarantees every cycle handed to cmp_masks stays strictly inside the
/// lerp window (no edge clamps) and that pos fits an int32 gather index.
struct CmpMaskArgs {
  const Real* base;
  std::int64_t off;
  Real clock_hz;
  Real fs;
  Real offset_v;
  Real level_hi;
  Real level_lo;
  bool rectify;
};

/// Rate-inversion reconstruction tail (core/streaming_reconstruct.cpp):
/// lane i is output sample j = j0 + i. cnt[i] comes in as the change of
/// the rate-window event count from lane i - 1 (lane -1 holds
/// count_prev), and the kernel rewrites it to lane i's count (int32:
/// exact in a double lane), so the running sum runs under the lanes'
/// divisions. The kernel also appends the prefix sums of the
/// held-threshold trajectory that the lanes' smoothing windows end on:
/// p_hi[i] = p_hi[i - 1] + lsb * code[i] with p_hi[-1] = p_prev (P[j + h +
/// 1] = P[j + h] + vth[j + h], vth = lsb * DAC code), one add per lane in
/// lane order. The window sum is then p_hi[i] - p_lo[i]; p_lo may read
/// p_hi entries written earlier in the same call (windows shorter than
/// the call).
///
/// The calibration inverse u_for_rate comes from one of two tables, which
/// the kernels only read (the caller fills them on a miss):
///  - samples in [fast_lo, fast_hi) share one rate-window width W (see
///    core::rate_width_range), so their rate is count / W and their u is
///    u_by_count[count] (NaN: not seen yet), with no t = j / fs and no
///    rate division;
///  - every other sample computes its truncated window and rate and reads
///    u from a direct-mapped memo keyed by the rate's bit pattern.
struct ReconTailArgs {
  std::size_t j0;
  std::int32_t count_prev;  ///< rate-window count of sample j0 - 1
  Real p_prev;    ///< prefix sum before lane 0's: P[j0 + h]
  Real lsb;       ///< threshold DAC step: vth = lsb * code
  Real fs;        ///< output grid rate
  Real half;      ///< window_s / 2
  Real duration;  ///< record duration; +inf while it is still unknown
  Real window_n;  ///< smoothing window length (2h + 1 samples)
  Real scale;     ///< ARV of unit sigma
  const std::uint64_t* memo_keys;  ///< kRateMemoSlots rate bit patterns
  const Real* memo_u;              ///< u_for_rate of each key
  std::size_t fast_lo;  ///< first sample of the one-width run
  std::size_t fast_hi;  ///< one past its last (fast_lo <= fast_hi)
  const Real* u_by_count;        ///< u of count / W, NaN when unseen
  std::int32_t u_by_count_size;  ///< entries in u_by_count
};

/// Memo geometry: a channel sees a few hundred distinct rates, a few dozen
/// at a time (the rate window's count times the handful of w_eff
/// roundings), so 512 slots keep conflict misses rare. An empty slot
/// holds kRateMemoEmpty, a NaN payload no division produces.
inline constexpr unsigned kRateMemoBits = 9;
inline constexpr std::size_t kRateMemoSlots = std::size_t{1} << kRateMemoBits;
inline constexpr std::uint64_t kRateMemoEmpty = ~std::uint64_t{0};

/// Multiplicative hash of the folded key; the AVX2 body computes the same
/// slot with a 32x32 -> 64 lane multiply.
[[nodiscard]] inline std::size_t rate_memo_slot(std::uint64_t key) {
  const auto fold = static_cast<std::uint32_t>(key ^ (key >> 32));
  return static_cast<std::size_t>((fold * 0x9E3779B1u) >>
                                  (32 - kRateMemoBits));
}

/// The scalar reference of one recon_tail lane, in two halves around the
/// memo lookup. Rate of output sample j holding `cnt` events: boundary
/// windows are truncated by the record edges and normalised by the
/// overlap.
[[nodiscard]] inline Real recon_rate_at(const ReconTailArgs& a, std::size_t j,
                                        Real cnt) {
  const Real t = static_cast<Real>(j) / a.fs;
  const Real t_lo = t - a.half;
  const Real t_hi = t + a.half;
  const Real w_eff = std::min(t_hi, a.duration) - std::max(t_lo, 0.0);
  return cnt / std::max(w_eff, Real{1e-9});
}

/// Smoothed threshold (window sum `diff` over `window_n` samples) over
/// the calibration inverse u, in ARV units.
[[nodiscard]] inline Real recon_arv(const ReconTailArgs& a, Real diff,
                                    Real u) {
  const Real vth_sm = diff / a.window_n;
  const Real sigma = vth_sm / u;
  return sigma * a.scale;
}

struct KernelTable {
  Backend backend;
  const char* name;
  /// Comparator decision masks for cycles [k0, k0 + n): bit i of
  /// hi_words[i / 64] is ((v + offset) > level_hi) at cycle k0 + i, and
  /// likewise lo_words for level_lo. Words past bit n-1 are zeroed. The
  /// hysteresis recurrence is resolved by the caller (datc_block.hpp).
  void (*cmp_masks)(const CmpMaskArgs& args, std::size_t k0, std::size_t n,
                    std::uint64_t* hi_words, std::uint64_t* lo_words);
  /// Marsaglia-polar tail: t = sqrt(-2 * datc_log(s[i]) / s[i]);
  /// z0[i] = u[i] * t, z1[i] = v[i] * t.
  void (*gauss_tail)(const Real* u, const Real* v, const Real* s, Real* z0,
                     Real* z1, std::size_t n);
  /// dst[i] = (c * a[i]) * a[i]  (receiver pulse energy, left-associated).
  void (*square_scale)(Real* dst, const Real* a, Real c, std::size_t n);
  /// cnt[i] += cnt[i - 1] (cnt[-1] = count_prev), p_hi[i] = p_hi[i - 1]
  /// + lsb * code[i], then out[i] = ((p_hi[i] - p_lo[i]) / window_n / u_i)
  /// * scale, for the leading samples whose u is in its table. Returns
  /// how many outputs were written: a return k < n means sample k missed
  /// (cnt[0..k] and p_hi[0..k] written, out[k..) untouched).
  std::size_t (*recon_tail)(const ReconTailArgs& args, std::int32_t* cnt,
                            const std::uint8_t* code, Real* p_hi,
                            const Real* p_lo, Real* out, std::size_t n);
};

namespace detail {

/// One comparator decision pair — the shared scalar reference every
/// backend's remainder loop calls, so tails cannot drift from the main
/// vector body.
struct CmpBits {
  bool hi;
  bool lo;
};

[[nodiscard]] inline CmpBits cmp_bits_at(const CmpMaskArgs& a,
                                         std::size_t k) {
  const Real t_k = static_cast<Real>(k) / a.clock_hz;
  const Real pos = t_k * a.fs;
  const auto i0 = static_cast<std::size_t>(pos);
  const Real frac = pos - static_cast<Real>(i0);
  const Real* p = a.base + (static_cast<std::int64_t>(i0) - a.off);
  Real v = p[0] + frac * (p[1] - p[0]);
  if (a.rectify) v = std::abs(v);
  const Real vp = v + a.offset_v;
  return CmpBits{vp > a.level_hi, vp > a.level_lo};
}

/// Shared polar tail for backend remainder loops.
inline void gauss_tail_one(Real u, Real v, Real s, Real& z0, Real& z1) {
  const Real l = datc_log(s);
  const Real t = std::sqrt(-2.0 * l / s);
  z0 = u * t;
  z1 = v * t;
}

/// Memo probe; false on a miss.
[[nodiscard]] inline bool rate_memo_find(const ReconTailArgs& a, Real rate,
                                         Real& u) {
  const auto key = std::bit_cast<std::uint64_t>(rate);
  const std::size_t slot = rate_memo_slot(key);
  if (a.memo_keys[slot] != key) return false;
  u = a.memo_u[slot];
  return true;
}

/// u of a one-width sample holding `count` events; false when the
/// count is not in the table yet.
[[nodiscard]] inline bool count_table_find(const ReconTailArgs& a,
                                           std::int32_t count, Real& u) {
  if (count >= a.u_by_count_size) return false;  // counts are >= 0
  u = a.u_by_count[count];
  return !std::isnan(u);
}

/// Lane i's held threshold, the product the trajectory holds.
[[nodiscard]] inline Real recon_vth(const ReconTailArgs& a,
                                    const std::uint8_t* code, std::size_t i) {
  return a.lsb * static_cast<Real>(code[i]);
}

/// Running state of one recon_tail call: the last prefix sum appended
/// and the last lane's rate-window count.
struct ReconTailState {
  Real p;
  std::int32_t count;
};

/// Shared recon_tail body for backend remainder loops (and the scalar
/// reference): extends the prefix and the count by lane i, then false
/// when sample i misses its u table. `fast` selects the table: lanes in
/// [fast_lo, fast_hi) read u_by_count, the others the rate memo.
[[nodiscard]] inline bool recon_tail_one(const ReconTailArgs& a, bool fast,
                                         std::int32_t* cnt,
                                         const std::uint8_t* code,
                                         Real* p_hi, const Real* p_lo,
                                         Real* out, std::size_t i,
                                         ReconTailState& s) {
  s.p += recon_vth(a, code, i);
  p_hi[i] = s.p;
  s.count += cnt[i];
  cnt[i] = s.count;
  Real u = 0.0;
  if (fast) {
    if (!count_table_find(a, s.count, u)) return false;
  } else {
    const Real rate =
        recon_rate_at(a, a.j0 + i, static_cast<Real>(s.count));
    if (!rate_memo_find(a, rate, u)) return false;
  }
  out[i] = recon_arv(a, s.p - p_lo[i], u);
  return true;
}

/// Runs lanes [0, n) as three spans: before, inside and after the
/// one-width run [fast_lo, fast_hi). span(fast, begin, end, state) handles
/// one span and returns the lane it stopped at (end, or a missing lane);
/// `fast` is std::true_type or std::false_type so each backend compiles
/// both bodies without a per-lane branch.
template <class Span>
[[nodiscard]] std::size_t recon_tail_spans(const ReconTailArgs& a,
                                           std::size_t n, Span&& span) {
  const std::size_t end = a.j0 + n;
  const std::size_t lo = std::min(std::max(a.fast_lo, a.j0), end) - a.j0;
  const std::size_t hi =
      std::max(std::min(a.fast_hi, end), a.j0 + lo) - a.j0;
  ReconTailState s{a.p_prev, a.count_prev};
  std::size_t i = span(std::false_type{}, std::size_t{0}, lo, s);
  if (i < lo) return i;
  i = span(std::true_type{}, lo, hi, s);
  if (i < hi) return i;
  return span(std::false_type{}, hi, n, s);
}

[[nodiscard]] const KernelTable& scalar_table();
/// Defined for every architecture; on non-x86 hosts it aliases the scalar
/// table (dispatch never selects it there — backend_available gates it).
[[nodiscard]] const KernelTable& avx2_table();
/// Likewise aliases the scalar table off aarch64.
[[nodiscard]] const KernelTable& neon_table();

}  // namespace detail

}  // namespace datc::simd
