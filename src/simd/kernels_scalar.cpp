// Scalar reference kernels: the authoritative operation sequence every
// vector backend must reproduce bit-for-bit. Kept deliberately plain —
// one cycle / one element per iteration through the shared detail::
// helpers, so a reader can line the AVX2/NEON bodies up against these.

#include "simd/kernels.hpp"

namespace datc::simd::detail {

namespace {

void cmp_masks_scalar(const CmpMaskArgs& args, std::size_t k0, std::size_t n,
                      std::uint64_t* hi_words, std::uint64_t* lo_words) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t w = 0; w < words; ++w) {
    hi_words[w] = 0;
    lo_words[w] = 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const CmpBits b = cmp_bits_at(args, k0 + i);
    hi_words[i >> 6] |= static_cast<std::uint64_t>(b.hi) << (i & 63);
    lo_words[i >> 6] |= static_cast<std::uint64_t>(b.lo) << (i & 63);
  }
}

void gauss_tail_scalar(const Real* u, const Real* v, const Real* s, Real* z0,
                       Real* z1, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    gauss_tail_one(u[i], v[i], s[i], z0[i], z1[i]);
  }
}

void square_scale_scalar(Real* dst, const Real* a, Real c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = c * a[i] * a[i];
  }
}

std::size_t recon_tail_scalar(const ReconTailArgs& args,
                              const std::int32_t* cnt,
                              const std::uint8_t* code, Real* p_hi,
                              const Real* p_lo, Real* out, std::size_t n) {
  Real p = args.p_prev;
  for (std::size_t i = 0; i < n; ++i) {
    if (!recon_tail_one(args, cnt, code, p_hi, p_lo, out, i, p)) return i;
  }
  return n;
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table{Backend::scalar, "scalar", cmp_masks_scalar,
                                 gauss_tail_scalar, square_scale_scalar,
                                 recon_tail_scalar};
  return table;
}

}  // namespace datc::simd::detail
