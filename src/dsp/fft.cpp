#include "dsp/fft.hpp"
#include "dsp/types.hpp"

#include <cmath>
#include <numbers>

namespace datc::dsp {
namespace {

constexpr Real kPi = std::numbers::pi_v<Real>;

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void bit_reverse_permute(std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
}

}  // namespace

void fft_inplace(std::vector<Complex>& x) {
  const std::size_t n = x.size();
  require(is_pow2(n), "fft: size must be a power of two");
  bit_reverse_permute(x);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const Real ang = -2.0 * kPi / static_cast<Real>(len);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = x[i + k];
        const Complex v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<Complex> fft_real(std::span<const Real> x) {
  require(!x.empty(), "fft_real: empty input");
  std::vector<Complex> buf(next_pow2(x.size()), Complex{0.0, 0.0});
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = Complex{x[i], 0.0};
  fft_inplace(buf);
  return buf;
}

std::vector<Complex> dft_reference(std::span<const Complex> x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const Real ang =
          -2.0 * kPi * static_cast<Real>(k * i) / static_cast<Real>(n);
      out[k] += x[i] * Complex{std::cos(ang), std::sin(ang)};
    }
  }
  return out;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace datc::dsp
