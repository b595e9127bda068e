#pragma once
// Deterministic random-number helpers. All stochastic components in the
// repository draw from a Rng seeded explicitly, so every experiment is
// reproducible from its seed alone.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>

#include "dsp/types.hpp"

namespace datc::dsp {

/// MT19937-64 exactly as [rand.eng.mers] specifies std::mt19937_64: the
/// same seeding recurrence, twist and tempering, so the same outputs for
/// every seed on every standard library. The twist runs as one whole-block
/// pass every 312 draws (rng.cpp); a draw is a load plus tempering.
/// Models UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kStateSize) twist();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  void twist();

  std::array<result_type, kStateSize> state_;
  std::size_t index_;
};

/// One engine draw x as x * 2^-64, correctly rounded, clamped below 1:
/// libstdc++'s generate_canonical<double, 53> over a 64-bit engine. The
/// two 32-bit halves are exact doubles, so their sum rounds once and no
/// sign-bit branch is needed.
[[nodiscard]] inline Real unit_interval(std::uint64_t x) {
  const Real u = (static_cast<Real>(static_cast<std::uint32_t>(x >> 32)) *
                      0x1.0p32 +
                  static_cast<Real>(static_cast<std::uint32_t>(x))) *
                 0x1.0p-64;
  return std::min(u, 0x1.fffffffffffffp-1);  // nextafter(1, 0)
}

/// The repository's draw contract over Mt19937_64. Every mapping is
/// defined here, not by a standard-library distribution: uniform(),
/// uniform(lo, hi), chance() and gaussian() restate libstdc++'s
/// uniform_real / bernoulli / normal_distribution mappings bit for bit,
/// so seeds recorded before the engine moved in reproduce unchanged.
/// Only integer() still maps through std::uniform_int_distribution.
/// Copyable; copies continue the same stream independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1): unit_interval() of one draw.
  [[nodiscard]] Real uniform() { return unit_interval(engine_()); }

  /// Uniform in [lo, hi).
  [[nodiscard]] Real uniform(Real lo, Real hi) {
    return uniform() * (hi - lo) + lo;
  }

  /// Standard normal: libstdc++'s polar method on a fresh distribution,
  /// one value per accepted pair (the x half is discarded).
  [[nodiscard]] Real gaussian() {
    Real x;
    Real y;
    Real r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
      // datc-lint: allow(float-eq) — the exact rejection test of the
      // mapping this restates.
    } while (r2 > 1.0 || r2 == 0.0);
    const Real mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult + 0.0;  // + mean 0 turns -0 into +0, as libstdc++ does
  }

  /// Log-uniform in [lo, hi]; lo, hi must be positive.
  [[nodiscard]] Real log_uniform(Real lo, Real hi) {
    require(lo > 0.0 && hi >= lo, "Rng::log_uniform: need 0 < lo <= hi");
    const Real u = uniform(std::log(lo), std::log(hi));
    return std::exp(u);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t integer(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli with probability p: one uniform() draw, branch-free.
  [[nodiscard]] bool chance(Real p) { return uniform() < p; }

  /// Uniform in [0, 1) from the top 53 engine bits. This is the stream
  /// gaussian_bm()/fill_gaussian() consume; uniform() is a different
  /// mapping of the same engine.
  [[nodiscard]] Real canonical() {
    return static_cast<Real>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via the Marsaglia polar method over canonical(),
  /// with the usual one-value spare cache. This is the HOT-PATH gaussian
  /// stream: fill_gaussian() draws the exact same sequence in batches
  /// (SIMD log/sqrt tail), so per-call and batched consumers reproduce
  /// identically from a seed for any chunking. gaussian() is a separate
  /// stream.
  [[nodiscard]] Real gaussian_bm();

  /// Batched gaussian_bm(): fills `out` with the next out.size() values
  /// of that stream, vectorising the log/sqrt tail through the active
  /// simd backend (bit-identical across backends).
  void fill_gaussian(std::span<Real> out);

  /// Batched canonical(): the next out.size() values of that stream.
  void fill_uniform(std::span<Real> out);

  /// Derive an independent child stream (e.g. one per dataset pattern).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

 private:
  Mt19937_64 engine_;
  Real spare_{0.0};       ///< cached second polar variate
  bool has_spare_{false};
};

}  // namespace datc::dsp
