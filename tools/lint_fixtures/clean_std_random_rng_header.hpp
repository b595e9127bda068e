// datc-lint-fixture: rule=none path=src/dsp/rng.hpp clean=std-random
// Clean fixture: dsp/rng.hpp owns the draw contract, so the one std
// distribution it still maps integers through is legal there.
#pragma once

#include <cstdint>
#include <random>

namespace datc::dsp {

template <typename Engine>
std::uint64_t fixture_integer(Engine& engine, std::uint64_t lo,
                              std::uint64_t hi) {
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine);
}

}  // namespace datc::dsp
