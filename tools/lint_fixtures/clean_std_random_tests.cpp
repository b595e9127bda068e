// datc-lint-fixture: rule=none path=tests/dsp_rng_fixture_test.cpp clean=std-random
// Clean fixture: tests sit outside src/, so they may hold the library
// engine and distributions up as the reference the contract matches.
#include <cstdint>
#include <random>

inline bool fixture_same_draw(std::uint64_t seed) {
  std::mt19937_64 ref(seed);
  std::mt19937_64 other(seed);
  return std::bernoulli_distribution(0.5)(ref) ==
         std::bernoulli_distribution(0.5)(other);
}
