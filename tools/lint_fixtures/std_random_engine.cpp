// datc-lint-fixture: rule=std-random path=src/emg/fixture_noise.cpp
// Violating fixture: a library engine and distributions drawn outside
// dsp::Rng. The standard leaves each distribution's mapping to the
// implementation, so these samples would differ between libstdc++,
// libc++ and MSVC from the same seed.
#include <cstdint>
#include <random>
#include <vector>

namespace datc::emg {

inline std::vector<double> fixture_noise(std::uint64_t seed, int n) {
  std::mt19937_64 gen(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (auto& v : out) v = normal(gen);
  out.push_back(std::generate_canonical<double, 53>(gen));
  return out;
}

}  // namespace datc::emg
