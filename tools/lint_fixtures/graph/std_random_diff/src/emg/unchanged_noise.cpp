// Unchanged against the base: its std-random finding is out of scope.
#include <random>

double fixture_unchanged_noise(unsigned long seed) {
  std::mt19937_64 gen(seed);
  return std::generate_canonical<double, 53>(gen);
}
