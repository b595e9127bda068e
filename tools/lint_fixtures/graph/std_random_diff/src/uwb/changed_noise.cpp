// Changed against the base: its std-random finding is in scope.
#include <random>

double fixture_changed_noise(std::mt19937_64& gen) {
  return std::normal_distribution<double>(0.0, 1.0)(gen);
}
