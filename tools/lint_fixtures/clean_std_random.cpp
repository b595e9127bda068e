// datc-lint-fixture: rule=none path=src/uwb/fixture_draws.cpp clean=std-random
// Clean fixture: draws through dsp::Rng, and near misses that must not
// fire — a repository type whose name ends in _distribution, a member
// of that name, and std:: spelled only in comments and strings
// ("std::normal_distribution" here is text, not code).
#include <cstdint>
#include <string>

#include "dsp/rng.hpp"

namespace datc::uwb {

struct delay_distribution {
  double mean_s{0.0};
};

struct FixtureLinkModel {
  delay_distribution exponential_distribution;
};

inline bool fixture_detect(datc::dsp::Rng& rng, double pd) {
  return rng.chance(pd);
}

inline std::string fixture_label() { return "std::mt19937_64"; }

}  // namespace datc::uwb
