#include "dsp/rng.hpp"

namespace datc::dsp {
namespace {

constexpr std::size_t kN = Mt19937_64::kStateSize;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of `hi` joined to the lower 31 of `lo`,
/// shifted, conditionally xored with A (branch-free), onto `far`.
inline std::uint64_t twisted(std::uint64_t hi, std::uint64_t lo,
                             std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : index_(kN) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

// The three index segments of x[k] = x[(k + m) % n] ^ twist(x[k],
// x[(k + 1) % n]), written without `%` so each loop vectorises.
void Mt19937_64::twist() {
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = twisted(x[k], x[k + 1], x[k + kM - kN]);
  }
  x[kN - 1] = twisted(x[kN - 1], x[0], x[kM - 1]);
  index_ = 0;
}

}  // namespace datc::dsp
