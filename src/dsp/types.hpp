#pragma once
// Basic numeric types and the sampled-signal container shared by all
// datc libraries.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace datc::dsp {

/// Scalar type used for all signal processing. Double keeps the behavioural
/// models comfortably above the 16-step DAC quantisation noise floor.
using Real = double;

/// A uniformly sampled real-valued signal with an associated sample rate.
///
/// Invariant: sample_rate_hz > 0. Samples may be empty.
class TimeSeries {
 public:
  TimeSeries() = default;

  TimeSeries(std::vector<Real> samples, Real sample_rate_hz)
      : samples_(std::move(samples)), sample_rate_hz_(sample_rate_hz) {
    if (sample_rate_hz_ <= 0.0) {
      throw std::invalid_argument("TimeSeries: sample rate must be positive");
    }
  }

  [[nodiscard]] const std::vector<Real>& samples() const { return samples_; }
  [[nodiscard]] std::vector<Real>& samples() { return samples_; }
  [[nodiscard]] Real sample_rate_hz() const { return sample_rate_hz_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] Real duration_s() const {
    return static_cast<Real>(samples_.size()) / sample_rate_hz_;
  }

  [[nodiscard]] Real operator[](std::size_t i) const { return samples_[i]; }
  [[nodiscard]] Real& operator[](std::size_t i) { return samples_[i]; }

  /// Time (seconds) of sample index i.
  [[nodiscard]] Real time_of(std::size_t i) const {
    return static_cast<Real>(i) / sample_rate_hz_;
  }

  /// Linear interpolation of the signal at an arbitrary time. Times outside
  /// the record clamp to the first/last sample (signals are held at their
  /// boundary values, which is what a sample-and-hold front end would see).
  [[nodiscard]] Real at_time(Real t_s) const {
    if (samples_.empty()) {
      throw std::logic_error("TimeSeries::at_time on empty signal");
    }
    const Real pos = t_s * sample_rate_hz_;
    if (pos <= 0.0) return samples_.front();
    const auto last = static_cast<Real>(samples_.size() - 1);
    if (pos >= last) return samples_.back();
    const auto i0 = static_cast<std::size_t>(pos);
    const Real frac = pos - static_cast<Real>(i0);
    return samples_[i0] + frac * (samples_[i0 + 1] - samples_[i0]);
  }

  [[nodiscard]] std::span<const Real> view() const { return samples_; }

 private:
  std::vector<Real> samples_;
  Real sample_rate_hz_{1.0};
};

/// Throws std::invalid_argument carrying `what` when `ok` is false.
/// Used to validate public-API preconditions. The message string is
/// built only on failure, so a passing check with a literal message
/// allocates nothing. A composed message ("..." + std::to_string(i))
/// still converts, but the caller builds it before every check; on hot
/// paths write `if (!ok) throw ...` instead.
inline void require(bool ok, std::string_view what) {
  if (!ok) [[unlikely]] throw std::invalid_argument(std::string(what));
}

}  // namespace datc::dsp
