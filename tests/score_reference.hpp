#pragma once
// Test-only reference for truth-vs-envelope scoring: the original bodies,
// kept verbatim in expression order so the library's one scorer
// (emg::score_against over dsp::arv_envelope and dsp::pearson_many) is
// checked against independent code rather than against itself.
//
//   truth    = centred moving average of |x| (a rectified copy, then
//              prefix sums, then a clamped division per sample)
//   score    = 100 * pearson(truth[:n], env[:n]), n = min of the lengths,
//              pearson with one loop per mean and then the moments

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "dsp/envelope.hpp"
#include "dsp/types.hpp"

namespace datc::oracle {

using dsp::Real;

inline std::vector<Real> reference_rectify(std::span<const Real> x) {
  std::vector<Real> y(x.size());
  std::transform(x.begin(), x.end(), y.begin(),
                 [](Real v) { return std::abs(v); });
  return y;
}

inline std::vector<Real> reference_centered_moving_average(
    std::span<const Real> x, std::size_t window) {
  dsp::require(window >= 1, "centered_moving_average: window must be >= 1");
  std::vector<Real> y(x.size());
  if (x.empty()) return y;
  std::vector<Real> prefix(x.size() + 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) prefix[i + 1] = prefix[i] + x[i];
  const std::size_t h = window / 2;
  for (std::size_t n = 0; n < x.size(); ++n) {
    const std::size_t lo = n >= h ? n - h : 0;
    const std::size_t hi = std::min(n + h, x.size() - 1);
    y[n] = (prefix[hi + 1] - prefix[lo]) / static_cast<Real>(hi - lo + 1);
  }
  return y;
}

inline std::vector<Real> reference_arv_envelope(std::span<const Real> x,
                                                Real fs_hz, Real window_s) {
  const auto rect = reference_rectify(x);
  return reference_centered_moving_average(
      rect, dsp::window_samples(fs_hz, window_s));
}

inline Real reference_mean(std::span<const Real> x) {
  if (x.empty()) return 0.0;
  Real acc = 0.0;
  for (const Real v : x) acc += v;
  return acc / static_cast<Real>(x.size());
}

inline Real reference_pearson(std::span<const Real> a,
                              std::span<const Real> b) {
  dsp::require(a.size() == b.size(), "pearson: size mismatch");
  dsp::require(a.size() >= 2, "pearson: need at least 2 samples");
  const Real ma = reference_mean(a);
  const Real mb = reference_mean(b);
  Real sab = 0.0;
  Real saa = 0.0;
  Real sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Real da = a[i] - ma;
    const Real db = b[i] - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

/// The hand-rolled call-site form: truth, min(n), correlation_percent.
inline Real reference_score(std::span<const Real> truth,
                            std::span<const Real> env) {
  const std::size_t n = std::min(truth.size(), env.size());
  return 100.0 * reference_pearson(truth.first(n), env.first(n));
}

}  // namespace datc::oracle
