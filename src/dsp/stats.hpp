#pragma once
// Descriptive statistics and similarity metrics. The paper's headline
// figure of merit is the Pearson correlation (×100 %) between the
// reconstructed envelope at the receiver and the original ARV envelope.

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] Real mean(std::span<const Real> x);

/// Population variance (divide by N); 0 for spans shorter than 1.
[[nodiscard]] Real variance(std::span<const Real> x);

/// Population standard deviation.
[[nodiscard]] Real std_dev(std::span<const Real> x);

/// Root mean square.
[[nodiscard]] Real rms(std::span<const Real> x);

/// Minimum value; throws on empty input.
[[nodiscard]] Real min_value(std::span<const Real> x);

/// Maximum value; throws on empty input.
[[nodiscard]] Real max_value(std::span<const Real> x);

/// Linear-interpolated percentile, p in [0, 100]; throws on empty input.
[[nodiscard]] Real percentile(std::span<const Real> x, Real p);

/// Pearson correlation coefficient in [-1, 1]. Inputs must be the same
/// length and at least 2 samples. If either input is constant the
/// correlation is defined here as 0 (no linear relation recoverable).
[[nodiscard]] Real pearson(std::span<const Real> a, std::span<const Real> b);

/// pearson(a[:n], b) with n = b.size(), for every b in `bs` (each b no
/// longer than `a`), into out[k]. Two neighbouring series of one length
/// share one means loop and one moments loop, so mean(a[:n]) and its sum
/// of squares are computed once for the pair. Each sum is the same
/// sequential add chain as in pearson, so the bits are pearson's: the
/// chains only run side by side instead of back to back.
void pearson_many(std::span<const Real> a,
                  std::span<const std::span<const Real>> bs,
                  std::span<Real> out);

/// The paper's metric: 100 * pearson(a, b).
[[nodiscard]] Real correlation_percent(std::span<const Real> a,
                                       std::span<const Real> b);

/// Upper-tail probability Q(x) of the standard normal.
[[nodiscard]] Real normal_q(Real x);

/// Inverse of normal_q (bisection; p in (0,1)).
[[nodiscard]] Real normal_q_inv(Real p);

/// Summary of a sample set, used by the Fig. 5 dataset experiment.
struct Summary {
  Real min{};
  Real max{};
  Real mean{};
  Real std_dev{};
  Real p05{};  ///< 5th percentile
  Real p50{};  ///< median
  Real p95{};  ///< 95th percentile
};

[[nodiscard]] Summary summarize(std::span<const Real> x);

}  // namespace datc::dsp
