#pragma once
// Rectification and envelope extraction. Muscle force is read out of sEMG
// as the Average Rectified Value (ARV) — the quantity the paper correlates
// reconstructed signals against (Fig. 3D).

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

/// Full-wave rectification |x|.
[[nodiscard]] std::vector<Real> rectify(std::span<const Real> x);

/// ARV envelope: centred moving average of |x| over `window_s` seconds.
/// Zero-lag so that correlations are not degraded by group delay.
[[nodiscard]] std::vector<Real> arv_envelope(std::span<const Real> x,
                                             Real fs_hz, Real window_s);

/// Converts a window duration to an odd sample count >= 1.
[[nodiscard]] std::size_t window_samples(Real fs_hz, Real window_s);

}  // namespace datc::dsp
