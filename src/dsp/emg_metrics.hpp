#pragma once
// Classical sEMG spectral metrics: median/mean frequency (the standard
// fatigue indicators) and a Goertzel single-bin DFT used to measure
// powerline contamination. These support the fatigue-robustness
// experiments: D-ATC must keep tracking force while the sEMG spectrum
// compresses.

#include <span>

#include "dsp/spectral.hpp"
#include "dsp/types.hpp"

namespace datc::dsp {

/// Median frequency: the frequency splitting the PSD into equal halves.
[[nodiscard]] Real median_frequency_hz(const PsdEstimate& psd);

/// Mean (centroid) frequency of the PSD.
[[nodiscard]] Real mean_frequency_hz(const PsdEstimate& psd);

/// Convenience: Welch PSD + median frequency of a record.
[[nodiscard]] Real median_frequency_hz(std::span<const Real> x, Real fs_hz,
                                       std::size_t segment = 1024);

}  // namespace datc::dsp
