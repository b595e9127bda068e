#pragma once
// Welch power-spectral-density estimation and window functions, used for
// the FCC emission-mask check on the IR-UWB pulse train and for spectrum
// sanity tests on the synthetic sEMG.

#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

enum class WindowKind { kRect, kHann, kHamming, kBlackman };

/// Window of length n (n >= 1), periodic form (suitable for spectral
/// averaging).
[[nodiscard]] std::vector<Real> make_window(WindowKind kind, std::size_t n);

struct PsdEstimate {
  std::vector<Real> freq_hz;     ///< bin centre frequencies, 0 .. fs/2
  std::vector<Real> psd_v2_hz;   ///< one-sided PSD, V^2/Hz
};

/// Welch PSD with `segment` samples per segment (rounded up to a power of
/// two), 50 % overlap and the given window.
[[nodiscard]] PsdEstimate welch_psd(std::span<const Real> x, Real fs_hz,
                                    std::size_t segment,
                                    WindowKind window = WindowKind::kHann);

}  // namespace datc::dsp
