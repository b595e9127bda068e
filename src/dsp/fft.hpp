#pragma once
// Minimal radix-2 FFT, sufficient for the Welch PSD estimates used to
// check the IR-UWB pulse train against the FCC -41.3 dBm/MHz mask and to
// characterise the synthetic sEMG spectrum.

#include <complex>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace datc::dsp {

using Complex = std::complex<Real>;

/// In-place iterative radix-2 decimation-in-time FFT.
/// x.size() must be a power of two (>= 1).
void fft_inplace(std::vector<Complex>& x);

/// FFT of a real signal, zero-padded up to the next power of two.
/// Returns the full complex spectrum of the padded length.
[[nodiscard]] std::vector<Complex> fft_real(std::span<const Real> x);

/// O(N^2) reference DFT used to validate the FFT in tests.
[[nodiscard]] std::vector<Complex> dft_reference(std::span<const Complex> x);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

}  // namespace datc::dsp
