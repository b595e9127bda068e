#pragma once
// Receiver-side force reconstruction. The laptop at the RX windows the
// received events ("a low-complexity windowing can be applied to recover
// the transmitted force information") and, for D-ATC, combines the event
// rate with the transmitted threshold level to invert the crossing-rate
// statistics into an ARV-envelope estimate.
//
// The RateCalibration is expensive to build (one Monte Carlo run), so the
// reconstructors borrow it via shared_ptr — dataset sweeps construct it
// once per counting rate.

#include <memory>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "core/rate_calibration.hpp"
#include "dsp/types.hpp"

namespace datc::core {

/// Bit-exact envelope comparison — the one definition of "parity" shared
/// by the streaming==batch checks (sim/stream_parity) and the store's
/// record->replay gate, so the two cannot drift.
struct EnvelopeParity {
  bool equal{false};
  std::size_t samples{0};    ///< reference length
  Real max_abs_diff{0.0};    ///< infinity on a length mismatch
};

[[nodiscard]] EnvelopeParity compare_envelopes(
    std::span<const Real> reference, std::span<const Real> candidate);

struct ReconstructionConfig {
  Real window_s{0.25};        ///< sliding event-count window
  Real output_fs_hz{2500.0};  ///< grid of the reconstructed envelope
  Real dac_vref{1.0};
  unsigned dac_bits{4};
  // The DTC's interval-table span (must match the transmitter; Eqn. 2).
  Real duty_lo{0.03};
  Real duty_hi{0.48};
  unsigned min_code{1};       ///< Listing 1's code floor
};

/// Shared implementation: event-rate estimation on a regular grid.
[[nodiscard]] std::vector<Real> event_rate_estimate(const EventStream& events,
                                                    Real duration_s,
                                                    Real window_s,
                                                    Real output_fs_hz);

using CalibrationPtr = std::shared_ptr<const RateCalibration>;

/// How the receiver turns ATC event rates into a force estimate.
enum class AtcDecodeMode {
  /// The paper's baseline (refs [9],[10]): the windowed pulse rate *is*
  /// the force readout ("the average number of radiated pulses is
  /// demonstrated to be proportional to the applied muscle force").
  kLinearRate,
  /// Beyond-paper decoder: invert the crossing-rate statistics through
  /// the known fixed threshold (same machinery D-ATC uses). Documented
  /// as an extension ablation in EXPERIMENTS.md.
  kRiceInversion,
};

/// Reconstructs the ARV envelope from fixed-threshold ATC events. The
/// receiver knows the fixed Vth; where the event rate carries no
/// information (signal below threshold) the estimate saturates — the
/// blindness the paper attributes to ATC.
class AtcReconstructor {
 public:
  AtcReconstructor(Real threshold_v, ReconstructionConfig config,
                   CalibrationPtr calibration,
                   AtcDecodeMode mode = AtcDecodeMode::kLinearRate);

  [[nodiscard]] std::vector<Real> reconstruct(const EventStream& events,
                                              Real duration_s) const;

  [[nodiscard]] const RateCalibration& calibration() const { return *cal_; }

 private:
  Real threshold_v_;
  ReconstructionConfig config_;
  CalibrationPtr cal_;
  AtcDecodeMode mode_;
};

/// How the receiver decodes D-ATC events into a force estimate.
enum class DatcDecodeMode {
  /// Invert the crossing-rate curve at the (window-averaged) transmitted
  /// threshold voltage. Default — the best performer across the dataset
  /// (see bench_ablation_weights).
  kRateInversion,
  /// Exploit the DTC feedback law itself: a transmitted code k means the
  /// weighted comparator duty (Eqn. 1) measured at the preceding
  /// thresholds sat inside interval k of the Eqn-2 table, which pins
  /// sigma. Falls back to rate inversion at the code floor (signal below
  /// the lowest threshold). Stronger when the level limit-cycles, weaker
  /// in steady tracking; kept as an ablation.
  kCodeDuty,
};

/// Reconstructs the ARV envelope from D-ATC events: the threshold level
/// travels with every event, so the inversion always operates in its
/// well-conditioned region regardless of the signal amplitude.
///
/// Batch = streaming whole-record: rate inversion runs the one
/// implementation, StreamingDatcReconstructor (core/streaming_reconstruct),
/// over the record as a single chunk, so batch and every chunking are the
/// same code and the same bits. kCodeDuty takes its rate arm from there.
class DatcReconstructor {
 public:
  DatcReconstructor(ReconstructionConfig config, CalibrationPtr calibration,
                    DatcDecodeMode mode = DatcDecodeMode::kRateInversion);

  [[nodiscard]] std::vector<Real> reconstruct(const EventStream& events,
                                              Real duration_s) const;

  [[nodiscard]] const RateCalibration& calibration() const { return *cal_; }

 private:
  ReconstructionConfig config_;
  CalibrationPtr cal_;
  DatcDecodeMode mode_;

  [[nodiscard]] std::vector<Real> code_trajectory(const EventStream& events,
                                                  Real duration_s) const;

  /// Midpoint of the Eqn-2 duty interval that code `c` testifies to. The
  /// floor interval (c <= min_code) is one-sided — the signal may sit far
  /// below the lowest threshold — so its representative duty is half the
  /// interval's upper edge, not the two-sided midpoint. Used both for the
  /// per-event inversion and for seeding the pre-first-event hold so the
  /// silent leading segment is unbiased.
  [[nodiscard]] Real duty_mid_of_code(unsigned c) const;
};

}  // namespace datc::core
