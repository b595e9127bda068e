#pragma once
// Incremental receiver-side ARV reconstruction with bounded memory and a
// fixed emission latency. This is the one rate-inversion implementation:
// batch = streaming whole-record (DatcReconstructor's default mode pushes
// the record, finishes it and drains it).
//
// The sliding rate window looks half a window into the future, and so
// does the centred moving average over the held-threshold trajectory.
// This class runs both with explicit state:
//
//   events ----> [vector, three cursors: rate lo / rate hi / vth hold]
//   vth[j] ----> [held-code and prefix-sum rings of ~two windows]
//   output[n] -> emitted once the event-time watermark passes
//                t_n + window/2 (every quantity of index n is then final)
//
// The caller advances a watermark promising that every event with an
// earlier timestamp has been pushed; finish() supplies the record
// duration and drains the tail (whose window truncation needs it). Until
// then a sample is emitted only if its smoothing window fits inside
// llround(watermark * fs), the least length the record can still have.
//
// Every output is the reference expression, in the reference order:
//
//   t = j / fs, w_eff = min(t + half, duration) - max(t - half, 0),
//   rate = count / max(w_eff, 1e-9), u = u_for_rate(rate),
//   arv = ((window sum / (2h + 1)) / u) * sqrt(2 / pi),
//
// so the output is bit-identical for any chunking and any SIMD backend.
// What differs is how much of it a sample pays for:
//
//  - Interior samples go through simd::recon_tail in blocks of up to a
//    window. One merge of the event times against the window edges gives
//    the per-sample changes of the window count; the kernel runs their
//    sum, and it appends the trajectory's prefix sums (P[j + h + 1] =
//    P[j + h] + vth[j + h]) from the ring of held DAC codes, so both add
//    chains run under its divisions. Only the lead P[1 .. 2h], which no
//    interior sample produces, is summed as the trajectory is extended.
//  - Most interior samples skip t = j / fs and the rate division too.
//    While t - half and t + half stay in t's binade, and half is not a
//    rounding tie at ulp(t), w_eff rounds to one width W for the whole
//    binade (rate_width_range), so the rate is count / W and u comes from
//    a dense table indexed by the count, filled as counts first appear.
//    A streaming round checks its samples against that index range with
//    an integer compare.
//  - The rest of the interior (samples within half a window of a power
//    of two, about 9 % of a 20 s record) computes w_eff and the rate and
//    reads u from a 512-slot memo keyed by the rate's bits.
//  - The record edges, where the smoothing window is clamped, and table
//    or memo misses take the scalar expression one sample at a time.

#include <cstdint>
#include <span>
#include <vector>

#include "core/events.hpp"
#include "core/reconstruct.hpp"

namespace datc::core {

/// A run of output samples whose rate windows all round to one width:
/// for every j in [lo, hi), t = (Real)j / fs gives (t + half) - (t -
/// half) == width exactly, both ends rounded as the reference rounds
/// them. Such a run is the part of one binade [2^e, 2^(e+1)) of t where
/// t - half >= 2^e and t + half <= 2^(e+1); there both sums round on the
/// binade's ulp grid, so their difference does not depend on t unless
/// half sits exactly halfway between two grid points (a rounding tie,
/// whose direction then follows t's parity): such a binade has no run.
struct RateWidthRange {
  std::size_t lo;
  std::size_t hi;
  Real width;
};

/// The first run with hi > j (lo may lie past j). Requires fs > 0 and
/// half > 0.
[[nodiscard]] RateWidthRange rate_width_range(std::size_t j, Real fs,
                                              Real half);

class StreamingDatcReconstructor {
 public:
  StreamingDatcReconstructor(const ReconstructionConfig& config,
                             CalibrationPtr calibration);

  /// Appends the next slice of decoded events (time-sorted continuation
  /// of the stream; may be empty).
  void push_events(std::span<const Event> events);

  /// Promise: every event with time_s < watermark has been pushed, and
  /// watermark does not exceed the final record duration. Emits every
  /// output sample that promise finalises.
  void advance_to(Real watermark);

  /// End of stream: fixes the output length at llround(duration_s *
  /// output_fs_hz) — exactly the batch grid — and emits the tail.
  void finish(Real duration_s);

  /// Moves the samples emitted since the last drain into `out` (an empty
  /// `out` takes over the buffer without a copy).
  void drain(std::vector<Real>& out);

  /// Output samples emitted so far (global count).
  [[nodiscard]] std::size_t emitted() const { return emit_n_; }
  /// Upper bound on emission latency behind the watermark, in seconds.
  [[nodiscard]] Real latency_s() const;
  /// Current working-set size — the bounded-memory claim, measurable.
  [[nodiscard]] std::size_t buffered_bytes() const;
  /// Samples emitted one at a time by the scalar path because their
  /// smoothing window is clamped by a record edge: at most 2h + 2 per
  /// stream whatever the event count, so it guards the block path without
  /// a timing gate. (Table and memo misses also run the scalar
  /// expression; they are not counted.)
  [[nodiscard]] std::size_t scalar_fallbacks() const { return fallbacks_; }

  [[nodiscard]] const ReconstructionConfig& config() const { return config_; }

 private:
  ReconstructionConfig config_;
  CalibrationPtr cal_;
  Real lsb_;
  std::size_t w_;  ///< smoothing window in output samples, >= 1
  std::size_t h_;  ///< half window (w_ / 2)
  Real half_fs_;   ///< half window in output samples (window_s / 2 * fs)

  std::vector<Event> ev_;       ///< retained events
  std::size_t ev_base_{0};      ///< global index of ev_[0]
  std::size_t ev_pushed_{0};    ///< global event count pushed so far
  std::size_t lo_{0};           ///< rate window [t_lo, ...) cursor
  std::size_t hi_{0};           ///< rate window [..., t_hi) cursor
  std::size_t vth_next_{0};     ///< vth hold cursor
  std::uint8_t held_code_;      ///< DAC code held; reset code (1) at first
  Real last_time_{0.0};         ///< sort check across push calls
  bool saw_event_{false};

  std::vector<Real> prefix_;    ///< ring: prefix sums of the vth samples
  std::vector<std::uint8_t> code_;  ///< ring: vth[j]'s code at P[j + 1]
  std::size_t vth_count_{0};    ///< vth samples computed so far

  std::vector<std::int32_t> cnt_;  ///< per-sample rate-window counts
  std::vector<std::uint64_t> memo_keys_;  ///< rate bits -> memo_u_ slot
  std::vector<Real> memo_u_;    ///< u_for_rate of memo_keys_

  /// The one-width run the emitter is in or before: samples [fast_lo_,
  /// fast_hi_) have rate-window width fast_width_. Recomputed once the
  /// emitter reaches fast_hi_; after finish() it ends where the duration
  /// starts truncating the window (dur_limit_).
  std::size_t fast_lo_{0};
  std::size_t fast_hi_{0};
  Real fast_width_{0.0};
  std::size_t dur_limit_;
  /// u_for_rate(count / fast_width_) by count, NaN until a sample of the
  /// run holds that count; it grows to the largest count seen and is
  /// reset when the width changes.
  std::vector<Real> u_by_count_;

  std::size_t emit_n_{0};       ///< next output index to emit
  std::size_t fallbacks_{0};    ///< edge samples emitted one at a time
  Real watermark_;
  bool finished_{false};
  std::size_t n_total_{0};      ///< valid once finished_
  Real duration_{0.0};          ///< valid once finished_
  std::vector<Real> out_buf_;   ///< emitted, not yet drained

  [[nodiscard]] Real prefix_at(std::size_t j) const {
    return prefix_[j % prefix_.size()];
  }
  [[nodiscard]] Real ev_time(std::size_t global) const {
    return ev_[global - ev_base_].time_s;
  }
  void pump();
  [[nodiscard]] std::size_t min_total() const;
  bool extend_vth_run();
  bool emit_run();
  void next_fast_range(std::size_t j);
  [[nodiscard]] std::int32_t window_counts(std::size_t n0, std::size_t r);
  void retire_events();
  [[nodiscard]] Real u_of_rate(Real rate);
};

}  // namespace datc::core
