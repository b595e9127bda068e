#include "core/reconstruct.hpp"
#include "core/streaming_reconstruct.hpp"
#include "dsp/types.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace datc::core {

namespace {
/// ARV of a zero-mean Gaussian with RMS sigma (same constant as the batch
/// reconstructor).
constexpr Real kArvOfSigma = 0.7978845608028654;  // sqrt(2/pi)

/// Smallest j in [begin, end] with pred(j) true (end when none), pred
/// monotone in j. Each predicate below compares (Real)j / fs (+- half)
/// with a time, so it turns true at the first integer above X = that time
/// (-+ half) * fs; `guess` is X in floating point. Roundings move X by a
/// few ulps of X + half_fs + 1, 10^6 below `margin`, so away from an
/// integer the answer is floor(X) + 1 with no division; near one (an
/// event on a grid edge) the exact predicate walks from the guess.
template <class Pred>
std::size_t first_true(std::size_t begin, std::size_t end, Real guess,
                       Real half_fs, Pred&& pred) {
  if (guess >= static_cast<Real>(begin) && guess < static_cast<Real>(end)) {
    const auto floor = static_cast<std::size_t>(guess);  // guess >= 0
    const Real below = static_cast<Real>(floor);
    const Real margin = 1e-9 * (guess + half_fs + 1.0);
    if (guess - below > margin && below + 1.0 - guess > margin) {
      return floor + 1;
    }
  }
  std::size_t g = begin;
  if (guess > static_cast<Real>(begin)) {
    g = guess < static_cast<Real>(end) ? static_cast<std::size_t>(guess)
                                       : end;
  }
  if (g < end && !pred(g)) {
    do {
      ++g;
    } while (g < end && !pred(g));
    return g;
  }
  while (g > begin && pred(g - 1)) --g;
  return g;
}
}  // namespace

StreamingDatcReconstructor::StreamingDatcReconstructor(
    const ReconstructionConfig& config, CalibrationPtr calibration)
    : config_(config),
      cal_(std::move(calibration)),
      lsb_(config.dac_vref / static_cast<Real>(1u << config.dac_bits)),
      watermark_(-std::numeric_limits<Real>::infinity()) {
  dsp::require(cal_ != nullptr, "StreamingDatcReconstructor: null calibration");
  dsp::require(config_.window_s > 0.0 && config_.output_fs_hz > 0.0,
               "StreamingDatcReconstructor: parameters must be positive");
  w_ = std::max<std::size_t>(
      static_cast<std::size_t>(
          std::llround(config_.window_s * config_.output_fs_hz)),
      1);
  h_ = w_ / 2;
  half_fs_ = config_.window_s / 2.0 * config_.output_fs_hz;
  // The trajectory runs at most h + w samples ahead of the emitter, so
  // the live prefix span P[emit - h] .. P[vth_count] is at most 2w + 2
  // entries and one emit block spans up to a window.
  prefix_.assign(2 * w_ + 4, 0.0);  // P[0] = 0
  code_.assign(prefix_.size(), 0);
  memo_keys_.assign(simd::kRateMemoSlots, simd::kRateMemoEmpty);
  memo_u_.assign(simd::kRateMemoSlots, 0.0);
  // Until the first event arrives the receiver assumes the reset code (1).
  held_code_ = 1;
}

Real StreamingDatcReconstructor::latency_s() const {
  return config_.window_s / 2.0 + 1.0 / config_.output_fs_hz;
}

std::size_t StreamingDatcReconstructor::buffered_bytes() const {
  return ev_.capacity() * sizeof(Event) +
         (prefix_.capacity() + memo_u_.capacity() + out_buf_.capacity()) *
             sizeof(Real) +
         code_.capacity() +
         cnt_.capacity() * sizeof(std::int32_t) +
         memo_keys_.capacity() * sizeof(std::uint64_t);
}

void StreamingDatcReconstructor::push_events(std::span<const Event> events) {
  dsp::require(!finished_,
               "StreamingDatcReconstructor: push_events after finish");
  bool sorted = true;
  for (const Event& e : events) {
    sorted = sorted && (!saw_event_ || e.time_s >= last_time_);
    saw_event_ = true;
    last_time_ = e.time_s;
  }
  dsp::require(sorted,
               "StreamingDatcReconstructor: events must be time sorted");
  ev_.insert(ev_.end(), events.begin(), events.end());
  ev_pushed_ += events.size();
}

/// Drops the events no cursor can revisit. The dead prefix is erased once
/// it is as long as the live part, so each event moves O(1) times and at
/// most twice the live events are held.
void StreamingDatcReconstructor::retire_events() {
  const std::size_t dead = std::min(lo_, vth_next_) - ev_base_;
  if (dead == 0 || 2 * dead < ev_.size()) return;
  ev_.erase(ev_.begin(), ev_.begin() + static_cast<std::ptrdiff_t>(dead));
  ev_base_ += dead;
}

void StreamingDatcReconstructor::advance_to(Real watermark) {
  dsp::require(!finished_,
               "StreamingDatcReconstructor: advance_to after finish");
  watermark_ = std::max(watermark_, watermark);
  pump();
}

void StreamingDatcReconstructor::finish(Real duration_s) {
  dsp::require(duration_s > 0.0,
               "StreamingDatcReconstructor: duration must be positive");
  if (finished_) return;
  finished_ = true;
  duration_ = duration_s;
  n_total_ = static_cast<std::size_t>(
      std::llround(duration_s * config_.output_fs_hz));
  if (n_total_ > emit_n_) {
    out_buf_.reserve(out_buf_.size() + (n_total_ - emit_n_));
  }
  watermark_ = std::numeric_limits<Real>::infinity();
  pump();
}

void StreamingDatcReconstructor::drain(std::vector<Real>& out) {
  if (out.empty()) {
    out.swap(out_buf_);
  } else {
    out.insert(out.end(), out_buf_.begin(), out_buf_.end());
  }
  out_buf_.clear();
}

/// Least output length the record can still have: llround is monotone
/// and the watermark never exceeds the duration. A sample whose smoothing
/// window reaches this far is unclamped whatever the final length is.
std::size_t StreamingDatcReconstructor::min_total() const {
  if (finished_) return n_total_;
  if (!(watermark_ > 0.0)) return 0;
  return static_cast<std::size_t>(
      std::llround(watermark_ * config_.output_fs_hz));
}

/// Extends the vth trajectory up to h + w samples past the emitter: the
/// held DAC code of sample j goes to code_ at P[j + 1]'s ring slot, as
/// one fill per event-free stretch. The prefix sums themselves are
/// appended by recon_tail as it emits (P[j + h + 1] for interior sample
/// j); only the lead P[1 .. 2h], which no interior sample produces and the
/// left-edge samples read, is summed here.
bool StreamingDatcReconstructor::extend_vth_run() {
  const Real fs = config_.output_fs_hz;
  std::size_t max_count = emit_n_ + h_ + w_ + 1;  // ring bound
  if (finished_) {
    max_count = std::min(max_count, n_total_);
  } else if (vth_count_ < max_count) {
    // Events at t_j are final only once the watermark passes t_j.
    max_count = first_true(vth_count_, max_count, watermark_ * fs, half_fs_,
                           [&](std::size_t j) {
                             return !(static_cast<Real>(j) / fs < watermark_);
                           });
  }
  if (vth_count_ >= max_count) return false;
  const std::size_t ring = prefix_.size();
  while (vth_count_ < max_count) {
    const Real t = static_cast<Real>(vth_count_) / fs;
    while (vth_next_ < ev_pushed_ && ev_time(vth_next_) <= t) {
      held_code_ = ev_[vth_next_ - ev_base_].vth_code;
      ++vth_next_;
    }
    // Every j below the next retained event's instant holds the same
    // code (j = vth_count_ itself: its events were just consumed).
    std::size_t stop = max_count;
    if (vth_next_ < ev_pushed_) {
      const Real t_next = ev_time(vth_next_);
      stop = first_true(vth_count_ + 1, max_count, t_next * fs, half_fs_,
                        [&](std::size_t j) {
                          return t_next <= static_cast<Real>(j) / fs;
                        });
    }
    // Lead: P[j + 1] for j < 2h (j + 1 < ring, so no wrap).
    if (vth_count_ < 2 * h_) {
      const Real held = lsb_ * static_cast<Real>(held_code_);
      Real p = prefix_[vth_count_];
      for (std::size_t j = vth_count_; j < std::min(stop, 2 * h_); ++j) {
        p += held;
        prefix_[j + 1] = p;
      }
    }
    // Codes of j = vth_count_ .. stop - 1 at slots j + 1, wrapping.
    const std::size_t slot = (vth_count_ + 1) % ring;
    const std::size_t len = stop - vth_count_;
    const std::size_t first = std::min(len, ring - slot);
    std::fill_n(code_.begin() + slot, first, held_code_);
    std::fill_n(code_.begin(), len - first, held_code_);
    vth_count_ = stop;
  }
  return true;
}

/// Emits every final sample as one block. Interior samples go through
/// simd::recon_tail; the record edges, whose smoothing window is clamped,
/// and memo misses take the scalar expression one sample at a time.
bool StreamingDatcReconstructor::emit_run() {
  // Sample j is final once the trajectory through its last smoothing
  // sample min(j + h, N - 1) exists; before finish, j + h must also lie
  // inside any length the record can still have, and the watermark must
  // pass t_hi(j) (the rate window needs every event below it).
  const std::size_t total = min_total();
  std::size_t end = total;
  if (!finished_ || vth_count_ < n_total_) {
    const std::size_t ready = std::min(vth_count_, total);
    end = ready > h_ ? ready - h_ : 0;
  }
  const Real fs = config_.output_fs_hz;
  const Real half = config_.window_s / 2.0;
  if (!finished_ && emit_n_ < end) {
    end = first_true(emit_n_, end, (watermark_ - half) * fs, half_fs_,
                     [&](std::size_t j) {
                       return !(watermark_ >=
                                static_cast<Real>(j) / fs + half);
                     });
  }
  if (end <= emit_n_) return false;

  const std::size_t n0 = emit_n_;
  const std::size_t r = end - n0;
  window_counts(n0, r);
  const std::size_t base = out_buf_.size();
  out_buf_.resize(base + r);
  Real* out = out_buf_.data() + base;
  simd::ReconTailArgs args{
      n0,
      0.0,
      lsb_,
      fs,
      half,
      finished_ ? duration_ : std::numeric_limits<Real>::infinity(),
      static_cast<Real>(2 * h_ + 1),
      kArvOfSigma,
      memo_keys_.data(),
      memo_u_.data()};
  // The scalar expression for sample n0 + i, smoothing window clamped to
  // the record (a no-op in the interior).
  auto scalar_at = [&](std::size_t i) {
    const std::size_t j = n0 + i;
    const std::size_t ma_lo = j >= h_ ? j - h_ : 0;
    const std::size_t ma_hi =
        finished_ ? std::min(j + h_, n_total_ - 1) : j + h_;
    simd::ReconTailArgs at = args;
    at.count = static_cast<Real>(ma_hi - ma_lo + 1);
    const Real rate =
        simd::recon_rate_at(at, j, static_cast<Real>(cnt_[i]));
    return simd::recon_arv(
        at, prefix_at(ma_hi + 1) - prefix_at(ma_lo), u_of_rate(rate));
  };
  const std::size_t interior_end =
      finished_ ? (n_total_ > h_ ? n_total_ - h_ : 0) : end;
  const auto& kt = simd::kernels();
  const std::size_t ring = prefix_.size();
  std::size_t off = 0;
  while (off < r) {
    const std::size_t j = n0 + off;
    if (j < h_ || j >= interior_end) {
      out[off] = scalar_at(off);
      ++fallbacks_;
      ++off;
      continue;
    }
    // Window sums P[j + h + 1] - P[j - h], the kernel appending P[j + h +
    // 1] from code_ (same slot): both index runs are contiguous in the
    // ring up to the next wrap point.
    const std::size_t ih = (j + h_ + 1) % ring;
    const std::size_t il = (j - h_) % ring;
    const std::size_t seg =
        std::min({std::min(end, interior_end) - j, ring - ih, ring - il});
    args.j0 = j;
    args.p_prev = prefix_at(j + h_);
    const std::size_t done = kt.recon_tail(
        args, cnt_.data() + off, code_.data() + ih, prefix_.data() + ih,
        prefix_.data() + il, out + off, seg);
    off += done;
    if (done < seg) {
      // Memo miss: the kernel appended this sample's P; the scalar
      // expression fills the memo.
      out[off] = scalar_at(off);
      ++off;
    }
  }
  emit_n_ = end;
  retire_events();
  return true;
}

/// Rate-window event counts of samples n0 .. n0 + r - 1 into cnt_, from
/// one merge of the event times against the window edges: event hi_
/// enters at the first j with t < t_hi(j), event lo_ leaves at the first
/// j with t < t_lo(j). Each transition drops a +-1; a running sum gives
/// the counts and leaves the cursors at sample n0 + r - 1's state.
void StreamingDatcReconstructor::window_counts(std::size_t n0,
                                               std::size_t r) {
  const Real fs = config_.output_fs_hz;
  const Real half = config_.window_s / 2.0;
  const std::size_t end = n0 + r;
  if (cnt_.size() < r) cnt_.resize(r);
  std::int32_t* d = cnt_.data();
  std::fill(d, d + r, 0);
  auto count = static_cast<std::int32_t>(hi_ - lo_);
  // An event enters no later than it leaves (t_lo(j) <= t_hi(j)), so
  // every event leaving inside the block was counted in when it entered.
  for (; hi_ < ev_pushed_; ++hi_) {
    const Real te = ev_time(hi_);
    const std::size_t k =
        first_true(n0, end, (te - half) * fs, half_fs_, [&](std::size_t j) {
          return te < static_cast<Real>(j) / fs + half;
        });
    if (k == end) break;
    ++d[k - n0];
  }
  for (; lo_ < ev_pushed_; ++lo_) {
    const Real te = ev_time(lo_);
    const std::size_t k =
        first_true(n0, end, (te + half) * fs, half_fs_, [&](std::size_t j) {
          return te < static_cast<Real>(j) / fs - half;
        });
    if (k == end) break;
    --d[k - n0];
  }
  for (std::size_t i = 0; i < r; ++i) {
    count += d[i];
    d[i] = count;
  }
}

/// Calibration inverse through the memo (u_for_rate is a pure function
/// of its argument, so a hit returns the identical value).
Real StreamingDatcReconstructor::u_of_rate(Real rate) {
  const auto key = std::bit_cast<std::uint64_t>(rate);
  const std::size_t slot = simd::rate_memo_slot(key);
  if (memo_keys_[slot] != key) {
    memo_keys_[slot] = key;
    memo_u_[slot] = cal_->u_for_rate(rate);
  }
  return memo_u_[slot];
}

void StreamingDatcReconstructor::pump() {
  bool progressed = true;
  while (progressed) {
    progressed = extend_vth_run();
    progressed = emit_run() || progressed;
  }
}

}  // namespace datc::core
