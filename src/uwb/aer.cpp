#include "dsp/types.hpp"
#include "uwb/aer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace datc::uwb {

namespace {

/// Drops the consumed prefix [0, head) once it is at least half the
/// buffer: amortised O(1) moves per element.
void reclaim(std::vector<core::Event>& buf, std::size_t& head) {
  if (head > 0 && 2 * head >= buf.size()) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

}  // namespace

AerArbiter::AerArbiter(const AerConfig& config, std::size_t num_channels)
    : config_(config), queues_(num_channels) {
  // core::Event::channel is 16 bits wide; a larger address space would
  // truncate addresses on tagging and alias high channels onto low ones.
  dsp::require(config_.address_bits <= 16,
               "AerArbiter: address space wider than Event::channel");
  dsp::require(num_channels <= (std::size_t{1} << config_.address_bits),
               "AerArbiter: more channels than the address space");
  dsp::require(config_.min_spacing_s >= 0.0 && config_.max_queue_delay_s >= 0.0,
               "AerArbiter: timing parameters must be non-negative");
  heap_.reserve(num_channels);
}

void AerArbiter::push(std::size_t channel,
                      std::span<const core::Event> events) {
  dsp::require(channel < queues_.size(), "AerArbiter::push: no such channel");
  if (events.empty()) return;
  Queue& q = queues_[channel];
  for (const auto& e : events) {
    dsp::require(e.time_s >= q.last_time,
                 "AerArbiter::push: events out of time order");
    q.last_time = e.time_s;
  }
  const bool was_empty = q.head == q.events.size();
  reclaim(q.events, q.head);
  q.events.insert(q.events.end(), events.begin(), events.end());
  if (was_empty) {
    heap_.push_back(Front{q.events[q.head].time_s,
                          static_cast<std::uint32_t>(channel)});
    sift_up(heap_.size() - 1);
  }
}

void AerArbiter::pop_below(Real watermark, core::EventStream& out) {
  // An event at or beyond the watermark may still be preceded by a
  // future event of another (currently drained) channel: it waits.
  while (!heap_.empty() && heap_.front().time_s < watermark) {
    const std::uint32_t c = heap_.front().channel;
    Queue& q = queues_[c];
    const core::Event e = q.events[q.head++];
    if (q.head < q.events.size()) {
      heap_.front().time_s = q.events[q.head].time_s;
    } else {
      q.events.clear();
      q.head = 0;
      heap_.front() = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) sift_down(0);

    ++stats_.in_events;
    const Real send_at = std::max(e.time_s, next_free_);
    const Real delay = send_at - e.time_s;
    if (delay > config_.max_queue_delay_s) {
      ++stats_.dropped;
      continue;
    }
    out.add(send_at, e.vth_code, static_cast<std::uint16_t>(c));
    next_free_ = send_at + config_.min_spacing_s;
    ++stats_.sent;
    stats_.max_delay_s = std::max(stats_.max_delay_s, delay);
  }
}

bool AerArbiter::before(const Front& a, const Front& b) {
  return a.time_s < b.time_s || (a.time_s == b.time_s && a.channel < b.channel);
}

void AerArbiter::sift_up(std::size_t i) {
  const Front f = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(f, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = f;
}

void AerArbiter::sift_down(std::size_t i) {
  const Front f = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], f)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = f;
}

AerLedger::AerLedger(const AerConfig& config, Real frame_duration_s)
    : window_s_(0.5 * (config.min_spacing_s > 0.0 ? config.min_spacing_s
                                                  : frame_duration_s)) {
  dsp::require(window_s_ > 0.0, "AerLedger: match window must be positive");
}

void AerLedger::push_sent(std::span<const core::Event> sent) {
  reclaim(sent_, sent_head_);
  sent_.insert(sent_.end(), sent.begin(), sent.end());
}

void AerLedger::push_decoded(std::span<const core::Event> decoded) {
  reclaim(decoded_, decoded_head_);
  decoded_.insert(decoded_.end(), decoded.begin(), decoded.end());
}

void AerLedger::advance(Real sent_watermark, Real decoded_watermark) {
  // A frame is settled once no future sent event can lie within the
  // window: such an event is at or after the watermark, and subtraction
  // rounds monotonically, so its distance tests at least this far.
  while (decoded_head_ < decoded_.size() &&
         sent_watermark - decoded_[decoded_head_].time_s > window_s_) {
    const core::Event& r = decoded_[decoded_head_++];
    while (sent_head_ < sent_.size() &&
           sent_[sent_head_].time_s < r.time_s - window_s_) {
      ++sent_head_;
    }
    if (sent_head_ < sent_.size() &&
        std::abs(sent_[sent_head_].time_s - r.time_s) <= window_s_) {
      const core::Event& t = sent_[sent_head_++];
      ++counts_.matched;
      if (t.channel != r.channel) {
        ++counts_.address_errors;
      } else if (t.vth_code != r.vth_code) {
        ++counts_.code_errors;
      }
    } else {
      ++counts_.spurious;
    }
  }
  // Every frame still to settle is at or after `oldest`, so it would pass
  // over the sent events this far behind it: drop them now, which bounds
  // the buffer on a link that decodes nothing.
  const Real oldest = decoded_head_ < decoded_.size()
                          ? std::min(decoded_[decoded_head_].time_s,
                                     decoded_watermark)
                          : decoded_watermark;
  while (sent_head_ < sent_.size() &&
         sent_[sent_head_].time_s < oldest - window_s_) {
    ++sent_head_;
  }
}

core::EventStream aer_merge(const std::vector<core::EventStream>& channels,
                            const AerConfig& config, AerStats* stats) {
  AerArbiter arbiter(config, channels.size());
  for (std::size_t c = 0; c < channels.size(); ++c) {
    arbiter.push(c, channels[c].events());
  }
  core::EventStream out;
  arbiter.pop_below(std::numeric_limits<Real>::infinity(), out);
  if (stats != nullptr) *stats = arbiter.stats();
  return out;
}

std::vector<core::EventStream> aer_split(const core::EventStream& merged,
                                         unsigned num_channels,
                                         AerStats* stats) {
  dsp::require(num_channels >= 1, "aer_split: need >= 1 channel");
  AerStats local;
  local.in_events = merged.size();
  std::vector<core::EventStream> out(num_channels);
  for (const auto& e : merged.events()) {
    if (e.channel < num_channels) {
      out[e.channel].add(e.time_s, e.vth_code, e.channel);
      ++local.sent;
    } else {
      ++local.invalid_address;
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

std::size_t aer_symbols_per_event(const AerConfig& config,
                                  unsigned code_bits) {
  return 1 + config.address_bits + code_bits;
}

}  // namespace datc::uwb
