#include "runtime/session.hpp"

#include <algorithm>
#include <limits>

#include "core/reconstruct.hpp"
#include "core/streaming.hpp"
#include "core/streaming_reconstruct.hpp"
#include "core/symbols.hpp"
#include "dsp/types.hpp"
#include "emg/evaluation.hpp"
#include "runtime/thread_pool.hpp"
#include "uwb/aer.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"

namespace datc::runtime {

namespace {

/// Receiver configuration shared by both session flavours — must mirror
/// run_datc_over_link / run_aer_over_link exactly.
uwb::UwbReceiverConfig receiver_config(const SessionConfig& config,
                                       const uwb::ModulatorConfig& mod,
                                       unsigned address_bits,
                                       bool cache_detection) {
  uwb::UwbReceiverConfig rxc;
  rxc.detector = config.link.detector;
  rxc.modulator = mod;
  rxc.address_bits = address_bits;
  rxc.decode_codes = true;
  rxc.cache_detection = cache_detection;
  return rxc;
}

uwb::ModulatorConfig frame_modulator(const SessionConfig& config) {
  uwb::ModulatorConfig mod = config.link.modulator;
  mod.code_bits = config.encoder.dtc.dac_bits;
  return mod;
}

/// The two link Rng streams, derived exactly as the batch link functions
/// derive them (channel stream = the seed engine after forking off the
/// receiver stream).
struct LinkRngs {
  dsp::Rng rx;
  dsp::Rng channel;
};

LinkRngs link_rngs(std::uint64_t seed) {
  dsp::Rng rng(seed);
  dsp::Rng rx = rng.fork();
  return LinkRngs{rx, rng};
}

}  // namespace

SessionConfig make_session_config(const emg::EvalConfig& eval,
                                  const uwb::LinkConfig& link,
                                  core::CalibrationPtr calibration) {
  SessionConfig cfg;
  cfg.encoder = emg::datc_encoder_config(eval);
  cfg.analog_fs_hz = eval.analog_fs_hz;
  cfg.link = link;
  cfg.recon = emg::datc_reconstruction_config(eval);
  cfg.calibration = std::move(calibration);
  return cfg;
}

SessionReport session_report_delta(const SessionReport& after,
                                   const SessionReport& before) {
  SessionReport d;
  d.channel = after.channel;
  d.samples_in = after.samples_in - before.samples_in;
  d.events_tx = after.events_tx - before.events_tx;
  d.pulses_tx = after.pulses_tx - before.pulses_tx;
  d.pulses_erased = after.pulses_erased - before.pulses_erased;
  d.events_rx = after.events_rx - before.events_rx;
  d.arv_emitted = after.arv_emitted - before.arv_emitted;
  d.events_quarantined = after.events_quarantined - before.events_quarantined;
  d.arv_held = after.arv_held - before.arv_held;
  d.health_trips = after.health_trips - before.health_trips;
  d.decode = uwb::decode_stats_delta(after.decode, before.decode);
  return d;
}

// ------------------------------------------------------- StreamingSession

StreamingSession::StreamingSession(const SessionConfig& config,
                                   std::uint32_t channel_id)
    : config_(config),
      channel_id_(channel_id),
      encoder_(config.encoder, config.analog_fs_hz,
               core::ArenaSink{&events_chunk_},
               static_cast<std::uint16_t>(channel_id & 0xffffu)),
      modulator_(frame_modulator(config), /*address_bits=*/0),
      channel_(config.link.channel,
               link_rngs(config.link.seed ^ channel_id).channel),
      receiver_(receiver_config(config, frame_modulator(config), 0, true),
                config.link.channel,
                link_rngs(config.link.seed ^ channel_id).rx),
      reconstructor_(config.recon, config.calibration),
      health_(config.health) {
  dsp::require(config_.calibration != nullptr,
               "StreamingSession: null calibration");
}

void StreamingSession::run_link_chunk(Real watermark, bool flush) {
  // Single-channel frames carry no address field (the channel tag rides
  // on the event struct only), so the pulse layout is modulate_datc's.
  tx_chunk_.clear();
  modulator_.modulate_chunk(events_chunk_.events(), tx_chunk_);

  rx_chunk_.clear();
  channel_.propagate_chunk(tx_chunk_, watermark, rx_chunk_);
  if (flush) channel_.flush(rx_chunk_);

  decoded_chunk_.clear();
  receiver_.decode_chunk(rx_chunk_,
                         flush ? std::numeric_limits<Real>::infinity()
                               : channel_.release_watermark(),
                         decoded_chunk_);
  events_rx_ += decoded_chunk_.size();
  if (config_.keep_rx_events) {
    for (const auto& e : decoded_chunk_.events()) {
      rx_events_.add(e.time_s, e.vth_code, e.channel);
    }
  }
  if (event_tee_ && !decoded_chunk_.empty()) {
    event_tee_(decoded_chunk_.events());
  }

  // Decode health: in private mode the garbage signal is false-alarm
  // code bits (noise decoded as data). The monitor never changes the
  // chain while disabled or healthy, preserving bit-identicality.
  const Real duration = static_cast<Real>(samples_in_) / config_.analog_fs_hz;
  const std::uint64_t bad_bits = receiver_.stats().false_alarm_bits;
  health_.observe(flush ? duration : receiver_.event_time_watermark(),
                  decoded_chunk_.size(),
                  static_cast<std::size_t>(bad_bits - last_bad_bits_));
  last_bad_bits_ = bad_bits;

  const bool hold = !health_.healthy();
  if (hold) {
    // Envelope hold: withhold this chunk's (suspect) events from the
    // reconstructor; the watermark still advances, and the freshly
    // drained samples are pinned to the last good value below.
    events_quarantined_ += decoded_chunk_.size();
  } else {
    reconstructor_.push_events(decoded_chunk_.events());
  }
  if (flush) {
    if (samples_in_ > 0) reconstructor_.finish(duration);
  } else {
    reconstructor_.advance_to(receiver_.event_time_watermark());
  }
  const std::size_t before = arv_.size();
  reconstructor_.drain(arv_);
  if (hold) {
    for (std::size_t i = before; i < arv_.size(); ++i) {
      arv_[i] = last_good_arv_;
    }
    arv_held_ += arv_.size() - before;
  } else if (arv_.size() > before) {
    last_good_arv_ = arv_.back();
  }
  arv_emitted_ = reconstructor_.emitted();
  peak_bytes_ = std::max(peak_bytes_, buffered_bytes());
}

void StreamingSession::push_chunk(std::span<const Real> samples_v) {
  dsp::require(!finished_, "StreamingSession: push_chunk after finish");
  if (samples_v.empty()) return;
  events_chunk_.clear();
  encoder_.push_block(samples_v);
  samples_in_ += samples_v.size();
  // The reconstruction watermark must also bound the (still unknown)
  // final duration, so cap the encoder's clock watermark at the newest
  // sample's record time.
  const Real t_signal =
      static_cast<Real>(samples_in_) / config_.analog_fs_hz;
  run_link_chunk(std::min(encoder_.event_time_watermark(), t_signal),
                 /*flush=*/false);
}

void StreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  events_chunk_.clear();
  run_link_chunk(std::numeric_limits<Real>::infinity(), /*flush=*/true);
}

void StreamingSession::drain_arv(std::vector<Real>& out) {
  out.insert(out.end(), arv_.begin(), arv_.end());
  arv_.clear();
}

SessionReport StreamingSession::report() const {
  SessionReport r;
  r.channel = channel_id_;
  r.samples_in = samples_in_;
  r.events_tx = encoder_.events_emitted();
  r.pulses_tx = modulator_.pulses_emitted();
  r.pulses_erased = channel_.erased();
  r.events_rx = events_rx_;
  r.arv_emitted = arv_emitted_;
  r.events_quarantined = events_quarantined_;
  r.arv_held = arv_held_;
  r.health_trips = health_.trips();
  r.decode = receiver_.stats();
  return r;
}

SessionReport StreamingSession::take_delta() {
  const SessionReport now = report();
  const SessionReport d = session_report_delta(now, last_delta_);
  last_delta_ = now;
  return d;
}

std::size_t StreamingSession::buffered_bytes() const {
  return channel_.buffered() * sizeof(uwb::PulseEmission) +
         receiver_.pending() * sizeof(uwb::PulseEmission) +
         reconstructor_.buffered_bytes() + arv_.capacity() * sizeof(Real) +
         tx_chunk_.pulses().capacity() * sizeof(uwb::PulseEmission) +
         rx_chunk_.pulses().capacity() * sizeof(uwb::PulseEmission) +
         events_chunk_.capacity() * sizeof(core::Event);
}

// ----------------------------------------------- SharedAerStreamingSession

SharedAerStreamingSession::SharedAerStreamingSession(
    const SessionConfig& config, const uwb::SharedAerConfig& shared,
    std::size_t num_channels)
    : config_(config),
      arbiter_(shared.aer, num_channels),
      modulator_(frame_modulator(config), shared.aer.address_bits),
      channel_(config.link.channel, link_rngs(config.link.seed).channel),
      receiver_(receiver_config(config, frame_modulator(config),
                                shared.aer.address_bits,
                                shared.cache_detection),
                config.link.channel, link_rngs(config.link.seed).rx),
      ledger_(shared.aer, uwb::aer_frame_duration_s(frame_modulator(config),
                                                    shared.aer.address_bits)),
      health_(config.health) {
  dsp::require(config_.calibration != nullptr,
               "SharedAerStreamingSession: null calibration");
  dsp::require(num_channels >= 1,
               "SharedAerStreamingSession: need >= 1 channel");
  rx_events_.resize(num_channels);
  arv_.resize(num_channels);
  events_rx_.assign(num_channels, 0);
  arv_emitted_.assign(num_channels, 0);
  arv_held_.assign(num_channels, 0);
  last_good_arv_.assign(num_channels, 0.0);
  encoders_.reserve(num_channels);
  reconstructors_.reserve(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    encoders_.push_back(
        std::make_unique<core::StreamingDatcEncoderT<core::ArenaSink>>(
            config_.encoder, config_.analog_fs_hz,
            core::ArenaSink{&events_chunk_},
            static_cast<std::uint16_t>(c)));
    reconstructors_.push_back(std::make_unique<core::StreamingDatcReconstructor>(
        config_.recon, config_.calibration));
  }
}

void SharedAerStreamingSession::run_link_chunk(Real merged_watermark,
                                               Real recon_watermark_cap,
                                               bool flush) {
  tx_chunk_.clear();
  modulator_.modulate_chunk(merged_chunk_.events(), tx_chunk_);

  rx_chunk_.clear();
  channel_.propagate_chunk(tx_chunk_, merged_watermark, rx_chunk_);
  if (flush) channel_.flush(rx_chunk_);

  decoded_chunk_.clear();
  receiver_.decode_chunk(rx_chunk_,
                         flush ? std::numeric_limits<Real>::infinity()
                               : channel_.release_watermark(),
                         decoded_chunk_);

  if (event_tee_ && !decoded_chunk_.empty()) {
    event_tee_(decoded_chunk_.events());
  }

  ledger_.push_sent(merged_chunk_.events());
  ledger_.push_decoded(decoded_chunk_.events());
  ledger_.advance(merged_watermark,
                  flush ? std::numeric_limits<Real>::infinity()
                        : receiver_.event_time_watermark());

  // Decode health is link-wide in shared mode: one radio, one monitor.
  // The garbage signal is demux address errors (decoded frames whose
  // address is outside the channel map).
  const Real duration = static_cast<Real>(samples_in_per_channel_) /
                        config_.analog_fs_hz;
  std::size_t chunk_good = 0;
  std::size_t chunk_bad = 0;
  for (const auto& e : decoded_chunk_.events()) {
    (e.channel < encoders_.size() ? chunk_good : chunk_bad) += 1;
  }
  health_.observe(flush ? duration
                        : std::min(receiver_.event_time_watermark(),
                                   recon_watermark_cap),
                  chunk_good, chunk_bad);
  const bool hold = !health_.healthy();

  // Demux straight into the per-channel reconstructors (withholding the
  // whole chunk while the monitor is tripped — envelope hold below).
  for (const auto& e : decoded_chunk_.events()) {
    ++demux_.in_events;
    if (e.channel < encoders_.size()) {
      ++demux_.sent;
      ++events_rx_[e.channel];
      if (config_.keep_rx_events) {
        rx_events_[e.channel].add(e.time_s, e.vth_code, e.channel);
      }
      if (hold) {
        ++events_quarantined_;
      } else {
        reconstructors_[e.channel]->push_events({&e, 1});
      }
    } else {
      ++demux_.invalid_address;
    }
  }
  // Arbitration backlog can push send times past the (still unknown)
  // record end, but the reconstruction watermark must never exceed the
  // final duration — cap it at the newest sample's record time.
  const Real event_watermark =
      std::min(receiver_.event_time_watermark(), recon_watermark_cap);
  for (std::size_t c = 0; c < reconstructors_.size(); ++c) {
    if (flush) {
      if (samples_in_per_channel_ > 0) reconstructors_[c]->finish(duration);
    } else {
      reconstructors_[c]->advance_to(event_watermark);
    }
    const std::size_t before = arv_[c].size();
    reconstructors_[c]->drain(arv_[c]);
    if (hold) {
      for (std::size_t i = before; i < arv_[c].size(); ++i) {
        arv_[c][i] = last_good_arv_[c];
      }
      arv_held_[c] += arv_[c].size() - before;
    } else if (arv_[c].size() > before) {
      last_good_arv_[c] = arv_[c].back();
    }
    arv_emitted_[c] = reconstructors_[c]->emitted();
  }
}

void SharedAerStreamingSession::push_chunk(std::span<const Real> samples_v) {
  dsp::require(!finished_,
               "SharedAerStreamingSession: push_chunk after finish");
  const std::size_t n_ch = encoders_.size();
  dsp::require(samples_v.size() % n_ch == 0,
               "SharedAerStreamingSession: chunk must hold the same sample "
               "count for every channel (channel-major)");
  const std::size_t k = samples_v.size() / n_ch;
  if (k == 0) return;
  Real watermark = std::numeric_limits<Real>::infinity();
  for (std::size_t c = 0; c < n_ch; ++c) {
    events_chunk_.clear();
    encoders_[c]->push_block(samples_v.subspan(c * k, k));
    arbiter_.push(c, events_chunk_.events());
    watermark = std::min(watermark, encoders_[c]->event_time_watermark());
  }
  samples_in_per_channel_ += k;
  const Real t_signal = static_cast<Real>(samples_in_per_channel_) /
                        config_.analog_fs_hz;
  watermark = std::min(watermark, t_signal);
  merged_chunk_.clear();
  arbiter_.pop_below(watermark, merged_chunk_);
  // Future merged events leave at max(event time, arbiter busy-until).
  run_link_chunk(std::max(watermark, arbiter_.next_free()), t_signal,
                 /*flush=*/false);
}

void SharedAerStreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  const Real inf = std::numeric_limits<Real>::infinity();
  merged_chunk_.clear();
  arbiter_.pop_below(inf, merged_chunk_);
  run_link_chunk(inf, inf, /*flush=*/true);
}

void SharedAerStreamingSession::drain_arv(std::size_t channel,
                                          std::vector<Real>& out) {
  auto& src = arv_.at(channel);
  out.insert(out.end(), src.begin(), src.end());
  src.clear();
}

SessionReport SharedAerStreamingSession::report(std::size_t channel) const {
  dsp::require(channel < encoders_.size(),
               "SharedAerStreamingSession: channel out of range");
  SessionReport r;
  r.channel = static_cast<std::uint32_t>(channel);
  r.samples_in = samples_in_per_channel_;
  r.events_tx = encoders_[channel]->events_emitted();
  // The radio is link-wide in shared mode; per-channel pulse counts do
  // not exist (mirrors the batch SharedLinkReport split).
  r.events_rx = events_rx_[channel];
  r.arv_emitted = arv_emitted_[channel];
  // Quarantine count and trips are link-wide (one radio, one monitor);
  // held samples are per channel.
  r.events_quarantined = events_quarantined_;
  r.arv_held = arv_held_[channel];
  r.health_trips = health_.trips();
  return r;
}

// --------------------------------------------------------- SessionManager

SessionManager::SessionManager(const Config& config)
    : config_(config),
      pool_(std::make_unique<ThreadPool>(config.jobs)) {
  dsp::require(config_.max_pending_chunks >= 1,
               "SessionManager: need a queue bound of at least 1");
  dsp::require(config_.stall_timeout_s >= 0.0,
               "SessionManager: stall timeout must be non-negative");
  if (config_.stall_timeout_s > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

SessionManager::~SessionManager() {
  try {
    drain();
  } catch (...) {
    // Destruction must not throw; errors were the caller's to collect.
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    cv_watchdog_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
}

void SessionManager::watchdog_loop() {
  // Polls at a quarter of the timeout: a stall is flagged no later than
  // 1.25 timeouts after it began. The flag is sticky and observational —
  // the chunk is never interrupted (there is no safe way to kill it),
  // the operator just learns which strand is wedged.
  const auto period = std::chrono::duration<double>(
      std::max(config_.stall_timeout_s / 4.0, 1e-3));
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_watchdog_.wait_for(lock, period, [this] { return stopping_; });
    if (stopping_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& slot : slots_) {
      if (!slot->running || slot->stall_flagged) continue;
      const std::chrono::duration<double> elapsed = now - slot->run_start;
      if (elapsed.count() > config_.stall_timeout_s) {
        slot->stall_flagged = true;
      }
    }
  }
}

std::size_t SessionManager::jobs() const { return pool_->size(); }

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

SessionManager::SessionId SessionManager::add(
    std::unique_ptr<Session> session) {
  dsp::require(session != nullptr, "SessionManager: null session");
  std::lock_guard<std::mutex> lock(mu_);
  auto slot = std::make_unique<Slot>();
  slot->session = std::move(session);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

Session& SessionManager::session(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  dsp::require(slots_[id]->session != nullptr,
               "SessionManager: session was released");
  return *slots_[id]->session;
}

void SessionManager::release(SessionId id) {
  std::unique_lock<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  Slot& slot = *slots_[id];
  dsp::require(slot.queue.empty() && !slot.finish_pending,
               "SessionManager: release with work still queued");
  // The strand may still be between its last session call and marking
  // itself idle; session calls only happen while active, so waiting for
  // !active makes the reset safe (finished sessions are already idle —
  // this wait is a few instructions, not a chunk).
  cv_idle_.wait(lock, [&slot] { return !slot.active; });
  slot.session.reset();
}

void SessionManager::submit_chunk(SessionId id,
                                  std::span<const Real> samples_v) {
  std::unique_lock<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  Slot& slot = *slots_[id];
  dsp::require(slot.session != nullptr,
               "SessionManager: submit to a released session");
  if (slot.quarantined) {
    ++slot.discarded;
    return;
  }
  cv_space_.wait(lock, [&slot, this] {
    return slot.quarantined ||
           slot.queue.size() < config_.max_pending_chunks;
  });
  if (slot.quarantined) {
    ++slot.discarded;
    return;
  }
  slot.queue.emplace_back(samples_v.begin(), samples_v.end());
  schedule_locked(id);
}

void SessionManager::submit_finish(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  dsp::require(slots_[id]->session != nullptr,
               "SessionManager: submit to a released session");
  if (slots_[id]->quarantined) return;
  slots_[id]->finish_pending = true;
  schedule_locked(id);
}

SessionManager::SessionHealth SessionManager::health(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  dsp::require(id < slots_.size(), "SessionManager: bad session id");
  const Slot& slot = *slots_[id];
  SessionHealth h;
  h.quarantined = slot.quarantined;
  h.error = slot.error;
  h.chunks_discarded = slot.discarded;
  h.stall_flagged = slot.stall_flagged;
  return h;
}

std::size_t SessionManager::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& slot : slots_) n += slot->quarantined ? 1 : 0;
  return n;
}

void SessionManager::schedule_locked(SessionId id) {
  Slot& slot = *slots_[id];
  if (slot.active) return;  // the running strand will pick the work up
  if (slot.queue.empty() && !slot.finish_pending) return;
  slot.active = true;
  pool_->submit([this, id] { run_strand(id); });
}

void SessionManager::run_strand(SessionId id) {
  Slot* slot_ptr = nullptr;
  {
    // slots_ may grow (reallocate) concurrently; the Slot itself is
    // heap-stable once added.
    std::lock_guard<std::mutex> lock(mu_);
    slot_ptr = slots_[id].get();
  }
  Slot& slot = *slot_ptr;
  while (true) {
    std::vector<Real> chunk;
    bool do_finish = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!slot.queue.empty()) {
        chunk = std::move(slot.queue.front());
        slot.queue.pop_front();
      } else if (slot.finish_pending) {
        slot.finish_pending = false;
        do_finish = true;
      } else {
        slot.active = false;
        cv_idle_.notify_all();
        return;
      }
    }
    cv_space_.notify_all();
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot.running = true;
      slot.run_start = std::chrono::steady_clock::now();
    }
    try {
      if (do_finish) {
        slot.session->finish();
      } else {
        slot.session->push_chunk(chunk);
      }
      std::lock_guard<std::mutex> lock(mu_);
      slot.running = false;
    } catch (const std::exception& e) {
      quarantine(slot, std::current_exception(), e.what());
      return;
    } catch (...) {
      quarantine(slot, std::current_exception(),
                 "(non-std exception from session)");
      return;
    }
  }
}

void SessionManager::quarantine(Slot& slot, std::exception_ptr err,
                                const char* what) {
  // Fault isolation: the throwing session is retired with its error
  // recorded and its pending work discarded (counted); every other
  // session keeps running. The engine stays alive either way.
  std::lock_guard<std::mutex> lock(mu_);
  slot.running = false;
  if (first_error_ == nullptr) first_error_ = err;
  slot.quarantined = true;
  slot.error = what;
  slot.discarded += slot.queue.size();
  slot.queue.clear();
  slot.finish_pending = false;
  slot.active = false;
  cv_space_.notify_all();
  cv_idle_.notify_all();
}

void SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] {
    for (const auto& slot : slots_) {
      if (slot->active || !slot->queue.empty() || slot->finish_pending) {
        return false;
      }
    }
    return true;
  });
  if (config_.rethrow_on_drain && first_error_ != nullptr) {
    const std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace datc::runtime
