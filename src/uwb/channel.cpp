#include "dsp/types.hpp"
#include "uwb/channel.hpp"
#include "uwb/modulator.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

namespace datc::uwb {

ChannelConfig noiseless_channel() {
  ChannelConfig ch;
  ch.distance_m = 0.3;
  ch.ref_loss_db = 30.0;
  ch.erasure_prob = 0.0;
  ch.jitter_rms_s = 0.0;
  return ch;
}

Real channel_gain(const ChannelConfig& config) {
  dsp::require(config.distance_m > 0.0 && config.ref_distance_m > 0.0,
               "channel_gain: distances must be positive");
  const Real pl_db =
      config.ref_loss_db +
      10.0 * config.path_loss_exponent *
          std::log10(std::max(config.distance_m / config.ref_distance_m,
                              Real{1.0}));
  return std::pow(10.0, -pl_db / 20.0);
}

Real noise_rms_v(const ChannelConfig& config, Real bw_hz) {
  dsp::require(bw_hz > 0.0, "noise_rms_v: bandwidth must be positive");
  const Real psd_dbm = config.noise_psd_dbm_hz + config.rx_noise_figure_db;
  const Real noise_w = std::pow(10.0, psd_dbm / 10.0) * 1e-3 * bw_hz;
  return std::sqrt(noise_w * 50.0);  // V RMS across 50 ohm
}

ChannelResult propagate(const PulseTrain& tx, const ChannelConfig& config,
                        dsp::Rng& rng) {
  dsp::require(config.erasure_prob >= 0.0 && config.erasure_prob <= 1.0,
               "propagate: erasure probability outside [0,1]");
  ChannelResult out;
  out.received.reserve(tx.size());
  const Real gain = channel_gain(config);
  if (config.erasure_prob <= 0.0) {
    // Erasure-free channel: the jitter draws are the only Rng consumption,
    // so they batch into one fill_gaussian (identical draw sequence to
    // per-pulse gaussian_bm() calls and to StreamingRadio's block fills —
    // the radio parity tests hold on this stream by construction).
    std::vector<Real> jitter;
    if (config.jitter_rms_s > 0.0 && tx.size() > 0) {
      jitter.resize(tx.size());
      rng.fill_gaussian(jitter);
    }
    for (std::size_t i = 0; i < tx.size(); ++i) {
      PulseEmission rx = tx.pulses()[i];
      rx.amplitude_v = rx.amplitude_v * gain;
      if (config.jitter_rms_s > 0.0) {
        rx.time_s += config.jitter_rms_s * jitter[i];
      }
      out.received.add(rx);
    }
  } else {
    for (const auto& p : tx.pulses()) {
      if (rng.chance(config.erasure_prob)) {
        ++out.erased;
        continue;
      }
      PulseEmission rx = p;
      rx.amplitude_v = p.amplitude_v * gain;
      if (config.jitter_rms_s > 0.0) {
        // datc-lint: allow(hot-rng) — interleaved with erasure decisions;
        // see StreamingRadio::transmit.
        rx.time_s += config.jitter_rms_s * rng.gaussian_bm();
      }
      out.received.add(rx);
    }
  }
  out.received.sort_by_time();
  return out;
}

}  // namespace datc::uwb
