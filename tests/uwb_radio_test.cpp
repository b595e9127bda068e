// The streaming radio against the staged reference: modulate_datc /
// modulate_aer / modulate_atc -> propagate -> UwbReceiver::decode over the
// whole stream, with the uncached detection stage. On every shipped
// preset's link and events, fed in chunks of {1, 7, 64, 4096} events
// (each push with the tightest TX watermark) and whole (run_over_link),
// the radio must reproduce the decoded events bit for bit and every
// DecodeStats, pulse and erasure count. The presets bring the erasure
// channel (lossy-far-link, chaos-soak) and the overlapping AER frames of
// shared-aer-64ch; ATC framing and channels whose jitter dwarfs the slot
// (reordering within frames, and across events enough to exhaust the
// reorder budget) are added here.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "config/factory.hpp"
#include "config/scenario.hpp"
#include "core/datc_encoder.hpp"
#include "core/events.hpp"
#include "dsp/rng.hpp"
#include "emg/evaluation.hpp"
#include "uwb/aer.hpp"
#include "uwb/channel.hpp"
#include "uwb/link_pipeline.hpp"
#include "uwb/modulator.hpp"
#include "uwb/receiver.hpp"
#include "uwb/streaming_link.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr Real kInf = std::numeric_limits<Real>::infinity();

struct LinkOutput {
  core::EventStream rx;
  uwb::DecodeStats stats;
  std::size_t pulses_tx{0};
  std::size_t erased{0};
  std::size_t reorder_fallbacks{0};
};

/// One radio's events and link (a preset channel, a preset's merged AER
/// stream, or a variation of one) and the staged link's output on them.
struct Case {
  std::string name;
  core::EventStream tx;
  uwb::RadioPlan plan;
  std::uint64_t seed;
  LinkOutput want{};
};

/// The staged link over the whole stream, its Rng streams derived from
/// `seed` as the staged link functions derive them.
LinkOutput staged(const Case& c) {
  const uwb::UwbReceiverConfig& rxc = c.plan.receiver;
  uwb::PulseTrain train;
  if (!rxc.decode_codes) {
    train = uwb::modulate_atc(c.tx, rxc.modulator);
  } else if (rxc.address_bits == 0) {
    train = uwb::modulate_datc(c.tx, rxc.modulator);
  } else {
    train = uwb::modulate_aer(c.tx, rxc.modulator, rxc.address_bits);
  }
  dsp::Rng rng(c.seed);
  dsp::Rng rx_rng = rng.fork();
  const auto air = uwb::propagate(train, c.plan.channel, rng);
  uwb::UwbReceiverConfig uncached = rxc;
  uncached.cache_detection = false;
  uwb::UwbReceiver receiver(uncached, c.plan.channel, rx_rng);
  LinkOutput out;
  out.rx = receiver.decode(air.received);
  out.rx.sort_by_time();
  out.stats = receiver.stats();
  out.pulses_tx = train.size();
  out.erased = air.erased;
  return out;
}

/// Fills in every case's staged output.
std::vector<Case> with_references(std::vector<Case> cases) {
  for (auto& c : cases) c.want = staged(c);
  return cases;
}

/// The radio fed `chunk` events per push (0 = the whole stream through
/// run_over_link). Every push must emit only events at or after the
/// previous push's event-time watermark, in time order.
LinkOutput radio(const Case& c, std::size_t chunk) {
  LinkOutput out;
  if (chunk == 0) {
    auto run = uwb::run_over_link(c.tx, c.plan, c.seed);
    out.rx = std::move(run.events_rx);
    out.stats = run.decode;
    out.pulses_tx = run.pulses_tx;
    out.erased = run.pulses_erased;
    return out;
  }
  uwb::StreamingRadio r(c.plan, c.seed);
  const std::span<const core::Event> ev = c.tx.events();
  Real promised = -kInf;
  for (std::size_t at = 0; at < ev.size(); at += chunk) {
    const std::size_t end = std::min(ev.size(), at + chunk);
    const std::size_t before = out.rx.size();
    r.push(ev.subspan(at, end - at), end < ev.size() ? ev[end].time_s : kInf,
           out.rx);
    for (std::size_t i = before; i < out.rx.size(); ++i) {
      EXPECT_GE(out.rx[i].time_s, promised) << c.name << " push at " << at;
    }
    promised = r.event_time_watermark();
  }
  r.flush(out.rx);
  EXPECT_EQ(r.buffered(), 0u) << c.name;
  EXPECT_EQ(r.pending(), 0u) << c.name;
  EXPECT_TRUE(out.rx.is_time_sorted()) << c.name;
  out.stats = r.stats();
  out.pulses_tx = r.pulses_tx();
  out.erased = r.erased();
  out.reorder_fallbacks = r.reorder_fallbacks();
  return out;
}

void expect_same(const LinkOutput& want, const LinkOutput& got,
                 const std::string& what) {
  const auto& w = want.rx.events();
  const auto& g = got.rx.events();
  ASSERT_EQ(g.size(), w.size()) << what;
  for (std::size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g[i].time_s),
              std::bit_cast<std::uint64_t>(w[i].time_s))
        << what << " event " << i;
    ASSERT_EQ(g[i].vth_code, w[i].vth_code) << what << " event " << i;
    ASSERT_EQ(g[i].channel, w[i].channel) << what << " event " << i;
  }
  EXPECT_EQ(got.pulses_tx, want.pulses_tx) << what;
  EXPECT_EQ(got.erased, want.erased) << what;
  EXPECT_EQ(got.stats.pulses_in, want.stats.pulses_in) << what;
  EXPECT_EQ(got.stats.pulses_detected, want.stats.pulses_detected) << what;
  EXPECT_EQ(got.stats.packets_decoded, want.stats.packets_decoded) << what;
  EXPECT_EQ(got.stats.code_bit_ones_missed, want.stats.code_bit_ones_missed)
      << what;
  EXPECT_EQ(got.stats.false_alarm_bits, want.stats.false_alarm_bits) << what;
}

/// Every preset's own radios: each private channel's D-ATC packets
/// (seed link.seed ^ channel), or the arbitrated AER frames of all
/// channels on one shared radio.
const std::vector<Case>& preset_cases() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> out;
    for (const auto& name : config::preset_names()) {
      const config::PipelineFactory factory(config::make_preset(name));
      const auto eval = factory.eval_config();
      const auto link = factory.link_config();
      const unsigned code_bits = eval.dtc.dac_bits;
      std::vector<core::EventStream> tx;
      for (const auto& rec : factory.make_recordings()) {
        tx.push_back(core::encode_datc_events(
            rec.emg_v, emg::datc_encoder_config(eval)));
      }
      if (factory.spec().aer.topology == config::LinkTopology::kSharedAer) {
        const auto shared = factory.shared_config();
        out.push_back({name, uwb::aer_merge(tx, shared.aer),
                       uwb::datc_radio(link, code_bits,
                                       shared.aer.address_bits),
                       link.seed});
      } else {
        for (std::size_t c = 0; c < tx.size(); ++c) {
          out.push_back({name + " ch" + std::to_string(c), tx[c],
                         uwb::datc_radio(link, code_bits),
                         link.seed ^ static_cast<std::uint64_t>(c)});
        }
      }
    }
    return with_references(std::move(out));
  }();
  return cases;
}

/// Variations on the paper-baseline channel: plain ATC markers (with and
/// without erasures), and jitter far beyond the 100 ns slot — 5 slots
/// reorders pulses inside frames, 0.5 s (the record carries ~300 pulses
/// a second) moves them across hundreds of others and exhausts the reorder
/// budget.
const std::vector<Case>& variation_cases() {
  static const std::vector<Case> cases = [] {
    const config::PipelineFactory factory(
        config::make_preset("paper-baseline"));
    const auto eval = factory.eval_config();
    const auto link = factory.link_config();
    const auto tx = core::encode_datc_events(
        factory.make_recordings().front().emg_v,
        emg::datc_encoder_config(eval));
    std::vector<Case> out;
    out.push_back({"atc", tx, uwb::atc_radio(link), link.seed});
    auto lossy = link;
    lossy.channel.erasure_prob = 0.1;
    out.push_back({"atc lossy", tx, uwb::atc_radio(lossy), link.seed});
    for (const Real jitter : {5.0 * link.modulator.symbol_period_s, 0.5}) {
      auto wide = link;
      wide.channel.jitter_rms_s = jitter;
      out.push_back({"jitter " + std::to_string(jitter), tx,
                     uwb::datc_radio(wide, eval.dtc.dac_bits), link.seed});
      wide.channel.erasure_prob = 0.05;
      out.push_back({"jitter " + std::to_string(jitter) + " lossy", tx,
                     uwb::datc_radio(wide, eval.dtc.dac_bits), link.seed});
    }
    return with_references(std::move(out));
  }();
  return cases;
}

class RadioParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadioParityTest, EveryPresetMatchesStagedReference) {
  for (const auto& c : preset_cases()) {
    ASSERT_GT(c.want.stats.packets_decoded, 0u) << c.name;
    expect_same(c.want, radio(c, GetParam()),
                c.name + " chunk " + std::to_string(GetParam()));
  }
}

TEST_P(RadioParityTest, AtcAndWideJitterMatchStagedReference) {
  for (const auto& c : variation_cases()) {
    ASSERT_GT(c.want.rx.size(), 0u) << c.name;
    expect_same(c.want, radio(c, GetParam()),
                c.name + " chunk " + std::to_string(GetParam()));
  }
}

// 0 = the whole stream in one push (run_over_link).
INSTANTIATE_TEST_SUITE_P(ChunkSizes, RadioParityTest,
                         ::testing::Values(1, 7, 64, 4096, 0));

TEST(StreamingRadio, WideJitterReachesTheSortFallback) {
  // The 0.5 s jitter case moves pulses across many events: the reorder
  // must exhaust its move budget, fall back to the sort, and still match
  // the staged reference (RadioParityTest above).
  const auto& cases = variation_cases();
  const auto it = std::find_if(cases.begin(), cases.end(), [](const Case& c) {
    return c.plan.channel.jitter_rms_s == 0.5 &&
           c.plan.channel.erasure_prob == 0.0;
  });
  ASSERT_NE(it, cases.end());
  EXPECT_GT(radio(*it, 4096).reorder_fallbacks, 0u);
}

TEST(StreamingRadio, NoReorderFallbackOnAnyPresetTrain) {
  // The move budget bounds the reorder's time; on every shipped preset's
  // own TX stream (private: each channel's D-ATC packets; shared: the
  // arbitrated AER frames of all channels) it must never be exhausted.
  for (const auto& c : preset_cases()) {
    for (const std::size_t chunk : {97, 0}) {
      uwb::StreamingRadio r(c.plan, c.seed);
      const std::span<const core::Event> ev = c.tx.events();
      const std::size_t step = chunk == 0 ? ev.size() : chunk;
      core::EventStream rx;
      for (std::size_t at = 0; at < ev.size(); at += step) {
        const std::size_t end = std::min(ev.size(), at + step);
        r.push(ev.subspan(at, end - at),
               end < ev.size() ? ev[end].time_s : kInf, rx);
      }
      r.flush(rx);
      ASSERT_GT(r.pulses_tx(), 0u) << c.name;
      EXPECT_EQ(r.stats().pulses_in + r.erased(), r.pulses_tx()) << c.name;
      EXPECT_EQ(r.reorder_fallbacks(), 0u) << c.name << " chunk " << chunk;
    }
  }
}

TEST(StreamingRadio, FrameSpanningChunkBoundaryMatchesBatch) {
  // A packet whose marker and first bit slots are released before a
  // push's watermark, and whose later slots only after the next push,
  // must decode exactly as the staged whole train: the open frame
  // carries across pushes.
  uwb::LinkConfig link;
  link.modulator.shape.amplitude_v = 0.5;  // ts = 100 ns, 4 code bits
  link.channel.distance_m = 0.3;
  link.channel.ref_loss_db = 30.0;
  link.seed = 77;
  core::EventStream events;
  events.add(1e-3, 11);
  events.add(1e-3 + 5e-4, 13);
  events.add(1e-3 + 9e-4, 6);
  Case c{"boundary", events, uwb::datc_radio(link, 4), link.seed};
  c.want = staged(c);
  ASSERT_EQ(c.want.rx.size(), 3u);

  // The first push's watermark lies inside packet 2's bit slots (past
  // the 12-sigma hold-back), so its marker and first bits are released
  // and detected while its frame must stay open.
  uwb::StreamingRadio r(c.plan, c.seed);
  const Real split = 1e-3 + 5e-4 + 1.5e-7 + 12.0 * link.channel.jitter_rms_s;
  LinkOutput got;
  r.push(std::span(events.events()).first(2), split, got.rx);
  EXPECT_LT(got.rx.size(), 3u);  // the straddling frame must still be open
  EXPECT_GT(r.pending(), 0u);
  r.push(std::span(events.events()).subspan(2), kInf, got.rx);
  r.flush(got.rx);
  got.stats = r.stats();
  got.pulses_tx = r.pulses_tx();
  got.erased = r.erased();
  expect_same(c.want, got, "boundary");
  EXPECT_EQ(r.stats().packets_decoded, 3u);
}

TEST(StreamingRadio, RejectsAnAddressOutsideTheField) {
  uwb::LinkConfig link;
  core::EventStream events;
  events.add(1e-3, 3, /*channel=*/4);  // needs 3 address bits
  uwb::StreamingRadio r(uwb::datc_radio(link, 4, /*address_bits=*/2), 1);
  core::EventStream rx;
  EXPECT_THROW(r.push(events.events(), kInf, rx), std::invalid_argument);
}

}  // namespace
