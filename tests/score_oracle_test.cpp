// The one truth-vs-envelope scorer against an independent oracle: the
// original scoring bodies (tests/score_reference.hpp). The ground truth,
// every score of a multi-envelope call and dsp::pearson must match the
// hand-rolled "truth, min(n), correlation_percent" form bit for bit, at
// every length relation and on the degenerate inputs.

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/datc_encoder.hpp"
#include "dsp/envelope.hpp"
#include "dsp/moving_average.hpp"
#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "emg/dataset.hpp"
#include "emg/evaluation.hpp"
#include "score_reference.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(const std::vector<Real>& want,
                    const std::vector<Real>& got, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << ": sample " << i << " got " << got[i] << " want "
        << want[i];
  }
}

std::vector<Real> noise(std::size_t n, std::uint64_t seed, Real offset) {
  dsp::Rng rng(seed);
  std::vector<Real> x(n);
  for (Real& v : x) v = offset + rng.gaussian();
  return x;
}

/// One encoded recording and its reconstruction, shared by the tests.
struct Fixture {
  emg::Evaluator eval;
  emg::Recording rec;
  std::vector<Real> truth;
  std::vector<Real> recon;

  Fixture() {
    emg::RecordingSpec spec;
    spec.seed = 11;
    spec.duration_s = 2.0;
    spec.gain_v = 0.4;
    rec = emg::make_recording(spec);
    truth = eval.ground_truth(rec);
    const auto tx = core::encode_datc(
        rec.emg_v, emg::datc_encoder_config(eval.config()));
    recon = eval.reconstruct_datc(tx.events, rec.emg_v.duration_s());
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

emg::Recording recording_of(std::vector<Real> x) {
  emg::Recording rec;
  rec.emg_v = dsp::TimeSeries(std::move(x), 2500.0);
  return rec;
}

/// Both scorer entry points against the oracle: Evaluator::score, which
/// builds the truth of `rec` itself, and score_against on a truth built
/// beforehand.
void expect_scores(const emg::Evaluator& eval, const emg::Recording& rec,
                   std::initializer_list<std::span<const Real>> envs,
                   const std::string& what) {
  const auto truth = oracle::reference_arv_envelope(
      rec.emg_v.view(), rec.emg_v.sample_rate_hz(), eval.config().window_s);
  const auto from_rec = eval.score(rec, envs);
  const auto from_truth = emg::score_against(truth, envs);
  ASSERT_EQ(from_rec.size(), envs.size()) << what;
  ASSERT_EQ(from_truth.size(), envs.size()) << what;
  std::size_t k = 0;
  for (const auto env : envs) {
    const Real want = oracle::reference_score(truth, env);
    EXPECT_EQ(bits(from_rec[k]), bits(want))
        << what << ": Evaluator::score, envelope " << k;
    EXPECT_EQ(bits(from_truth[k]), bits(want))
        << what << ": score_against, envelope " << k;
    ++k;
  }
}

TEST(ScoreOracle, GroundTruthMatchesRectifiedMovingAverage) {
  const auto& f = fixture();
  expect_bitwise(oracle::reference_arv_envelope(
                     f.rec.emg_v.view(), f.rec.emg_v.sample_rate_hz(),
                     f.eval.config().window_s),
                 f.truth, "ground truth");
  // Even and odd windows, odd and even interior lengths, windows longer
  // than the record.
  for (const std::size_t len : {300u, 301u}) {
    const auto x = noise(len, 5, 0.2);
    for (const std::size_t w : {1u, 2u, 7u, 8u, 299u, 300u, 301u, 1000u}) {
      expect_bitwise(oracle::reference_centered_moving_average(x, w),
                     dsp::centered_moving_average(x, w),
                     "length " + std::to_string(len) + " window " +
                         std::to_string(w));
    }
  }
}

TEST(ScoreOracle, EnvelopesEqualShorterAndLongerThanTruth) {
  const auto& f = fixture();
  ASSERT_EQ(f.recon.size(), f.truth.size());
  const std::span<const Real> env(f.recon);
  std::vector<Real> longer(f.recon);
  longer.insert(longer.end(), 37, 0.5);
  for (const auto e : {env, env.first(env.size() - 113), env.first(2),
                       std::span<const Real>(longer)}) {
    expect_scores(f.eval, f.rec, {e}, "length " + std::to_string(e.size()));
  }
}

TEST(ScoreOracle, SeveralEnvelopesInOneCall) {
  const auto& f = fixture();
  const std::span<const Real> env(f.recon);
  const auto other = noise(f.truth.size() + 50, 9, 0.1);
  const std::span<const Real> shorter = env.first(env.size() / 2);
  // Two of one length (one shared pass), two of different lengths (one
  // pass each), and longer lists: neighbours of one length pair up, an
  // odd one out or a different length goes alone.
  expect_scores(f.eval, f.rec, {env, other}, "pair");
  expect_scores(f.eval, f.rec, {shorter, env}, "two lengths");
  expect_scores(f.eval, f.rec, {env, other, shorter, env, other, env},
                "six");
  expect_scores(f.eval, f.rec, {env, other, env}, "three of one length");
}

TEST(ScoreOracle, ConstantEnvelopeAndConstantTruthScoreZero) {
  const auto& f = fixture();
  const std::vector<Real> flat(f.truth.size(), 0.25);
  ASSERT_EQ(oracle::reference_score(f.truth, flat), 0.0);
  expect_scores(f.eval, f.rec, {flat}, "constant envelope");
  expect_scores(f.eval, f.rec, {f.recon, flat}, "constant envelope pair");
  EXPECT_EQ(bits(emg::score_against(f.truth, {flat}).front()), bits(0.0));

  // |x| = 1 everywhere: every window mean is exactly 1.
  std::vector<Real> x(500, 1.0);
  for (std::size_t i = 0; i < x.size(); i += 2) x[i] = -1.0;
  const auto truth = dsp::arv_envelope(x, 2500.0, 0.05);
  expect_bitwise(oracle::reference_arv_envelope(x, 2500.0, 0.05), truth,
                 "constant truth");
  const auto env = noise(x.size(), 3, 1.0);
  ASSERT_EQ(oracle::reference_score(truth, env), 0.0);
  emg::EvalConfig cfg;
  cfg.window_s = 0.05;
  const emg::Evaluator eval(cfg);
  const auto rec = recording_of(x);
  expect_scores(eval, rec, {env, flat}, "constant truth");
  const auto got = eval.score(rec, {env, flat});
  EXPECT_EQ(bits(got[0]), bits(0.0));
  EXPECT_EQ(bits(got[1]), bits(0.0));
}

TEST(ScoreOracle, ShortRecordsAndOneSampleWindow) {
  const auto rec = recording_of(noise(91, 21, 0.0));
  const auto env = noise(91, 22, 0.3);
  const auto env2 = noise(95, 23, 0.1);
  // 91 samples under a 625-sample window: every sample clamps. A
  // one-sample window, odd interior lengths, and 2h + 1 = 89, 91 around n.
  for (const Real window_s : {0.25, 1.0 / 2500.0, 0.001, 0.0356, 0.0356 / 2.0,
                              89.0 / 2500.0, 91.0 / 2500.0}) {
    const std::string what = "window_s " + std::to_string(window_s);
    expect_bitwise(
        oracle::reference_arv_envelope(rec.emg_v.view(), 2500.0, window_s),
        dsp::arv_envelope(rec.emg_v.view(), 2500.0, window_s), what);
    emg::EvalConfig cfg;
    cfg.window_s = window_s;
    const emg::Evaluator eval(cfg);
    expect_scores(eval, rec, {env}, what);
    expect_scores(eval, rec, {env, env2}, what + " pair");
  }
  EXPECT_TRUE(dsp::arv_envelope(std::vector<Real>{}, 2500.0, 0.25).empty());
}

TEST(ScoreOracle, PearsonMatchesTwoLoopMeans) {
  for (const std::size_t n : {2u, 3u, 17u, 4096u}) {
    const auto a = noise(n, 31 + n, 0.5);
    const auto b = noise(n, 47 + n, -0.2);
    EXPECT_EQ(bits(dsp::pearson(a, b)), bits(oracle::reference_pearson(a, b)))
        << "n " << n;
    EXPECT_EQ(bits(dsp::correlation_percent(a, b)),
              bits(100.0 * oracle::reference_pearson(a, b)))
        << "n " << n;
  }
}

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <class Fn>
std::string thrown(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScoreOracle, FewerThanTwoSamplesThrowsLikePearson) {
  const auto& f = fixture();
  const std::vector<Real> one{0.5};
  const std::string want = thrown([&] {
    (void)oracle::reference_score(f.truth, one);
  });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(thrown([&] { (void)emg::score_against(f.truth, {one}); }), want);
  EXPECT_EQ(thrown([&] { (void)f.eval.score(f.rec, {one}); }), want);
  EXPECT_EQ(thrown([&] { (void)f.eval.score(f.rec, {one, one}); }), want);
  EXPECT_EQ(thrown([&] { (void)f.eval.score(f.rec, {f.recon, one}); }),
            want);
  EXPECT_EQ(thrown([&] {
              (void)emg::score_against(f.truth, {f.recon, one});
            }),
            want);
  EXPECT_EQ(thrown([&] {
              (void)emg::score_against(std::span<const Real>(f.truth).first(1),
                                       {f.recon});
            }),
            want);
  EXPECT_EQ(thrown([&] { (void)dsp::pearson(one, one); }),
            thrown([&] { (void)oracle::reference_pearson(one, one); }));
  EXPECT_EQ(thrown([&] { (void)dsp::pearson(one, f.recon); }),
            thrown([&] { (void)oracle::reference_pearson(one, f.recon); }));
}

}  // namespace
