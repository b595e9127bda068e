// The repository's RNG contract (dsp/rng.hpp): the owned MT19937-64 is
// std::mt19937_64 output for output; uniform / uniform(lo, hi) / chance /
// gaussian restate libstdc++'s distribution mappings bit for bit; and the
// first values of every draw are pinned, so a toolchain or a change that
// maps differently fails here rather than moving every output silently.

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <random>
#include <vector>

#include "dsp/rng.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

TEST(Mt19937_64, MatchesStdEngineForAMillionDraws) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1},
                                   std::uint64_t{5489}, kMax64}) {
    dsp::Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      const std::uint64_t a = ours();
      const std::uint64_t b = ref();
      if (a != b) {
        FAIL() << "seed " << seed << " draw " << i << ": " << a << " vs "
               << b;
      }
    }
  }
}

TEST(Mt19937_64, TenThousandthDrawOfTheDefaultSeed) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  dsp::Mt19937_64 e(5489);
  for (int i = 1; i < 10000; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ull);
}

TEST(Mt19937_64, ForkChainsMatchStdEngine) {
  // integer(0, max) is the raw draw, so it reads the engine through Rng.
  for (const std::uint64_t seed : {std::uint64_t{7}, kMax64}) {
    dsp::Rng rng(seed);
    std::mt19937_64 ref(seed);
    for (int depth = 0; depth < 8; ++depth) {
      for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(rng.integer(0, kMax64), ref()) << depth << " " << i;
      }
      rng = rng.fork();
      ref = std::mt19937_64(ref());
    }
  }
}

/// Yields one fixed value: feeds chosen bit patterns to a mapping.
struct FixedBits {
  using result_type = std::uint64_t;
  std::uint64_t value;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kMax64; }
  result_type operator()() const { return value; }
};

TEST(UnitInterval, RoundsAndClampsAsGenerateCanonical) {
  // Rounding ties (2^53 + 1 sits halfway), the largest draws that round
  // to 1 and get clamped, and small exact values.
  const std::vector<std::uint64_t> cases = {
      0,
      1,
      0xffffffffull,
      0x100000000ull,
      (std::uint64_t{1} << 53) + 1,
      (std::uint64_t{1} << 53) + 3,
      (std::uint64_t{1} << 63) + 1024,
      (std::uint64_t{1} << 63) + 1536,
      kMax64 - 1024,
      kMax64 - 1023,
      kMax64 - 2048,
      kMax64,
  };
  for (const std::uint64_t x : cases) {
    FixedBits g{x};
    const Real want = std::generate_canonical<Real, 53>(g);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dsp::unit_interval(x)),
              std::bit_cast<std::uint64_t>(want))
        << x;
    EXPECT_LT(dsp::unit_interval(x), 1.0) << x;
  }
}

#ifdef __GLIBCXX__
// libstdc++ is the mapping the repository's outputs were recorded with:
// each draw equals a fresh std distribution over std::mt19937_64, bit for
// bit, in lockstep (the same engine draws consumed).

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RngMapping, ChanceIsBernoulliDistribution) {
  dsp::Rng rng(11);
  std::mt19937_64 ref(11);
  dsp::Rng pick(12);
  for (const Real p : {0.0, 1e-6, 0.9999999, 1.0}) {
    for (int i = 0; i < 250'000; ++i) {
      ASSERT_EQ(rng.chance(p), std::bernoulli_distribution(p)(ref))
          << p << " " << i;
    }
  }
  for (int i = 0; i < 1'000'000; ++i) {
    const Real p = pick.canonical();
    ASSERT_EQ(rng.chance(p), std::bernoulli_distribution(p)(ref)) << i;
  }
  // p equal to the very value drawn: the comparison is strict.
  dsp::Rng twin = rng;
  for (int i = 0; i < 1000; ++i) {
    const Real p = twin.uniform();
    ASSERT_FALSE(rng.chance(p)) << i;
    ASSERT_FALSE(std::bernoulli_distribution(p)(ref)) << i;
  }
}

TEST(RngMapping, UniformIsUniformRealDistribution) {
  dsp::Rng rng(13);
  std::mt19937_64 ref(13);
  for (int i = 0; i < 1'000'000; ++i) {
    const Real a = rng.uniform();
    const Real b = std::uniform_real_distribution<Real>(0.0, 1.0)(ref);
    ASSERT_TRUE(same_bits(a, b)) << i << ": " << a << " vs " << b;
  }
}

TEST(RngMapping, UniformRangeIsUniformRealDistribution) {
  dsp::Rng rng(17);
  std::mt19937_64 ref(17);
  dsp::Rng pick(18);
  for (int i = 0; i < 1'000'000; ++i) {
    const Real lo = pick.uniform(-1e3, 1e3);
    const Real hi = lo + pick.log_uniform(1e-9, 1e6);
    const Real a = rng.uniform(lo, hi);
    const Real b = std::uniform_real_distribution<Real>(lo, hi)(ref);
    ASSERT_TRUE(same_bits(a, b)) << i << ": " << a << " vs " << b;
  }
}

TEST(RngMapping, GaussianIsNormalDistribution) {
  dsp::Rng rng(19);
  std::mt19937_64 ref(19);
  for (int i = 0; i < 1'000'000; ++i) {
    const Real a = rng.gaussian();
    const Real b = std::normal_distribution<Real>(0.0, 1.0)(ref);
    ASSERT_TRUE(same_bits(a, b)) << i << ": " << a << " vs " << b;
  }
}

TEST(RngMapping, InterleavedDrawsStayInLockstep) {
  // Every kind of draw mixed in one stream: each consumes exactly the
  // engine draws its std counterpart does.
  dsp::Rng rng(23);
  std::mt19937_64 ref(23);
  dsp::Rng pick(24);
  for (int i = 0; i < 1'000'000; ++i) {
    switch (pick.integer(0, 3)) {
      case 0:
        ASSERT_EQ(rng.chance(0.25), std::bernoulli_distribution(0.25)(ref));
        break;
      case 1:
        ASSERT_TRUE(same_bits(
            rng.uniform(-2.0, 3.0),
            std::uniform_real_distribution<Real>(-2.0, 3.0)(ref)));
        break;
      case 2:
        ASSERT_TRUE(same_bits(rng.gaussian(),
                              std::normal_distribution<Real>(0.0, 1.0)(ref)));
        break;
      default:
        ASSERT_EQ(rng.integer(0, 99),
                  std::uniform_int_distribution<std::uint64_t>(0, 99)(ref));
        break;
    }
  }
}
#endif  // __GLIBCXX__

// -------------------------------------------------------------- golden

struct Golden {
  std::uint64_t seed;
  Real uniform[8];
  Real uniform_m3_5[8];
  Real gaussian[8];
  bool chance_half[8];
  Real canonical[8];
  Real gaussian_bm[8];
  Real log_uniform[8];
  std::uint64_t integer_0_999[8];
};

const Golden kGolden[] = {
    {42,
     {0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1, 0x1.81192cfe1cbcfp-1,
      0x1.171621fc50d6ap-3, 0x1.ce79451c9a6c3p-1, 0x1.814dc629c7f4fp-4,
      0x1.262e1432cba85p-1, 0x1.7dd645e8fadeep-2},
     {0x1.85477df5bb978p+1, 0x1.0e5e3ee6e494p+1, 0x1.823259fc3979ep+1,
      -0x1.e8e9de03af296p+0, 0x1.0e79451c9a6c3p+2, -0x1.1fac8e758e02cp+1,
      0x1.98b850cb2ea14p+0, -0x1.14dd0b82909p-6},
     {0x1.68f438d8aec29p-1, -0x1.25efc127557c7p-1, -0x1.e81c87dfcf302p+0,
      -0x1.72c03dadaa429p-1, 0x1.ebf0591ff37c1p-7, 0x1.0c3638961767ep+0,
      -0x1.49206431b8f4ap-2, -0x1.46a7968a68bf4p-1},
     {false, false, false, true, false, true, false, true},
     {0x1.82a3befaddcbcp-1, 0x1.472f1f73724ap-1, 0x1.81192cfe1cbcfp-1,
      0x1.171621fc50d68p-3, 0x1.ce79451c9a6c3p-1, 0x1.814dc629c7f48p-4,
      0x1.262e1432cba84p-1, 0x1.7dd645e8fadeep-2},
     {0x1.4b37d0b4daa8fp+0, 0x1.68f438d8aec29p-1, 0x1.978762f4a05dcp-2,
      -0x1.25efc127557c4p-1, 0x1.1e599fb914974p+0, -0x1.e81c87dfcf307p+0,
      -0x1.7e03e64e8ab37p+0, -0x1.72c03dadaa429p-1},
     {0x1.0c72fe15c3068p+0, 0x1.707d66efaf1b9p-2, 0x1.051bbd2354ffap+0,
      0x1.cbd563f48e9c9p-9, 0x1.069394e48c2cep+2, 0x1.37bbb86f9be97p-9,
      0x1.9704055798cdp-3, 0x1.fc200d5b16a59p-6},
     {755, 639, 752, 136, 903, 94, 574, 372}},
    {20150309,
     {0x1.1bd7713414d2bp-1, 0x1.0affa7d9755d3p-4, 0x1.e756cbc028e82p-1,
      0x1.c6ba48dbf04b2p-2, 0x1.c960dfbd0445cp-1, 0x1.301b4eca5bd9ep-5,
      0x1.ad24bdceabea5p-3, 0x1.ac544b1a37afap-1},
     {0x1.6f5dc4d0534acp+0, -0x1.3d401609a2a8bp+1, 0x1.2756cbc028e82p+2,
      0x1.1ae9236fc12c8p-1, 0x1.0960dfbd0445cp+2, -0x1.59fc9626b484cp+1,
      -0x1.52db42315415bp+0, 0x1.d8a896346f5f4p+1},
     {-0x1.710fda22eb8aap-1, -0x1.3408fabbf73bbp-4, 0x1.09b6c5bd89cd2p-1,
      0x1.62d3cf2c5c6ccp-1, 0x1.1f18cd68f7ef3p-2, 0x1.7f5caf58e406ep+0,
      0x1.94e842523c494p-3, 0x1.afc8087e80e25p-11},
     {false, true, false, true, false, true, true, false},
     {0x1.1bd7713414d2bp-1, 0x1.0affa7d9755dp-4, 0x1.e756cbc028e82p-1,
      0x1.c6ba48dbf04b2p-2, 0x1.c960dfbd0445cp-1, 0x1.301b4eca5bd9p-5,
      0x1.ad24bdceabea4p-3, 0x1.ac544b1a37afap-1},
     {0x1.713d6e8cb7552p-4, -0x1.710fda22eb8a9p-1, 0x1.370f627e93015p-1,
      -0x1.3408fabbf73bbp-4, -0x1.ca9a89379ebfdp-2, 0x1.09b6c5bd89cd2p-1,
      -0x1.0a211416d74abp-7, 0x1.62d3cf2c5c6d1p-1},
     {0x1.51f129cb6832ap-3, 0x1.ddd68f3ccff8p-10, 0x1.9ab128dd23422p+2,
      0x1.e9681e45a285fp-5, 0x1.df2878dba5418p+1, 0x1.7100aeea000fep-10,
      0x1.c37e2af8dfb5bp-8, 0x1.1c23d80698e26p+1},
     {554, 65, 951, 444, 893, 37, 209, 836}},
};

template <typename Draw, typename T>
void expect_first_eight(std::uint64_t seed, Draw draw, const T (&want)[8],
                        const char* what) {
  dsp::Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(draw(rng), want[i]) << what << " seed " << seed << " #" << i;
  }
}

TEST(RngGolden, FirstValuesOfEveryDrawArePinned) {
  for (const Golden& g : kGolden) {
    expect_first_eight(g.seed, [](dsp::Rng& r) { return r.uniform(); },
                       g.uniform, "uniform()");
    expect_first_eight(
        g.seed, [](dsp::Rng& r) { return r.uniform(-3.0, 5.0); },
        g.uniform_m3_5, "uniform(-3, 5)");
    expect_first_eight(g.seed, [](dsp::Rng& r) { return r.gaussian(); },
                       g.gaussian, "gaussian()");
    expect_first_eight(g.seed, [](dsp::Rng& r) { return r.chance(0.5); },
                       g.chance_half, "chance(0.5)");
    expect_first_eight(g.seed, [](dsp::Rng& r) { return r.canonical(); },
                       g.canonical, "canonical()");
    expect_first_eight(g.seed, [](dsp::Rng& r) { return r.gaussian_bm(); },
                       g.gaussian_bm, "gaussian_bm()");
    expect_first_eight(
        g.seed, [](dsp::Rng& r) { return r.log_uniform(1e-3, 10.0); },
        g.log_uniform, "log_uniform(1e-3, 10)");
    expect_first_eight(
        g.seed, [](dsp::Rng& r) { return r.integer(0, 999); },
        g.integer_0_999, "integer(0, 999)");
  }
}

}  // namespace
