#include "dsp/stats.hpp"
#include "dsp/types.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

namespace datc::dsp {

Real mean(std::span<const Real> x) {
  if (x.empty()) return 0.0;
  Real acc = 0.0;
  for (const Real v : x) acc += v;
  return acc / static_cast<Real>(x.size());
}

Real variance(std::span<const Real> x) {
  if (x.size() < 2) return 0.0;
  const Real m = mean(x);
  Real acc = 0.0;
  for (const Real v : x) acc += (v - m) * (v - m);
  return acc / static_cast<Real>(x.size());
}

Real std_dev(std::span<const Real> x) { return std::sqrt(variance(x)); }

Real rms(std::span<const Real> x) {
  if (x.empty()) return 0.0;
  Real acc = 0.0;
  for (const Real v : x) acc += v * v;
  return std::sqrt(acc / static_cast<Real>(x.size()));
}

Real min_value(std::span<const Real> x) {
  require(!x.empty(), "min_value: empty input");
  return *std::min_element(x.begin(), x.end());
}

Real max_value(std::span<const Real> x) {
  require(!x.empty(), "max_value: empty input");
  return *std::max_element(x.begin(), x.end());
}

Real percentile(std::span<const Real> x, Real p) {
  require(!x.empty(), "percentile: empty input");
  require(p >= 0.0 && p <= 100.0, "percentile: p outside [0,100]");
  std::vector<Real> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const Real pos = p / 100.0 * static_cast<Real>(sorted.size() - 1);
  const auto i0 = static_cast<std::size_t>(pos);
  const Real frac = pos - static_cast<Real>(i0);
  if (i0 + 1 >= sorted.size()) return sorted.back();
  return sorted[i0] + frac * (sorted[i0 + 1] - sorted[i0]);
}

namespace {

/// Two independent Real lanes (GCC/Clang vector extension: SSE2 on
/// x86-64, NEON on aarch64). Lane arithmetic is the scalar IEEE
/// operation, so two add chains packed here keep the bits each would
/// have on its own.
using RealPair = Real __attribute__((vector_size(sizeof(Real) * 2)));

/// One series, or two side by side in RealPair lanes so that each keeps
/// its own add chain.
template <std::size_t K>
using Lanes = std::conditional_t<K == 1, Real, RealPair>;

/// pearson(a[:n], b_k) for the K series b_k of length n: one loop for
/// the means of a and every b_k, one for the moments. Each sum is
/// pearson's sequential add chain, so the bits are pearson's.
template <std::size_t K>
void pearson_group(const Real* a, std::array<const Real*, K> b,
                   std::size_t n, Real* out) {
  const auto at = [&b](std::size_t i) {
    if constexpr (K == 1) {
      return b[0][i];
    } else {
      return Lanes<K>{b[0][i], b[1][i]};
    }
  };
  Real sa = 0.0;
  Lanes<K> sb{};
  for (std::size_t i = 0; i < n; ++i) {
    sa += a[i];
    sb += at(i);
  }
  const auto len = static_cast<Real>(n);
  const Real ma = sa / len;
  const Lanes<K> mb = sb / len;
  Real saa = 0.0;
  Lanes<K> sab{};
  Lanes<K> sbb{};
  for (std::size_t i = 0; i < n; ++i) {
    const Real da = a[i] - ma;
    const Lanes<K> db = at(i) - mb;
    sab += da * db;
    saa += da * da;
    sbb += db * db;
  }
  for (std::size_t k = 0; k < K; ++k) {
    Real ab = 0.0;
    Real bb = 0.0;
    if constexpr (K == 1) {
      ab = sab;
      bb = sbb;
    } else {
      ab = sab[k];
      bb = sbb[k];
    }
    out[k] = saa <= 0.0 || bb <= 0.0 ? 0.0 : ab / std::sqrt(saa * bb);
  }
}

}  // namespace

void pearson_many(std::span<const Real> a,
                  std::span<const std::span<const Real>> bs,
                  std::span<Real> out) {
  require(out.size() == bs.size(), "pearson_many: output size mismatch");
  for (std::size_t k = 0; k < bs.size();) {
    const std::size_t n = bs[k].size();
    require(n <= a.size(), "pearson_many: series longer than a");
    require(n >= 2, "pearson: need at least 2 samples");
    if (k + 1 < bs.size() && bs[k + 1].size() == n) {
      pearson_group<2>(a.data(), {bs[k].data(), bs[k + 1].data()}, n,
                       &out[k]);
      k += 2;
    } else {
      pearson_group<1>(a.data(), {bs[k].data()}, n, &out[k]);
      k += 1;
    }
  }
}

Real pearson(std::span<const Real> a, std::span<const Real> b) {
  require(a.size() == b.size(), "pearson: size mismatch");
  Real r = 0.0;
  pearson_many(a, std::span<const std::span<const Real>>(&b, 1),
               std::span<Real>(&r, 1));
  return r;
}

Real correlation_percent(std::span<const Real> a, std::span<const Real> b) {
  return 100.0 * pearson(a, b);
}

Real normal_q(Real x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

Real normal_q_inv(Real p) {
  require(p > 0.0 && p < 1.0, "normal_q_inv: p outside (0,1)");
  Real lo = -8.5;
  Real hi = 8.5;
  for (int i = 0; i < 100; ++i) {
    const Real mid = (lo + hi) / 2.0;
    if (normal_q(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

Summary summarize(std::span<const Real> x) {
  Summary s;
  s.min = min_value(x);
  s.max = max_value(x);
  s.mean = mean(x);
  s.std_dev = std_dev(x);
  s.p05 = percentile(x, 5.0);
  s.p50 = percentile(x, 50.0);
  s.p95 = percentile(x, 95.0);
  return s;
}

}  // namespace datc::dsp
