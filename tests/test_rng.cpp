#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace nrn {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(5);
  double total = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.uniform01();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleIsNotIdentityUsually) {
  Rng rng(31);
  std::vector<int> v(64);
  for (int i = 0; i < 64; ++i) v[static_cast<size_t>(i)] = i;
  auto before = v;
  rng.shuffle(v);
  EXPECT_NE(v, before);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng a(99), b(99);
  Rng a0 = a.split(0);
  Rng b0 = b.split(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a0(), b0());

  Rng c(99);
  Rng c1 = c.split(1);
  Rng c2 = c.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1() == c2()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitMix64KnownAnswer) {
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64(s), 0xe220a8397b1dcdafULL);
}

// ------------------------------------------------- v3 skip-sampling paths

TEST(Rng, CoinThresholdEdges) {
  EXPECT_EQ(Rng::coin_threshold(0.0), 0u);
  EXPECT_EQ(Rng::coin_threshold(-1.0), 0u);
  EXPECT_EQ(Rng::coin_threshold(1.0), Rng::kNoSuccess);
  EXPECT_EQ(Rng::coin_threshold(0.5), std::uint64_t{1} << 63);
  // Monotone in p and approximately proportional.
  EXPECT_LT(Rng::coin_threshold(0.25), Rng::coin_threshold(0.26));
  EXPECT_NEAR(static_cast<double>(Rng::coin_threshold(0.3)) * 0x1.0p-64, 0.3,
              1e-12);
}

TEST(Rng, BernoulliSkipEdgesConsumeNothing) {
  Rng rng(41);
  Rng untouched(41);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.bernoulli_skip(0.0), Rng::kNoSuccess);
    EXPECT_EQ(rng.bernoulli_skip(-0.5), Rng::kNoSuccess);
    EXPECT_EQ(rng.bernoulli_skip(1.0), 0u);
    EXPECT_EQ(rng.bernoulli_skip_pow2(0), 0u);
  }
  // The stream did not advance.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), untouched());
}

TEST(Rng, BernoulliSkipTapeIsDeterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(a.bernoulli_skip(0.37), b.bernoulli_skip(0.37));
  // Exactly one draw per gap: a raw stream clone stays in lockstep.
  Rng c(7), raw(7);
  for (int i = 0; i < 100; ++i) {
    c.bernoulli_skip(0.37);
    raw();
  }
  EXPECT_EQ(c(), raw());
}

TEST(Rng, DyadicFastPathMatchesGeneralPath) {
  for (const std::int32_t i : {1, 2, 3, 5, 10, 20, 40, 63}) {
    Rng general(1234), dyadic(1234);
    const double p = std::ldexp(1.0, -i);
    for (int draw = 0; draw < 300; ++draw)
      ASSERT_EQ(dyadic.bernoulli_skip_pow2(i), general.bernoulli_skip(p))
          << "i=" << i << " draw=" << draw;
  }
}

TEST(Rng, BernoulliSkipRejectsNegativeExponent) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli_skip_pow2(-1), ContractViolation);
}

/// Chi-squared goodness of fit of observed gap counts against the
/// geometric distribution P(gap = g) = p (1-p)^g, buckets 0..cutoff-1 plus
/// a tail bucket.
double geometric_chi_squared(Rng& rng, double p, int samples, int cutoff,
                             bool dyadic, std::int32_t exponent) {
  std::vector<double> observed(static_cast<std::size_t>(cutoff) + 1, 0.0);
  for (int s = 0; s < samples; ++s) {
    const std::uint64_t gap =
        dyadic ? rng.bernoulli_skip_pow2(exponent) : rng.bernoulli_skip(p);
    const auto bucket = gap >= static_cast<std::uint64_t>(cutoff)
                            ? static_cast<std::size_t>(cutoff)
                            : static_cast<std::size_t>(gap);
    observed[bucket] += 1.0;
  }
  double chi = 0.0, q = 1.0;
  for (int g = 0; g < cutoff; ++g) {
    const double expected = samples * p * q;
    chi += (observed[static_cast<std::size_t>(g)] - expected) *
           (observed[static_cast<std::size_t>(g)] - expected) / expected;
    q *= 1.0 - p;
  }
  const double tail = samples * q;  // P(gap >= cutoff) = (1-p)^cutoff
  chi += (observed[static_cast<std::size_t>(cutoff)] - tail) *
         (observed[static_cast<std::size_t>(cutoff)] - tail) / tail;
  return chi;
}

TEST(Rng, BernoulliSkipIsGeometricChiSquared) {
  // 15 degrees of freedom; the 99.9th percentile of chi2(15) is 37.7.
  Rng rng(555);
  EXPECT_LT(geometric_chi_squared(rng, 0.3, 200000, 15, false, 0), 37.7);
}

TEST(Rng, DyadicSkipIsGeometricChiSquared) {
  // p = 2^-3; 15 dof again.
  Rng rng(556);
  EXPECT_LT(geometric_chi_squared(rng, 0.125, 200000, 15, true, 3), 37.7);
}

TEST(Rng, ForEachBernoulliEdges) {
  Rng rng(60);
  std::vector<std::size_t> hits;
  rng.for_each_bernoulli(100, 1.0, [&](std::size_t i) { hits.push_back(i); });
  ASSERT_EQ(hits.size(), 100u);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i);

  hits.clear();
  rng.for_each_bernoulli(100, 0.0, [&](std::size_t i) { hits.push_back(i); });
  EXPECT_TRUE(hits.empty());
  rng.for_each_bernoulli(0, 0.5, [&](std::size_t i) { hits.push_back(i); });
  EXPECT_TRUE(hits.empty());
}

TEST(Rng, ForEachBernoulliSelectionFrequencyMatchesP) {
  Rng rng(61);
  const double p = 0.2;
  std::int64_t selected = 0;
  const int rounds = 2000, count = 100;
  for (int r = 0; r < rounds; ++r)
    rng.for_each_bernoulli(count, p, [&](std::size_t) { ++selected; });
  EXPECT_NEAR(static_cast<double>(selected) / (rounds * count), p, 0.01);
  // And per-index marginals are uniform: index 0 and index count-1 are
  // selected equally often.
  Rng rng2(62);
  std::int64_t first = 0, last = 0;
  for (int r = 0; r < 20000; ++r)
    rng2.for_each_bernoulli(10, 0.3, [&](std::size_t i) {
      first += i == 0 ? 1 : 0;
      last += i == 9 ? 1 : 0;
    });
  EXPECT_NEAR(static_cast<double>(first) / 20000, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(last) / 20000, 0.3, 0.02);
}

TEST(Rng, ForEachBernoulliPow2BitChunkedRegimeMatchesP) {
  // i <= 2 uses bit-chunked coins (64/i indices per draw); the selection
  // frequency and per-index marginals must still match 2^-i exactly.
  for (const std::int32_t i : {1, 2}) {
    Rng rng(70 + static_cast<std::uint64_t>(i));
    const double p = std::ldexp(1.0, -i);
    std::int64_t selected = 0;
    std::vector<std::int64_t> per_index(100, 0);
    const int rounds = 4000;
    for (int r = 0; r < rounds; ++r)
      rng.for_each_bernoulli_pow2(100, i, [&](std::size_t idx) {
        ++selected;
        ++per_index[idx];
      });
    EXPECT_NEAR(static_cast<double>(selected) / (rounds * 100), p, 0.01);
    // Indices straddling draw boundaries (63/64 for i=1) stay unbiased.
    EXPECT_NEAR(static_cast<double>(per_index[63]) / rounds, p, 0.04);
    EXPECT_NEAR(static_cast<double>(per_index[64 / i]) / rounds, p, 0.04);
  }
}

TEST(Rng, ForEachBernoulliPow2MatchesGeneralTape) {
  Rng a(63), b(63);
  std::vector<std::size_t> via_pow2, via_general;
  for (int r = 0; r < 200; ++r) {
    a.for_each_bernoulli_pow2(64, 4, [&](std::size_t i) {
      via_pow2.push_back(i);
    });
    b.for_each_bernoulli(64, std::ldexp(1.0, -4), [&](std::size_t i) {
      via_general.push_back(i);
    });
  }
  EXPECT_EQ(via_pow2, via_general);
}

TEST(Rng, Mix64BatchMatchesScalarGathered) {
  // The batch mixer must equal mix64 coin by coin for arbitrary gathered
  // indices -- exactness, not statistical agreement.
  Rng meta(2718);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t salt = meta();
    const std::size_t count = 1 + meta.next_below(3 * Rng::kCoinBatch);
    std::vector<std::uint64_t> index(count), out(count);
    for (auto& idx : index) idx = meta();
    Rng::mix64_batch(salt, index.data(), out.data(), count);
    for (std::size_t j = 0; j < count; ++j)
      ASSERT_EQ(out[j], Rng::mix64(salt, index[j]))
          << "trial " << trial << " lane " << j;
  }
}

TEST(Rng, Mix64BatchMatchesScalarConsecutive) {
  Rng meta(3141);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t salt = meta();
    const std::uint64_t first = meta();
    const std::size_t count = 1 + meta.next_below(100);
    std::vector<std::uint64_t> out(count);
    Rng::mix64_batch(salt, first, out.data(), count);
    for (std::size_t j = 0; j < count; ++j)
      ASSERT_EQ(out[j], Rng::mix64(salt, first + j))
          << "trial " << trial << " lane " << j;
  }
}

TEST(Rng, CoinThresholdBatchMatchesScalarCoins) {
  Rng meta(1618);
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 1.0}) {
    const std::uint64_t threshold = Rng::coin_threshold(p);
    for (int trial = 0; trial < 20; ++trial) {
      const std::uint64_t salt = meta();
      const std::uint64_t first = meta();
      const std::size_t count = 1 + meta.next_below(64);
      const std::uint64_t hits =
          Rng::coin_threshold_batch(salt, first, count, threshold);
      for (std::size_t j = 0; j < count; ++j) {
        const bool scalar = Rng::mix64(salt, first + j) < threshold;
        ASSERT_EQ((hits >> j) & 1u, scalar ? 1u : 0u)
            << "p=" << p << " trial " << trial << " coin " << j;
      }
      // Bits past `count` stay clear: callers iterate set bits directly.
      if (count < 64) {
        EXPECT_EQ(hits >> count, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace nrn
