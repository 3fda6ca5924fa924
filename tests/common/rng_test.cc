#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace easeml {
namespace {

TEST(RngTest, DeterministicUnderSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.5);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.5);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  rng.Bernoulli(0.3, n, [&hits](bool hit) { hits += hit ? 1 : 0; });
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BatchedBernoulliMatchesStdDistributionBitForBit) {
  // Twin engines: one makes the batched draws, the other calls the
  // library's distribution once per draw. Every flip and the engine state
  // afterwards must agree, at the edges of [0, 1] as well as inside.
  const int n = 100000;
  for (const double p : {0.0, 1e-300, 0.1, 0.3, 0.5,
                         std::nextafter(1.0, 0.0), 1.0}) {
    SCOPED_TRACE(p);
    Rng batched(77), reference(77);
    std::vector<bool> flips;
    flips.reserve(n);
    batched.Bernoulli(p, n, [&flips](bool flip) { flips.push_back(flip); });
    ASSERT_EQ(flips.size(), static_cast<size_t>(n));
    std::bernoulli_distribution dist(p);
    int mismatches = 0;
    for (int i = 0; i < n; ++i) {
      mismatches += flips[i] != dist(reference.engine()) ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(batched.SaveState(), reference.SaveState());
  }
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> s = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(s.size(), 8u);
    std::set<int> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 8u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(3);
  std::vector<int> s = rng.SampleWithoutReplacement(5, 5);
  std::sort(s.begin(), s.end());
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementZero) {
  Rng rng(3);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(77);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, MultivariateNormalIdentityCovariance) {
  Rng rng(21);
  const int n = 3;
  // chol(I) = I, row-major.
  std::vector<double> chol = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> mean = {10.0, 20.0, 30.0};
  double sums[3] = {0, 0, 0};
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    auto x = rng.MultivariateNormal(mean, chol, n);
    for (int i = 0; i < n; ++i) sums[i] += x[i];
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(sums[i] / reps, mean[i], 0.05);
  }
}

TEST(RngTest, MultivariateNormalCorrelationStructure) {
  Rng rng(22);
  // Covariance [[1, .9], [.9, 1]]: chol = [[1,0],[0.9, sqrt(0.19)]].
  std::vector<double> chol = {1.0, 0.0, 0.9, std::sqrt(0.19)};
  std::vector<double> mean = {0.0, 0.0};
  double sxy = 0;
  const int reps = 30000;
  for (int r = 0; r < reps; ++r) {
    auto x = rng.MultivariateNormal(mean, chol, 2);
    sxy += x[0] * x[1];
  }
  EXPECT_NEAR(sxy / reps, 0.9, 0.05);
}

TEST(RngTest, NextSeedProducesDistinctStreams) {
  Rng parent(1);
  Rng c1(parent.NextSeed()), c2(parent.NextSeed());
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.Uniform() == c2.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace easeml
