/// Exactness and order-invariance of ExactDoubleSum. It carries the
/// candidate index's bit-identical-replay guarantee: candidate-set
/// thresholds are evaluated without rounding, and a running sum that
/// values enter and leave in ANY order must reproduce the sequential
/// accumulation exactly. The MeanCut tests hold the one-compare threshold
/// test to CompareScaled, its oracle.
#include "common/exact_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace easeml {
namespace {

TEST(ExactDoubleSumTest, EmptySumIsZero) {
  ExactDoubleSum sum;
  EXPECT_EQ(sum.Sign(), 0);
  EXPECT_EQ(sum.Value(), 0.0);
  // 0 * n == empty sum.
  EXPECT_EQ(sum.CompareScaled(0.0, 17), 0);
  EXPECT_EQ(sum.CompareScaled(1.0, 3), 1);
  EXPECT_EQ(sum.CompareScaled(-1.0, 3), -1);
}

TEST(ExactDoubleSumTest, PointOneTimesThreeIsExact) {
  // Naive double arithmetic gets this wrong: 0.1 + 0.1 + 0.1 != 3 * 0.1
  // and (0.1*3)/3 > 0.1. The exact comparison must report equality.
  ExactDoubleSum sum;
  sum.Add(0.1);
  sum.Add(0.1);
  sum.Add(0.1);
  EXPECT_EQ(sum.CompareScaled(0.1, 3), 0);
  EXPECT_EQ(sum.CompareScaled(std::nextafter(0.1, 1.0), 3), 1);
  EXPECT_EQ(sum.CompareScaled(std::nextafter(0.1, 0.0), 3), -1);
}

TEST(ExactDoubleSumTest, CancellationIsExact) {
  ExactDoubleSum sum;
  sum.Add(1e300);
  sum.Add(1.0);
  sum.Add(-1e300);
  // Double arithmetic would have swallowed the 1.0 entirely.
  EXPECT_EQ(sum.Sign(), 1);
  EXPECT_EQ(sum.CompareScaled(1.0, 1), 0);
  sum.Add(-1.0);
  EXPECT_EQ(sum.Sign(), 0);
}

TEST(ExactDoubleSumTest, HandlesFullExponentRange) {
  ExactDoubleSum sum;
  const double kTiny = 5e-324;  // least subnormal
  sum.Add(kTiny);
  sum.Add(1e308);
  sum.Add(-1e308);
  EXPECT_EQ(sum.Sign(), 1);
  EXPECT_EQ(sum.CompareScaled(kTiny, 1), 0);
}

TEST(ExactDoubleSumTest, NegativeValuesAndSign) {
  ExactDoubleSum sum;
  sum.Add(-0.25);
  sum.Add(-0.5);
  EXPECT_EQ(sum.Sign(), -1);
  EXPECT_DOUBLE_EQ(sum.Value(), -0.75);
  EXPECT_EQ(sum.CompareScaled(-0.375, 2), 0);  // mean is exactly -0.375
}

TEST(ExactDoubleSumTest, ValueMatchesSimpleSums) {
  ExactDoubleSum sum;
  sum.Add(1.5);
  sum.Add(2.25);
  sum.Add(-0.75);
  EXPECT_DOUBLE_EQ(sum.Value(), 3.0);
}

TEST(ExactDoubleSumTest, OrderAndPartitionInvariance) {
  Rng rng(20260730);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    // Wildly varying magnitudes to provoke rounding differences in any
    // floating-point accumulation order.
    const double mag = std::ldexp(rng.Uniform(-1.0, 1.0),
                                  rng.UniformInt(-60, 60));
    values.push_back(mag);
  }
  ExactDoubleSum sequential;
  for (double v : values) sequential.Add(v);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> shuffled = values;
    rng.Shuffle(shuffled);
    // The same values in another order, with transient values added in
    // between and removed at the end — how the candidate index's running
    // sum sees bounds enter and leave. The sums are exact, so neither the
    // order nor the transients can show.
    ExactDoubleSum running;
    std::vector<double> transient;
    for (double v : shuffled) {
      running.Add(v);
      if (rng.UniformInt(0, 3) == 0) {
        transient.push_back(
            std::ldexp(rng.Uniform(-1.0, 1.0), rng.UniformInt(-60, 60)));
        running.Add(transient.back());
      }
    }
    for (double t : transient) running.AddProduct(t, -1);
    // Exact equality of the abstract sums: differences of the two
    // accumulators must vanish for every probe comparison.
    for (double probe : {values[0], values[7], 0.0, 1e-30, -3.25}) {
      for (int64_t n : {int64_t{1}, int64_t{3}, int64_t{200}}) {
        EXPECT_EQ(running.CompareScaled(probe, n),
                  sequential.CompareScaled(probe, n));
      }
    }
    EXPECT_EQ(running.Compare(sequential), 0);
    EXPECT_EQ(running.Value(), sequential.Value());  // bit-identical
    EXPECT_EQ(running.Sign(), sequential.Sign());
  }
}

TEST(ExactDoubleSumTest, ManyAdditionsNormalizeCorrectly) {
  ExactDoubleSum sum;
  constexpr int kCount = 100000;
  for (int i = 0; i < kCount; ++i) sum.Add(0.125);  // exactly representable
  EXPECT_EQ(sum.CompareScaled(0.125, kCount), 0);
  EXPECT_DOUBLE_EQ(sum.Value(), 0.125 * kCount);
}

/// Checks MeanCut(n) against its oracle, CompareScaled: for every finite
/// probe, "x * n >= sum" must hold exactly when x >= cut, and the cut must
/// be the smallest double that passes. Probes: the cut and 1-8 ulps
/// around it, 1-8 ulps around the rounded mean Value()/n, `inputs`, +-0
/// and +-DBL_MAX.
void ExpectExactCut(const ExactDoubleSum& sum, int64_t n,
                    const std::vector<double>& inputs,
                    const std::string& label) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double cut = sum.MeanCut(n);
  ASSERT_FALSE(std::isnan(cut)) << label;
  ASSERT_NE(cut, -kInf) << label;
  if (cut != kInf) {
    EXPECT_GE(sum.CompareScaled(cut, n), 0) << label;
    if (cut > -kMax) {  // minimal: the next double down fails
      EXPECT_LT(sum.CompareScaled(std::nextafter(cut, -kInf), n), 0)
          << label << " cut=" << cut;
    }
  }
  std::vector<double> probes = {0.0, -0.0, kMax, -kMax};
  probes.insert(probes.end(), inputs.begin(), inputs.end());
  for (const double center : {cut, sum.Value() / static_cast<double>(n)}) {
    if (!std::isfinite(center)) continue;
    probes.push_back(center);
    double up = center;
    double down = center;
    for (int ulp = 1; ulp <= 8; ++ulp) {
      up = std::nextafter(up, kInf);
      down = std::nextafter(down, -kInf);
      probes.push_back(up);
      probes.push_back(down);
    }
  }
  for (const double x : probes) {
    if (!std::isfinite(x)) continue;
    ASSERT_EQ(sum.CompareScaled(x, n) >= 0, x >= cut)
        << label << ": probe " << x << " vs cut " << cut << " (n=" << n
        << ")";
  }
}

TEST(ExactDoubleSumTest, MeanCutMatchesExactComparisonOnRandomMultisets) {
  Rng rng(20261017);
  for (int trial = 0; trial < 120; ++trial) {
    const int sizes[] = {1, 2, 3, 7, 64, 999, 5000};
    const int n = sizes[rng.UniformInt(0, 6)];
    // Magnitude regimes: one binade (typical sigma~ bounds), a few dozen
    // binades, the whole range 1e-300..1e300, and subnormals only.
    const int regime = trial % 4;
    std::vector<double> values;
    ExactDoubleSum sum;
    for (int i = 0; i < n; ++i) {
      double v = 0.0;
      switch (regime) {
        case 0:
          v = rng.Uniform(0.05, 0.95);
          break;
        case 1:
          v = std::ldexp(rng.Uniform(0.5, 1.0), rng.UniformInt(-30, 30));
          break;
        case 2:
          v = std::ldexp(rng.Uniform(0.5, 1.0), rng.UniformInt(-996, 996));
          break;
        default:  // subnormal inputs, so the sum is subnormal or tiny
          v = std::ldexp(static_cast<double>(rng.UniformInt(1, 1 << 20)),
                         -1074);
          break;
      }
      if (regime != 0 && rng.UniformInt(0, 2) == 0) v = -v;
      values.push_back(v);
      sum.Add(v);
    }
    ExpectExactCut(sum, n, values,
                   "trial " + std::to_string(trial) + " regime " +
                       std::to_string(regime));
  }
}

TEST(ExactDoubleSumTest, MeanCutIsTheMeanWhenRepresentable) {
  // All-equal inputs: the mean is the input itself, across the range.
  for (const double x : {0.1, 1.0 / 3.0, -2.5, 5e-324, -5e-324, 1e-310, 1e300,
                         std::numeric_limits<double>::max()}) {
    for (const int n : {1, 2, 3, 1000}) {
      ExactDoubleSum sum;
      for (int i = 0; i < n; ++i) sum.Add(x);
      EXPECT_EQ(sum.MeanCut(n), x) << x << " x" << n;
      ExpectExactCut(sum, n, {x}, "all-equal " + std::to_string(x));
    }
  }
  // An exactly representable mean of distinct inputs.
  ExactDoubleSum quarters;
  for (const double v : {0.25, 0.5, 0.75}) quarters.Add(v);
  EXPECT_EQ(quarters.MeanCut(3), 0.5);
  ExpectExactCut(quarters, 3, {0.25, 0.5, 0.75}, "quarters");
  // A mean between two doubles: the cut is the double just above it.
  ExactDoubleSum thirds;
  thirds.Add(1.0);
  EXPECT_EQ(thirds.MeanCut(3), std::nextafter(1.0 / 3.0, 1.0));
  ExpectExactCut(thirds, 3, {1.0}, "one third");
  // The empty sum: 0 * n >= 0, and nothing below 0 passes.
  ExpectExactCut(ExactDoubleSum(), 5, {}, "empty");
  EXPECT_EQ(ExactDoubleSum().MeanCut(5), 0.0);
}

TEST(ExactDoubleSumTest, MeanCutAtLargeCounts) {
  // n near 2^31, built with AddProduct(x, n): the mean is x, and sums of
  // large x overflow double (Value() == inf) while the cut stays exact.
  for (const int64_t n : {(int64_t{1} << 31) - 1, (int64_t{1} << 31) - 5,
                          int64_t{1} << 30}) {
    for (const double x : {0.1, -0.7, 1e-300, 1e300, 3e307}) {
      ExactDoubleSum sum;
      sum.AddProduct(x, n);
      EXPECT_EQ(sum.MeanCut(n), x) << x << " x" << n;
      ExpectExactCut(sum, n, {x}, "AddProduct " + std::to_string(x));
      // Nudge the sum by one least subnormal either way: the mean leaves
      // the doubles, and the cut must move to x's upper neighbour or stay.
      for (const double nudge : {5e-324, -5e-324}) {
        ExactDoubleSum near = sum;
        near.Add(nudge);
        const double above_x =
            std::nextafter(x, std::numeric_limits<double>::infinity());
        EXPECT_EQ(near.MeanCut(n), nudge > 0 ? above_x : x);
        ExpectExactCut(near, n, {x}, "nudged " + std::to_string(x));
      }
    }
  }
}

TEST(ExactDoubleSumTest, MeanCutOutsideTheDoubleRange) {
  constexpr double kMax = std::numeric_limits<double>::max();
  // A mean above DBL_MAX: no finite double passes.
  ExactDoubleSum above;
  above.AddProduct(kMax, 2);
  EXPECT_EQ(above.MeanCut(1), std::numeric_limits<double>::infinity());
  ExpectExactCut(above, 1, {kMax}, "above DBL_MAX");
  // A mean below -DBL_MAX: every finite double passes.
  ExactDoubleSum below;
  below.AddProduct(-kMax, 2);
  EXPECT_EQ(below.MeanCut(1), -kMax);
  ExpectExactCut(below, 1, {-kMax}, "below -DBL_MAX");
}

}  // namespace
}  // namespace easeml
