#include "bandit/gp_acquisitions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace easeml::bandit {
namespace {

gp::DiscreteArmGp MakeBelief(int k, double noise = 0.01,
                             std::vector<double> mean = {}) {
  auto gp = gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), noise,
                                      std::move(mean));
  EXPECT_TRUE(gp.ok());
  return std::move(gp).value();
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804, 1e-9);
  // pdf is the derivative of cdf (finite-difference check).
  const double h = 1e-6;
  for (double z : {-1.5, -0.3, 0.0, 0.8, 2.1}) {
    EXPECT_NEAR((NormalCdf(z + h) - NormalCdf(z - h)) / (2 * h),
                NormalPdf(z), 1e-6);
  }
}

TEST(GpEiTest, ValidatesOptions) {
  GpAcquisitionOptions bad;
  bad.xi = -0.1;
  EXPECT_FALSE(GpEiPolicy::Create(MakeBelief(2), bad).ok());
  bad = GpAcquisitionOptions();
  bad.cost_aware = true;  // costs missing
  EXPECT_FALSE(GpEiPolicy::Create(MakeBelief(2), bad).ok());
  EXPECT_TRUE(GpEiPolicy::Create(MakeBelief(2), {}).ok());

  // NaN and infinities fail every range check, on all three policies.
  const double kNaN = std::nan("");
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<GpAcquisitionOptions> non_finite(4);
  non_finite[0].xi = kNaN;
  non_finite[1].xi = kInf;
  non_finite[2].cost_aware = true;
  non_finite[2].costs = {1.0, kNaN};
  non_finite[3].cost_aware = true;
  non_finite[3].costs = {1.0, kInf};
  for (size_t i = 0; i < non_finite.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const GpAcquisitionOptions& o = non_finite[i];
    auto ei = GpEiPolicy::Create(MakeBelief(2), o);
    EXPECT_EQ(ei.status().code(), StatusCode::kInvalidArgument);
    auto pi = GpPiPolicy::Create(MakeBelief(2), o);
    EXPECT_EQ(pi.status().code(), StatusCode::kInvalidArgument);
    auto ts = GpThompsonPolicy::Create(MakeBelief(2), o, /*seed=*/1);
    EXPECT_EQ(ts.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GpEiTest, PrefersHigherMeanAtEqualVariance) {
  auto policy =
      GpEiPolicy::Create(MakeBelief(3, 0.01, {0.2, 0.8, 0.5}), {});
  ASSERT_TRUE(policy.ok());
  auto arm = policy->SelectArm({0, 1, 2}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 1);
}

TEST(GpEiTest, AcquisitionIsNonNegativeAndShrinksWithIncumbent) {
  auto policy = GpEiPolicy::Create(MakeBelief(2, 0.0001, {0.5, 0.5}), {});
  ASSERT_TRUE(policy.ok());
  const double before = policy->Acquisition(1);
  EXPECT_GE(before, 0.0);
  // Observing an excellent reward on arm 0 raises the incumbent, so arm 1's
  // expected improvement over it shrinks.
  ASSERT_TRUE(policy->Update(0, 0.95).ok());
  EXPECT_LT(policy->Acquisition(1), before);
  EXPECT_DOUBLE_EQ(policy->best_observed(), 0.95);
}

TEST(GpEiTest, CostAwareDividesByCost) {
  GpAcquisitionOptions opts;
  opts.cost_aware = true;
  opts.costs = {1.0, 10.0};
  auto policy = GpEiPolicy::Create(MakeBelief(2, 0.01, {0.5, 0.5}), opts);
  ASSERT_TRUE(policy.ok());
  EXPECT_NEAR(policy->Acquisition(0) / policy->Acquisition(1), 10.0, 1e-9);
  auto arm = policy->SelectArm({0, 1}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 0);
}

TEST(GpEiTest, FindsBestArmOnDeterministicRewards) {
  Rng rng(4);
  const int k = 8;
  std::vector<double> truth(k);
  for (double& v : truth) v = rng.Uniform(0.2, 0.95);
  auto policy = GpEiPolicy::Create(MakeBelief(k, 1e-4), {});
  ASSERT_TRUE(policy.ok());
  std::vector<int> available;
  for (int a = 0; a < k; ++a) available.push_back(a);
  double best_seen = 0.0;
  for (int t = 1; !available.empty(); ++t) {
    auto arm = policy->SelectArm(available, t);
    ASSERT_TRUE(arm.ok());
    best_seen = std::max(best_seen, truth[*arm]);
    ASSERT_TRUE(policy->Update(*arm, truth[*arm]).ok());
    available.erase(std::find(available.begin(), available.end(), *arm));
  }
  EXPECT_DOUBLE_EQ(best_seen,
                   *std::max_element(truth.begin(), truth.end()));
}

TEST(GpPiTest, ProbabilityBoundedByOne) {
  auto policy = GpPiPolicy::Create(MakeBelief(3, 0.01, {0.2, 0.9, 0.5}), {});
  ASSERT_TRUE(policy.ok());
  for (int a = 0; a < 3; ++a) {
    EXPECT_GE(policy->Acquisition(a), 0.0);
    EXPECT_LE(policy->Acquisition(a), 1.0);
  }
  auto arm = policy->SelectArm({0, 1, 2}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 1);
}

TEST(GpPiTest, NearCertainImprovementApproachesOne) {
  auto policy = GpPiPolicy::Create(MakeBelief(2, 0.0001, {0.0, 0.9}), {});
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy->Update(0, 0.1).ok());  // incumbent 0.1
  EXPECT_GT(policy->Acquisition(1), 0.7);
}

TEST(GpThompsonTest, SamplesRespectAvailableSet) {
  auto policy = GpThompsonPolicy::Create(MakeBelief(4), {}, 3);
  ASSERT_TRUE(policy.ok());
  for (int t = 1; t <= 30; ++t) {
    auto arm = policy->SelectArm({1, 3}, t);
    ASSERT_TRUE(arm.ok());
    EXPECT_TRUE(*arm == 1 || *arm == 3);
  }
}

TEST(GpThompsonTest, ExploresAllArmsUnderFlatPrior) {
  auto policy = GpThompsonPolicy::Create(MakeBelief(4), {}, 7);
  ASSERT_TRUE(policy.ok());
  std::set<int> seen;
  for (int t = 1; t <= 200; ++t) {
    auto arm = policy->SelectArm({0, 1, 2, 3}, t);
    ASSERT_TRUE(arm.ok());
    seen.insert(*arm);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(GpThompsonTest, ConcentratesAfterStrongEvidence) {
  auto policy =
      GpThompsonPolicy::Create(MakeBelief(2, 1e-6, {0.0, 0.0}), {}, 11);
  ASSERT_TRUE(policy.ok());
  // Pin both arms with near-noiseless observations: 0 bad, 1 good.
  ASSERT_TRUE(policy->Update(0, 0.1).ok());
  ASSERT_TRUE(policy->Update(1, 0.9).ok());
  int picks_of_one = 0;
  for (int t = 3; t < 103; ++t) {
    auto arm = policy->SelectArm({0, 1}, t);
    ASSERT_TRUE(arm.ok());
    picks_of_one += (*arm == 1);
  }
  EXPECT_GT(picks_of_one, 95);
}

class AcquisitionSweepTest : public ::testing::TestWithParam<int> {};

/// Property: every acquisition policy, run to exhaustion on deterministic
/// rewards, recovers the true best arm (the no-regret property the paper
/// wants from any practical policy).
TEST_P(AcquisitionSweepTest, AllPoliciesRecoverTheBestArm) {
  const int seed = GetParam();
  Rng rng(seed);
  const int k = 10;
  std::vector<double> truth(k);
  for (double& v : truth) v = rng.Uniform(0.1, 0.95);
  const double best = *std::max_element(truth.begin(), truth.end());

  std::vector<std::unique_ptr<BanditPolicy>> policies;
  policies.push_back(std::make_unique<GpEiPolicy>(
      std::move(GpEiPolicy::Create(MakeBelief(k, 1e-4), {}).value())));
  policies.push_back(std::make_unique<GpPiPolicy>(
      std::move(GpPiPolicy::Create(MakeBelief(k, 1e-4), {}).value())));
  policies.push_back(std::make_unique<GpThompsonPolicy>(std::move(
      GpThompsonPolicy::Create(MakeBelief(k, 1e-4), {}, seed).value())));

  for (auto& policy : policies) {
    std::vector<int> available;
    for (int a = 0; a < k; ++a) available.push_back(a);
    double best_seen = 0.0;
    for (int t = 1; !available.empty(); ++t) {
      auto arm = policy->SelectArm(available, t);
      ASSERT_TRUE(arm.ok()) << policy->name();
      best_seen = std::max(best_seen, truth[*arm]);
      ASSERT_TRUE(policy->Update(*arm, truth[*arm]).ok());
      available.erase(std::find(available.begin(), available.end(), *arm));
    }
    EXPECT_DOUBLE_EQ(best_seen, best) << policy->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcquisitionSweepTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace easeml::bandit
