#include "bandit/gp_ucb.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gp/shared_prior_gp.h"
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

TEST(GpUcbTest, CreateValidatesOptions) {
  GpUcbOptions bad_delta;
  bad_delta.delta = 1.5;
  EXPECT_FALSE(GpUcbPolicy::Create(MakeBelief(3), bad_delta).ok());
  // NaN passes a plain `delta <= 0 || delta >= 1` check, and a non-finite
  // cost a plain `c <= 0` one.
  bad_delta.delta = std::nan("");
  EXPECT_EQ(GpUcbPolicy::Create(MakeBelief(3), bad_delta).status().code(),
            StatusCode::kInvalidArgument);

  GpUcbOptions missing_costs;
  missing_costs.cost_aware = true;
  EXPECT_FALSE(GpUcbPolicy::Create(MakeBelief(3), missing_costs).ok());

  GpUcbOptions bad_costs;
  bad_costs.cost_aware = true;
  bad_costs.costs = {1.0, 0.0, 1.0};
  EXPECT_FALSE(GpUcbPolicy::Create(MakeBelief(3), bad_costs).ok());
  for (double cost : {std::nan(""), HUGE_VAL}) {
    bad_costs.costs = {1.0, cost, 1.0};
    EXPECT_EQ(GpUcbPolicy::Create(MakeBelief(3), bad_costs).status().code(),
              StatusCode::kInvalidArgument)
        << "cost " << cost;
  }

  EXPECT_TRUE(GpUcbPolicy::Create(MakeBelief(3), GpUcbOptions()).ok());
}

TEST(GpUcbTest, BetaSchedulePractical) {
  auto policy = GpUcbPolicy::Create(MakeBelief(4), GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  // beta_t = log(K t^2 / delta) with K = 4, delta = 0.1.
  EXPECT_NEAR(policy->Beta(1), std::log(4.0 / 0.1), 1e-12);
  EXPECT_NEAR(policy->Beta(5), std::log(4.0 * 25.0 / 0.1), 1e-12);
  EXPECT_GT(policy->Beta(10), policy->Beta(2));  // increasing in t
}

TEST(GpUcbTest, BetaClampedAtZero) {
  // K = 1, delta close to 1: log(K t^2/delta) < 0 at t = 1 would make
  // sqrt(beta) undefined; the policy clamps at 0.
  GpUcbOptions opts;
  opts.delta = 0.999;
  auto policy = GpUcbPolicy::Create(MakeBelief(1), opts);
  ASSERT_TRUE(policy.ok());
  EXPECT_GE(policy->Beta(1), 0.0);
}

TEST(GpUcbTest, TheoreticalBetaLargerThanPractical) {
  GpUcbOptions practical;
  GpUcbOptions theoretical;
  theoretical.theoretical_beta = true;
  auto p = GpUcbPolicy::Create(MakeBelief(4), practical);
  auto t = GpUcbPolicy::Create(MakeBelief(4), theoretical);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(t.ok());
  for (int step : {1, 2, 10, 100}) {
    EXPECT_GT(t->Beta(step), p->Beta(step));
  }
}

TEST(GpUcbTest, UcbCombinesMeanAndStdDev) {
  auto policy =
      GpUcbPolicy::Create(MakeBelief(2, 0.01, {0.3, 0.8}), GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  const double beta = policy->Beta(1);
  EXPECT_NEAR(policy->Ucb(0, 1), 0.3 + std::sqrt(beta) * 1.0, 1e-12);
  EXPECT_NEAR(policy->Ucb(1, 1), 0.8 + std::sqrt(beta) * 1.0, 1e-12);
}

TEST(GpUcbTest, SelectsHighestPriorMeanWhenVariancesEqual) {
  auto policy = GpUcbPolicy::Create(MakeBelief(3, 0.01, {0.1, 0.9, 0.5}),
                                    GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  auto arm = policy->SelectArm({0, 1, 2}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 1);
}

TEST(GpUcbTest, RespectsAvailableSet) {
  auto policy = GpUcbPolicy::Create(MakeBelief(3, 0.01, {0.1, 0.9, 0.5}),
                                    GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  auto arm = policy->SelectArm({0, 2}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 2);
  EXPECT_FALSE(policy->SelectArm({}, 1).ok());
  EXPECT_FALSE(policy->SelectArm({7}, 1).ok());
  EXPECT_FALSE(policy->SelectArm({0}, 0).ok());
}

TEST(GpUcbTest, CostAwareIndexPenalizesExpensiveArms) {
  // Equal means and variances; arm 1 is 100x more expensive.
  GpUcbOptions opts;
  opts.cost_aware = true;
  opts.costs = {1.0, 100.0};
  auto policy = GpUcbPolicy::Create(MakeBelief(2), opts);
  ASSERT_TRUE(policy.ok());
  EXPECT_GT(policy->Ucb(0, 1), policy->Ucb(1, 1));
  auto arm = policy->SelectArm({0, 1}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 0);
}

TEST(GpUcbTest, ExpensiveArmStillWinsWithEnoughPotential) {
  // Arm 1 is costly but its mean advantage dominates once the posterior is
  // tight (small prior variance), so even sqrt(beta/c) cannot flip it —
  // "if it has very large potential reward, even an expensive arm is worth
  // a bet" (Section 3.2).
  auto cov = linalg::Matrix::Identity(2).Scale(0.01);
  auto belief = gp::DiscreteArmGp::Create(cov, 0.001, {0.1, 0.95});
  ASSERT_TRUE(belief.ok());
  GpUcbOptions opts;
  opts.cost_aware = true;
  opts.costs = {1.0, 50.0};
  auto policy = GpUcbPolicy::Create(std::move(belief).value(), opts);
  ASSERT_TRUE(policy.ok());
  auto arm = policy->SelectArm({0, 1}, 1);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 1);
}

TEST(GpUcbTest, UpdateShiftsSelectionAway) {
  // After observing a low reward on the best-prior arm, selection moves on.
  auto policy = GpUcbPolicy::Create(MakeBelief(2, 0.0001, {0.5, 0.5}),
                                    GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy->Update(0, 0.05).ok());
  auto arm = policy->SelectArm({0, 1}, 2);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 1);
}

TEST(GpUcbTest, NoRegretOnIndependentArms) {
  // Playing greedily with exclusion, GP-UCB must find the best arm within
  // K pulls and identify it exactly (deterministic rewards).
  const int k = 6;
  Rng rng(3);
  std::vector<double> truth(k);
  for (double& v : truth) v = rng.Uniform(0.2, 0.95);
  auto policy = GpUcbPolicy::Create(MakeBelief(k, 1e-4), GpUcbOptions());
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
  double truth_best = *std::max_element(truth.begin(), truth.end());
  EXPECT_DOUBLE_EQ(best_seen, truth_best);
}

TEST(GpUcbTest, NameReflectsCostAwareness) {
  auto plain = GpUcbPolicy::Create(MakeBelief(2), GpUcbOptions());
  GpUcbOptions opts;
  opts.cost_aware = true;
  opts.costs = {1.0, 2.0};
  auto aware = GpUcbPolicy::Create(MakeBelief(2), opts);
  EXPECT_EQ(plain->name(), "gp-ucb");
  EXPECT_EQ(aware->name(), "gp-ucb-cost-aware");
}

/// The policy is representation-agnostic: over identical priors, a
/// GP-UCB on `SharedPriorGp` must select the same arms and report the same
/// diagnostics as one on the dense `DiscreteArmGp`, round for round.
TEST(GpUcbTest, SharedPriorBeliefMatchesDenseBelief) {
  const int k = 7;
  Rng rng(17);
  // Correlated prior with distinct diagonals.
  linalg::Matrix cov(k, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      cov(i, j) = 0.4 * std::exp(-0.5 * (i - j) * (i - j));
    }
    cov(i, i) += 0.1 + 0.01 * i;
  }
  std::vector<double> mean(k);
  for (double& m : mean) m = rng.Uniform(0.3, 0.7);

  GpUcbOptions opts;
  opts.cost_aware = true;
  opts.costs.resize(k);
  for (double& c : opts.costs) c = rng.Uniform(0.5, 4.0);

  auto dense_belief = gp::DiscreteArmGp::Create(cov, 1e-3, mean);
  ASSERT_TRUE(dense_belief.ok());
  auto prior = gp::MakeSharedGpPrior(cov, 1e-3, mean);
  ASSERT_TRUE(prior.ok());
  auto shared_belief = gp::SharedPriorGp::CreateUnique(*prior);
  ASSERT_TRUE(shared_belief.ok());

  auto dense = GpUcbPolicy::Create(std::move(dense_belief).value(), opts);
  auto shared =
      GpUcbPolicy::Create(std::move(shared_belief).value(), opts);
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(shared.ok());

  std::vector<int> available;
  for (int a = 0; a < k; ++a) available.push_back(a);
  for (int t = 1; !available.empty(); ++t) {
    auto arm_dense = dense->SelectArm(available, t);
    auto arm_shared = shared->SelectArm(available, t);
    ASSERT_TRUE(arm_dense.ok());
    ASSERT_TRUE(arm_shared.ok());
    // The two representations agree to round-off, so the chosen arms'
    // indices may differ only on an exact UCB tie — compare the achieved
    // UCB values instead of the indices to keep the test tie-robust.
    EXPECT_NEAR(dense->Ucb(*arm_dense, t), shared->Ucb(*arm_shared, t),
                1e-9)
        << "t=" << t;
    for (int a : available) {
      EXPECT_NEAR(dense->Mean(a), shared->Mean(a), 1e-9);
      EXPECT_NEAR(dense->StdDev(a), shared->StdDev(a), 1e-9);
      EXPECT_NEAR(dense->Ucb(a, t), shared->Ucb(a, t), 1e-9);
    }
    // Feed both policies the dense-chosen arm so the campaigns stay in
    // lockstep regardless of tie-breaking.
    const double y = rng.Uniform(0.1, 0.9);
    ASSERT_TRUE(dense->Update(*arm_dense, y).ok());
    ASSERT_TRUE(shared->Update(*arm_dense, y).ok());
    available.erase(
        std::find(available.begin(), available.end(), *arm_dense));
  }
}

/// Correlated prior lets GP-UCB skip arms: after observing one arm of a
/// highly correlated pair, the twin's posterior variance collapses, so a
/// third independent arm is preferred — the Section 3.1 motivation for
/// GP-UCB over plain UCB.
TEST(GpUcbTest, CorrelationTransfersInformation) {
  auto cov = *linalg::Matrix::FromRowMajor(3, 3,
                                           {1.0, 0.99, 0.0,   //
                                            0.99, 1.0, 0.0,   //
                                            0.0, 0.0, 1.0});
  auto belief = gp::DiscreteArmGp::Create(cov, 1e-4);
  ASSERT_TRUE(belief.ok());
  auto policy = GpUcbPolicy::Create(std::move(belief).value(),
                                    GpUcbOptions());
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy->Update(0, 0.1).ok());  // arm 0 (and its twin 1) is bad
  auto arm = policy->SelectArm({1, 2}, 2);
  ASSERT_TRUE(arm.ok());
  EXPECT_EQ(*arm, 2);
}

}  // namespace
}  // namespace easeml::bandit
