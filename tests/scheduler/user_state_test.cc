#include "scheduler/user_state.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bandit/fixed_order.h"
#include "bandit/gp_ucb.h"
#include "linalg/matrix.h"

namespace easeml::scheduler {
namespace {

std::unique_ptr<bandit::GpUcbPolicy> MakeGpPolicy(
    int k, std::vector<double> prior_mean = {}) {
  auto belief = gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), 0.01,
                                          std::move(prior_mean));
  EXPECT_TRUE(belief.ok());
  auto policy = bandit::GpUcbPolicy::CreateUnique(std::move(belief).value(),
                                                  bandit::GpUcbOptions());
  EXPECT_TRUE(policy.ok());
  return std::move(policy).value();
}

UserState MakeUser(int id, int k) {
  auto state =
      UserState::Create(id, MakeGpPolicy(k), std::vector<double>(k, 1.0));
  EXPECT_TRUE(state.ok());
  return std::move(state).value();
}

TEST(UserStateTest, CreateValidation) {
  EXPECT_FALSE(UserState::Create(0, nullptr, {1.0}).ok());
  EXPECT_FALSE(UserState::Create(0, MakeGpPolicy(3), {1.0}).ok());
  EXPECT_FALSE(UserState::Create(0, MakeGpPolicy(2), {1.0, -1.0}).ok());
  EXPECT_TRUE(UserState::Create(0, MakeGpPolicy(2), {1.0, 2.0}).ok());
}

TEST(UserStateTest, InitialState) {
  UserState u = MakeUser(3, 4);
  EXPECT_EQ(u.user_id(), 3);
  EXPECT_EQ(u.num_models(), 4);
  EXPECT_EQ(u.rounds_served(), 0);
  EXPECT_FALSE(u.Exhausted());
  EXPECT_FALSE(u.has_observations());
  EXPECT_DOUBLE_EQ(u.best_reward(), 0.0);
  EXPECT_TRUE(std::isinf(u.empirical_bound()));
  EXPECT_EQ(u.AvailableArms(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(u.policy().HasConfidenceBounds());
}

TEST(UserStateTest, SelectRecordProtocol) {
  UserState u = MakeUser(0, 3);
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  // Double selection without recording is a protocol violation.
  EXPECT_FALSE(u.SelectArm().ok());
  // Recording a different arm is rejected.
  EXPECT_FALSE(u.RecordOutcome((*arm + 1) % 3, 0.5).ok());
  EXPECT_TRUE(u.RecordOutcome(*arm, 0.7).ok());
  EXPECT_EQ(u.rounds_served(), 1);
  EXPECT_DOUBLE_EQ(u.best_reward(), 0.7);
  EXPECT_DOUBLE_EQ(u.last_reward(), 0.7);
  // Recording twice is rejected.
  EXPECT_FALSE(u.RecordOutcome(*arm, 0.7).ok());
}

TEST(UserStateTest, ArmsAreNeverReplayed) {
  UserState u = MakeUser(0, 3);
  std::set<int> played;
  for (int t = 0; t < 3; ++t) {
    auto arm = u.SelectArm();
    ASSERT_TRUE(arm.ok());
    EXPECT_TRUE(played.insert(*arm).second) << "arm replayed: " << *arm;
    ASSERT_TRUE(u.RecordOutcome(*arm, 0.5).ok());
  }
  EXPECT_TRUE(u.Exhausted());
  EXPECT_FALSE(u.SelectArm().ok());
  EXPECT_TRUE(u.AvailableArms().empty());
}

TEST(UserStateTest, ConsumedCostAccumulates) {
  auto state = UserState::Create(0, MakeGpPolicy(2), {0.5, 2.0});
  ASSERT_TRUE(state.ok());
  UserState u = std::move(state).value();
  double expected = 0.0;
  for (int t = 0; t < 2; ++t) {
    auto arm = u.SelectArm();
    ASSERT_TRUE(arm.ok());
    expected += u.ArmCost(*arm);
    ASSERT_TRUE(u.RecordOutcome(*arm, 0.5).ok());
  }
  EXPECT_DOUBLE_EQ(u.consumed_cost(), expected);
  EXPECT_DOUBLE_EQ(u.consumed_cost(), 2.5);
}

TEST(UserStateTest, EmpiricalBoundRecurrence) {
  // Single arm, prior mean 0.6: B_1(0) = 0.6 + sqrt(beta_1) * 1.
  auto state = UserState::Create(0, MakeGpPolicy(1, {0.6}), {1.0});
  ASSERT_TRUE(state.ok());
  UserState u = std::move(state).value();
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  const double pending_ucb = u.policy().Ucb(0, 1);
  ASSERT_TRUE(u.RecordOutcome(0, 0.55).ok());
  // sigma~ = min(B_1(a_1), +inf) - y_1.
  EXPECT_NEAR(u.empirical_bound(), pending_ucb - 0.55, 1e-12);
}

TEST(UserStateTest, EmpiricalBoundTightensOverRounds) {
  UserState u = MakeUser(0, 5);
  double prev_min_ucb = std::numeric_limits<double>::infinity();
  for (int t = 0; t < 5; ++t) {
    auto arm = u.SelectArm();
    ASSERT_TRUE(arm.ok());
    ASSERT_TRUE(u.RecordOutcome(*arm, 0.5).ok());
    // The recurrence keeps y + sigma~ non-increasing over rounds.
    const double ucb_proxy = u.last_reward() + u.empirical_bound();
    EXPECT_LE(ucb_proxy, prev_min_ucb + 1e-9);
    prev_min_ucb = std::min(prev_min_ucb, ucb_proxy);
  }
}

TEST(UserStateTest, CancelSelectionUnchargesTheArm) {
  UserState u = MakeUser(0, 3);
  EXPECT_FALSE(u.CancelSelection(0).ok());  // nothing pending
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  EXPECT_FALSE(u.CancelSelection((*arm + 1) % 3).ok());  // not that arm
  ASSERT_TRUE(u.CancelSelection(*arm).ok());
  // No observation happened; the arm is selectable again.
  EXPECT_FALSE(u.has_pending());
  EXPECT_EQ(u.rounds_served(), 0);
  EXPECT_DOUBLE_EQ(u.consumed_cost(), 0.0);
  EXPECT_EQ(u.AvailableArms().size(), 3u);
  auto again = u.SelectArm();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *arm);  // same belief state, same choice
  ASSERT_TRUE(u.RecordOutcome(*again, 0.5).ok());
}

TEST(UserStateTest, InFlightMaskAllowsConcurrentArms) {
  UserState u = MakeUser(0, 4);
  ASSERT_TRUE(u.set_max_in_flight(3).ok());
  EXPECT_FALSE(u.set_max_in_flight(0).ok());
  auto a = u.SelectArm();
  auto b = u.SelectArm();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);  // charged arms are excluded from reselection
  EXPECT_EQ(u.in_flight_count(), 2);
  EXPECT_TRUE(u.InFlight(*a));
  EXPECT_TRUE(u.Schedulable());  // a third slot and a third arm remain
  // Out-of-order completion: report b before a.
  ASSERT_TRUE(u.RecordOutcome(*b, 0.6).ok());
  ASSERT_TRUE(u.RecordOutcome(*a, 0.4).ok());
  EXPECT_EQ(u.rounds_served(), 2);
  EXPECT_DOUBLE_EQ(u.best_reward(), 0.6);
}

TEST(UserStateTest, MaxUcbOverAvailableArms) {
  UserState u = MakeUser(0, 2);
  const double max_ucb = u.MaxUcb();
  EXPECT_TRUE(std::isfinite(max_ucb));
  // UcbGap = MaxUcb - best_reward, best_reward = 0 initially.
  EXPECT_DOUBLE_EQ(u.UcbGap(), max_ucb);
  // Exhaust the user: MaxUcb becomes -inf.
  for (int t = 0; t < 2; ++t) {
    auto arm = u.SelectArm();
    ASSERT_TRUE(arm.ok());
    ASSERT_TRUE(u.RecordOutcome(*arm, 0.9).ok());
  }
  EXPECT_TRUE(std::isinf(u.MaxUcb()));
  EXPECT_LT(u.MaxUcb(), 0);
}

TEST(UserStateTest, NonGpPolicyHasNoConfidenceBounds) {
  auto fixed = bandit::FixedOrderPolicy::Create({2, 0, 1}, "fixed");
  ASSERT_TRUE(fixed.ok());
  auto state = UserState::Create(
      0, std::make_unique<bandit::FixedOrderPolicy>(std::move(fixed).value()),
      {1.0, 1.0, 1.0});
  ASSERT_TRUE(state.ok());
  UserState u = std::move(state).value();
  EXPECT_FALSE(u.policy().HasConfidenceBounds());
  // The protocol still works; the pending UCB falls back to 1.
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  ASSERT_TRUE(u.RecordOutcome(*arm, 0.4).ok());
  EXPECT_NEAR(u.empirical_bound(), 1.0 - 0.4, 1e-12);
}

}  // namespace
}  // namespace easeml::scheduler
