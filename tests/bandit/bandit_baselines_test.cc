#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bandit/fixed_order.h"

namespace easeml::bandit {
namespace {

TEST(FixedOrderTest, CreateValidatesPermutation) {
  EXPECT_FALSE(FixedOrderPolicy::Create({}, "x").ok());
  EXPECT_FALSE(FixedOrderPolicy::Create({0, 0, 1}, "x").ok());
  EXPECT_FALSE(FixedOrderPolicy::Create({0, 3}, "x").ok());
  EXPECT_TRUE(FixedOrderPolicy::Create({2, 0, 1}, "x").ok());
}

TEST(FixedOrderTest, PlaysInPreferenceOrderSkippingPlayed) {
  auto policy = FixedOrderPolicy::Create({2, 0, 1}, "most-cited");
  ASSERT_TRUE(policy.ok());
  std::vector<int> available = {0, 1, 2};
  std::vector<int> played;
  for (int t = 1; t <= 3; ++t) {
    auto arm = policy->SelectArm(available, t);
    ASSERT_TRUE(arm.ok());
    played.push_back(*arm);
    ASSERT_TRUE(policy->Update(*arm, 0.5).ok());
    available.erase(std::find(available.begin(), available.end(), *arm));
  }
  EXPECT_EQ(played, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(policy->name(), "most-cited");
}

TEST(OrderByScoreTest, DescendingWithStableTies) {
  // Scores: citations. Ties keep lower index first.
  const std::vector<double> scores = {100, 500, 500, 50};
  EXPECT_EQ(OrderByScoreDescending(scores), (std::vector<int>{1, 2, 0, 3}));
}

TEST(OrderByScoreTest, EmptyInput) {
  EXPECT_TRUE(OrderByScoreDescending({}).empty());
}

}  // namespace
}  // namespace easeml::bandit
