#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bandit/fixed_order.h"
#include "bandit/gp_ucb.h"
#include "common/binary_io.h"
#include "linalg/matrix.h"
#include "scheduler/greedy.h"
#include "scheduler/hybrid.h"
#include "scheduler/round_robin.h"

namespace easeml::scheduler {
namespace {

UserState MakeGpUser(int id, int k, std::vector<double> prior_mean = {}) {
  auto belief = gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), 0.01,
                                          std::move(prior_mean));
  EXPECT_TRUE(belief.ok());
  auto policy = bandit::GpUcbPolicy::CreateUnique(std::move(belief).value(),
                                                  bandit::GpUcbOptions());
  EXPECT_TRUE(policy.ok());
  auto state = UserState::Create(id, std::move(policy).value(),
                                 std::vector<double>(k, 1.0));
  EXPECT_TRUE(state.ok());
  return std::move(state).value();
}

void ServeOnce(UserState& u, double reward) {
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  ASSERT_TRUE(u.RecordOutcome(*arm, reward).ok());
}

TEST(CandidateSetTest, EmptyForNoActiveUsers) {
  std::vector<UserState> users;
  EXPECT_TRUE(ComputeCandidateSet(users).empty());
}

TEST(CandidateSetTest, UnobservedUsersAlwaysCandidates) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 3));
  users.push_back(MakeGpUser(1, 3));
  ServeOnce(users[0], 0.9);
  // User 1 has no observations (sigma~ = inf): always a candidate.
  const auto candidates = ComputeCandidateSet(users);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 1),
            candidates.end());
}

TEST(CandidateSetTest, AboveAverageRuleSelectsHighBoundUsers) {
  std::vector<UserState> users;
  for (int i = 0; i < 3; ++i) users.push_back(MakeGpUser(i, 4));
  // User 0 observes a reward close to its UCB (small sigma~); users 1 and 2
  // observe rewards far below (large sigma~, much left to gain).
  ServeOnce(users[0], users[0].MaxUcb() - 0.01);
  ServeOnce(users[1], 0.05);
  ServeOnce(users[2], 0.05);
  const auto candidates = ComputeCandidateSet(users);
  EXPECT_EQ(candidates, (std::vector<int>{1, 2}));
}

TEST(GreedyTest, RequiresGpPolicies) {
  std::vector<UserState> users;
  auto fixed = bandit::FixedOrderPolicy::Create({0, 1}, "fixed");
  ASSERT_TRUE(fixed.ok());
  auto state = UserState::Create(
      0, std::make_unique<bandit::FixedOrderPolicy>(std::move(fixed).value()),
      {1.0, 1.0});
  ASSERT_TRUE(state.ok());
  users.push_back(std::move(state).value());
  GreedyScheduler greedy;
  EXPECT_FALSE(greedy.PickUser(users, 1).ok());
}

TEST(GreedyTest, PicksUserWithLargestUcbGap) {
  std::vector<UserState> users;
  // User 0 already found an excellent model; user 1 is far from its bound.
  users.push_back(MakeGpUser(0, 3, {0.9, 0.1, 0.1}));
  users.push_back(MakeGpUser(1, 3, {0.9, 0.1, 0.1}));
  ServeOnce(users[0], 0.95);  // nearly optimal already
  ServeOnce(users[1], 0.30);  // large remaining gap
  GreedyScheduler greedy;
  auto pick = greedy.PickUser(users, 3);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1);
}

TEST(GreedyTest, FailsWhenAllExhausted) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 1));
  ServeOnce(users[0], 0.5);
  GreedyScheduler greedy;
  EXPECT_FALSE(greedy.PickUser(users, 2).ok());
}

TEST(GreedyTest, SkipsExhaustedUsers) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 1));  // will be exhausted
  users.push_back(MakeGpUser(1, 3));
  ServeOnce(users[0], 0.2);
  ServeOnce(users[1], 0.2);
  GreedyScheduler greedy;
  auto pick = greedy.PickUser(users, 3);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1);
}

TEST(HybridTest, StartsInGreedyMode) {
  HybridScheduler hybrid(10);
  EXPECT_FALSE(hybrid.switched());
  EXPECT_EQ(hybrid.name(), "hybrid");
}

TEST(HybridTest, SwitchesAfterFrozenSteps) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 20));
  users.push_back(MakeGpUser(1, 20));
  ServeOnce(users[0], 0.9);
  ServeOnce(users[1], 0.1);
  HybridScheduler hybrid(/*patience=*/3);
  // Feed identical "no progress" outcomes: best rewards never improve and
  // the candidate set stays stable.
  for (int step = 0; step < 2; ++step) {
    auto pick = hybrid.PickUser(users, step + 3);
    ASSERT_TRUE(pick.ok());
    ServeOnce(users[*pick], 0.05);  // below both bests; no improvement
    hybrid.OnOutcome(users, *pick);
  }
  EXPECT_FALSE(hybrid.switched());
  for (int step = 0; step < 3; ++step) {
    auto pick = hybrid.PickUser(users, step + 5);
    ASSERT_TRUE(pick.ok());
    ServeOnce(users[*pick], 0.05);
    hybrid.OnOutcome(users, *pick);
  }
  EXPECT_TRUE(hybrid.switched());
}

TEST(HybridTest, ProgressResetsFreezeCounter) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 30));
  users.push_back(MakeGpUser(1, 30));
  ServeOnce(users[0], 0.2);
  ServeOnce(users[1], 0.2);
  HybridScheduler hybrid(/*patience=*/4);
  double reward = 0.3;
  for (int step = 0; step < 12; ++step) {
    auto pick = hybrid.PickUser(users, step + 3);
    ASSERT_TRUE(pick.ok());
    // Strictly improving rewards: the freeze detector must never fire.
    reward += 0.02;
    ServeOnce(users[*pick], reward);
    hybrid.OnOutcome(users, *pick);
  }
  EXPECT_FALSE(hybrid.switched());
}

TEST(HybridTest, RoundRobinAfterSwitch) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 50));
  users.push_back(MakeGpUser(1, 50));
  users.push_back(MakeGpUser(2, 50));
  for (auto& u : users) ServeOnce(u, 0.5);
  HybridScheduler hybrid(/*patience=*/1);
  // One stagnant outcome flips the switch (patience 1).
  {
    auto pick = hybrid.PickUser(users, 4);
    ASSERT_TRUE(pick.ok());
    ServeOnce(users[*pick], 0.01);
    hybrid.OnOutcome(users, *pick);
    auto pick2 = hybrid.PickUser(users, 5);
    ASSERT_TRUE(pick2.ok());
    ServeOnce(users[*pick2], 0.01);
    hybrid.OnOutcome(users, *pick2);
  }
  ASSERT_TRUE(hybrid.switched());
  // After the switch, picks cycle round-robin over all active users.
  std::set<int> seen;
  for (int t = 0; t < 3; ++t) {
    auto pick = hybrid.PickUser(users, t + 6);
    ASSERT_TRUE(pick.ok());
    seen.insert(*pick);
    ServeOnce(users[*pick], 0.01);
    hybrid.OnOutcome(users, *pick);
  }
  EXPECT_EQ(seen.size(), 3u);
}

}  // namespace
}  // namespace easeml::scheduler

namespace easeml::scheduler {
namespace {

TEST(Line8RuleTest, AllRulesNamed) {
  EXPECT_EQ(Line8RuleName(Line8Rule::kMaxUcbGap), "max-ucb-gap");
  EXPECT_EQ(Line8RuleName(Line8Rule::kMaxEmpiricalBound),
            "max-empirical-bound");
  EXPECT_EQ(Line8RuleName(Line8Rule::kRandom), "random-candidate");
}

TEST(Line8RuleTest, MaxEmpiricalBoundPicksLargestSigma) {
  std::vector<UserState> users;
  for (int i = 0; i < 3; ++i) users.push_back(MakeGpUser(i, 4));
  // Larger gap between pending UCB and reward => larger sigma~.
  ServeOnce(users[0], 0.60);
  ServeOnce(users[1], 0.05);  // largest sigma~
  ServeOnce(users[2], 0.40);
  GreedyScheduler greedy(Line8Rule::kMaxEmpiricalBound);
  auto pick = greedy.PickUser(users, 4);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 1);
}

TEST(Line8RuleTest, RandomRuleStaysInsideCandidateSet) {
  std::vector<UserState> users;
  for (int i = 0; i < 4; ++i) users.push_back(MakeGpUser(i, 6));
  // User 0 nearly reaches its bound: below-average sigma~, not a candidate.
  ServeOnce(users[0], users[0].MaxUcb() - 0.001);
  for (int i = 1; i < 4; ++i) ServeOnce(users[i], 0.05);
  const auto candidates = ComputeCandidateSet(users);
  ASSERT_FALSE(candidates.empty());
  GreedyScheduler greedy(Line8Rule::kRandom, /*seed=*/7);
  for (int t = 0; t < 30; ++t) {
    auto pick = greedy.PickUser(users, t + 5);
    ASSERT_TRUE(pick.ok());
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), *pick),
              candidates.end());
  }
}

TEST(Line8RuleTest, HybridAcceptsRuleAndSeed) {
  HybridScheduler hybrid(10, Line8Rule::kRandom, 3);
  EXPECT_EQ(hybrid.name(), "hybrid");
  EXPECT_FALSE(hybrid.switched());
}

/// HYBRID's durable blob with a chosen frozen-step count and candidate
/// snapshot, followed by the nested GREEDY state of a fresh policy and a
/// ROUNDROBIN state with a chosen cursor: what a checkpoint holds, with
/// only those fields crafted.
std::string CraftedHybridState(int32_t frozen_steps,
                               const std::vector<int>& candidates,
                               int32_t cursor = 0) {
  std::string out;
  PutU8(&out, 0);  // not switched
  PutI32(&out, frozen_steps);
  PutU8(&out, 1);  // snapshot present
  PutI32Vec(&out, candidates);
  PutDouble(&out, 1.5);
  GreedyScheduler().SaveDurable(&out);
  PutI32(&out, cursor);  // RoundRobinScheduler's whole durable state
  return out;
}

/// State corrupt enough to pass a checkpoint's CRC must fail the load
/// loudly (DataLoss) instead of steering the freeze detector or the
/// round-robin phase after the switch: the policy never writes a negative
/// frozen-step count, a negative tenant id, a candidate list that is not
/// strictly ascending, or a negative round-robin cursor.
TEST(HybridTest, LoadDurableRejectsCorruptFreezeState) {
  {
    const std::string good = CraftedHybridState(2, {0, 3, 7});
    std::string_view in = good;
    HybridScheduler hybrid;
    ASSERT_TRUE(hybrid.LoadDurable(&in).ok());
    EXPECT_TRUE(in.empty());
    std::string again;
    hybrid.SaveDurable(&again);
    EXPECT_EQ(again, good);
  }
  const struct {
    const char* what;
    int32_t frozen_steps;
    std::vector<int> candidates;
    int32_t cursor;
  } kCorrupt[] = {
      {"negative frozen-step count", -1, {0, 3}, 0},
      {"negative tenant id", 0, {-2, 3}, 0},
      {"descending ids", 0, {3, 1}, 0},
      {"duplicate id", 0, {2, 2, 5}, 0},
      {"negative round-robin cursor", 0, {0, 3}, -1},
  };
  for (const auto& c : kCorrupt) {
    const std::string bytes =
        CraftedHybridState(c.frozen_steps, c.candidates, c.cursor);
    std::string_view in = bytes;
    HybridScheduler hybrid;
    const Status loaded = hybrid.LoadDurable(&in);
    EXPECT_EQ(loaded.code(), StatusCode::kDataLoss) << c.what;
  }
}

}  // namespace
}  // namespace easeml::scheduler
