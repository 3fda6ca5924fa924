#include "core/multi_tenant_selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace easeml::core {
namespace {

MultiTenantSelector MakeSelector(SchedulerKind kind = SchedulerKind::kHybrid,
                                 bool cost_aware = false) {
  SelectorOptions opts;
  opts.scheduler = kind;
  opts.cost_aware = cost_aware;
  auto s = MultiTenantSelector::Create(opts);
  EXPECT_TRUE(s.ok());
  return std::move(s).value();
}

TEST(SelectorTest, CreateValidatesOptions) {
  SelectorOptions bad;
  bad.delta = 0.0;
  EXPECT_FALSE(MultiTenantSelector::Create(bad).ok());
  bad.delta = std::nan("");  // passes a plain `delta <= 0 || delta >= 1`
  EXPECT_EQ(MultiTenantSelector::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = SelectorOptions();
  bad.hybrid_patience = 0;
  EXPECT_FALSE(MultiTenantSelector::Create(bad).ok());
  EXPECT_TRUE(MultiTenantSelector::Create(SelectorOptions()).ok());
}

TEST(SelectorTest, SchedulerKindNames) {
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kHybrid), "hybrid");
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kGreedy), "greedy");
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kRoundRobin), "round-robin");
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kRandom), "random");
  EXPECT_EQ(SchedulerKindName(SchedulerKind::kFcfs), "fcfs");
}

TEST(SelectorTest, EmptySelectorIsExhausted) {
  auto s = MakeSelector();
  EXPECT_TRUE(s.Exhausted());
  EXPECT_FALSE(s.Next().ok());
}

TEST(SelectorTest, AddTenantValidation) {
  auto s = MakeSelector();
  EXPECT_FALSE(s.AddTenantWithDefaultPrior(0, {}).ok());
  EXPECT_FALSE(s.AddTenantWithDefaultPrior(2, {1.0}).ok());
  // Non-finite costs: refused by the tenant state here (cost-oblivious);
  // GpUcbTest covers the cost-aware policy's own check.
  for (double cost : {std::nan(""), HUGE_VAL}) {
    EXPECT_EQ(s.AddTenantWithDefaultPrior(2, {1.0, cost}).status().code(),
              StatusCode::kInvalidArgument)
        << "cost " << cost;
  }
  auto id = s.AddTenantWithDefaultPrior(2, {1.0, 1.0});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0);
  EXPECT_EQ(s.num_tenants(), 1);
}

TEST(SelectorTest, SharedPriorTenantsRunFullCampaign) {
  auto s = MakeSelector(SchedulerKind::kGreedy, /*cost_aware=*/true);
  auto prior = gp::MakeSharedGpPrior(linalg::Matrix::Identity(3), 1e-2);
  ASSERT_TRUE(prior.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.AddTenant(*prior, {1.0, 2.0, 3.0}).ok());
  }
  // All three tenants reference the same Gram matrix allocation.
  EXPECT_EQ(prior->use_count(), 4);
  int steps = 0;
  while (!s.Exhausted()) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(s.Report(*a, 0.4 + 0.1 * a->model).ok());
    ASSERT_LT(++steps, 100);
  }
  EXPECT_EQ(steps, 9);
  for (int i = 0; i < 3; ++i) {
    auto best = s.BestModel(i);
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(*best, 2);  // accuracy increases with the model index
  }
}

TEST(SelectorTest, NextReportLoopDrivesAllModels) {
  auto s = MakeSelector();
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(3, {1, 1, 1}).ok());
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(2, {1, 1}).ok());
  std::set<std::pair<int, int>> assignments;
  while (!s.Exhausted()) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(assignments.insert({a->tenant, a->model}).second)
        << "duplicate assignment";
    ASSERT_TRUE(s.Report(*a, 0.5 + 0.01 * a->model).ok());
  }
  EXPECT_EQ(assignments.size(), 5u);  // 3 + 2, each exactly once
}

TEST(SelectorTest, OneOutstandingAssignmentAtATime) {
  auto s = MakeSelector();
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(2, {1, 1}).ok());
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(s.Next().ok());  // pending report
  // Reporting a mismatched assignment is rejected.
  MultiTenantSelector::Assignment wrong = *a;
  wrong.model = (wrong.model + 1) % 2;
  EXPECT_FALSE(s.Report(wrong, 0.5).ok());
  EXPECT_TRUE(s.Report(*a, 0.5).ok());
  // Reporting twice is rejected.
  EXPECT_FALSE(s.Report(*a, 0.5).ok());
}

TEST(SelectorTest, InitialSweepServesEveryTenantOnce) {
  auto s = MakeSelector(SchedulerKind::kGreedy);
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(s.AddTenantWithDefaultPrior(3, {1, 1, 1}).ok());
  }
  std::set<int> served;
  for (int step = 0; step < 4; ++step) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok());
    served.insert(a->tenant);
    ASSERT_TRUE(s.Report(*a, 0.5).ok());
  }
  EXPECT_EQ(served.size(), 4u);
}

TEST(SelectorTest, BestModelTracksReports) {
  auto s = MakeSelector();
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(3, {1, 1, 1}).ok());
  EXPECT_FALSE(s.BestModel(0).ok());
  EXPECT_FALSE(s.BestModel(5).ok());  // out of range

  // Report decreasing accuracies: the first model stays the best.
  std::vector<double> accs = {0.9, 0.5, 0.3};
  int first_model = -1;
  for (int i = 0; i < 3; ++i) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok());
    if (i == 0) first_model = a->model;
    ASSERT_TRUE(s.Report(*a, accs[i]).ok());
  }
  auto best = s.BestModel(0);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, first_model);
  auto best_acc = s.BestAccuracy(0);
  ASSERT_TRUE(best_acc.ok());
  EXPECT_DOUBLE_EQ(*best_acc, 0.9);
  auto rounds = s.RoundsServed(0);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 3);
}

TEST(SelectorTest, TenantAddedMidStreamGetsServed) {
  auto s = MakeSelector(SchedulerKind::kRoundRobin);
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(2, {1, 1}).ok());
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(s.Report(*a, 0.4).ok());
  // A new tenant arrives; the sweep rule must serve it next.
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(2, {1, 1}).ok());
  auto b = s.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->tenant, 1);
  ASSERT_TRUE(s.Report(*b, 0.6).ok());
}

class SelectorSchedulerKindTest
    : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SelectorSchedulerKindTest, FullCampaignTerminates) {
  auto s = MakeSelector(GetParam(), /*cost_aware=*/true);
  ASSERT_TRUE(s.AddTenant(
                   *gp::MakeSharedGpPrior(linalg::Matrix::Identity(4), 0.01),
                   {0.5, 1.0, 2.0, 4.0})
                  .ok());
  ASSERT_TRUE(s.AddTenantWithDefaultPrior(3, {1, 1, 1}).ok());
  int steps = 0;
  while (!s.Exhausted()) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok()) << SchedulerKindName(GetParam());
    ASSERT_TRUE(s.Report(*a, 0.3).ok());
    ASSERT_LT(++steps, 100);
  }
  EXPECT_EQ(steps, 7);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SelectorSchedulerKindTest,
                         ::testing::Values(SchedulerKind::kHybrid,
                                           SchedulerKind::kGreedy,
                                           SchedulerKind::kRoundRobin,
                                           SchedulerKind::kRandom,
                                           SchedulerKind::kFcfs));

/// Regression for the default-prior cache's bounded-growth guarantee: a
/// long-lived service whose tenant churn retires (K, noise) shapes must
/// not accumulate dead weak_ptr entries — EVERY lookup (hits included)
/// sweeps expired slots, so the raw map size collapses back to the live
/// shapes on the next AddTenantWithDefaultPrior of any kind.
TEST(SelectorTest, DefaultPriorCachePrunesDeadShapesOnLookup) {
  // A live anchor shape that persists across the churn below.
  auto anchor = MakeSelector();
  ASSERT_TRUE(anchor.AddTenantWithDefaultPrior(3, {1.0, 1.0, 1.0}).ok());
  const int live_floor = DefaultPriorCacheSizeForTesting();

  {
    // Churned shapes: distinct (K, noise) entries that die with this
    // selector (the prior is shared only by its tenants).
    auto churned = MakeSelector();
    for (int k = 4; k < 14; ++k) {
      ASSERT_TRUE(
          churned.AddTenantWithDefaultPrior(k, std::vector<double>(k, 1.0))
              .ok());
    }
    EXPECT_GE(DefaultPriorCacheSizeForTesting(), live_floor + 10);
  }
  // The weak_ptrs are dead but unswept: the raw size still includes them.
  EXPECT_GE(DefaultPriorCacheSizeForTesting(), live_floor + 10);

  // A pure cache HIT (the anchor's live shape) must sweep all ten.
  ASSERT_TRUE(anchor.AddTenantWithDefaultPrior(3, {1.0, 1.0, 1.0}).ok());
  EXPECT_EQ(DefaultPriorCacheSizeForTesting(), live_floor);
}

}  // namespace
}  // namespace easeml::core
