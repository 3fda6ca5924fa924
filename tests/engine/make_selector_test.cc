/// The engine factory and the pinned HYBRID trace, beside the harness
/// whose `Accuracy`, `Costs` and `MakeOptions` they use: `num_shards`
/// reaches `ShardSizes()` and `ShardCpuSeconds()` at N in {1, 4}, and one
/// full campaign is pinned event by event.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "shard/sharded_selector.h"

namespace easeml::engine_test {
namespace {

using shard::MakeSelector;

/// There is one engine: `MultiTenantSelector::Create` and the factory both
/// honor `num_shards` (tenant `t` on shard `t % N`), both refuse N = 0, and
/// both accept the full ticketed protocol.
TEST(MakeSelectorTest, SelectsEngineByShardCount) {
  constexpr int kTenants = 6;
  constexpr int kModels = 3;
  for (int n : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const SelectorOptions options = MakeOptions(SchedulerKind::kGreedy, 1, n);
    auto created = MultiTenantSelector::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto made = MakeSelector(options);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    std::vector<int> sizes(static_cast<size_t>(n), 0);
    for (int t = 0; t < kTenants; ++t) ++sizes[static_cast<size_t>(t % n)];
    for (MultiTenantSelector* engine : {&created.value(), made->get()}) {
      EXPECT_EQ(engine->num_shards(), n);
      EXPECT_EQ(engine->ShardSizes(), std::vector<int>(n, 0));
      EXPECT_EQ(engine->ShardCpuSeconds(), std::vector<double>(n, 0.0));
      for (int t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(
            engine->AddTenantWithDefaultPrior(kModels, Costs(t, kModels))
                .ok());
      }
      EXPECT_EQ(engine->ShardSizes(), sizes);
      auto a = engine->Next();
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      EXPECT_TRUE(engine->Report(*a, Accuracy(a->tenant, a->model)).ok());
      EXPECT_EQ(engine->RoundsServed(a->tenant).value(), 1);
      const Status valid = engine->ValidateIndex();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }

  const SelectorOptions bad = MakeOptions(SchedulerKind::kGreedy, 1, 0);
  EXPECT_EQ(MultiTenantSelector::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeSelector(bad).status().code(), StatusCode::kInvalidArgument);
}

/// Golden trace: the full HYBRID campaign (T=6, K=3, D=2) on the 4-shard
/// engine, pinned event by event. Guards the whole stack — the candidate
/// index, exact candidate threshold, argmax tie-breaks, ticket
/// accounting — against silent drift; by the lockstep suite the same
/// trace is what the scan engine and every other configuration produce.
TEST(ShardedGoldenTraceTest, PinnedHybridCampaign) {
  static const char* const kGolden[] = {
      "N 0 0 0",   "N 1 2 1",   "R 0 0 0",   "N 2 1 2",   "R 2 1 2",
      "N 3 0 3",   "R 1 2 1",   "N 4 2 4",   "R 4 2 4",   "N 5 1 5",
      "R 3 0 3",   "N 3 1 6",   "R 3 1 6",   "N 5 2 7",   "R 5 1 5",
      "N 2 2 8",   "R 2 2 8",   "N 2 0 9",   "R 2 0 9",   "N 3 2 10",
      "R 5 2 7",   "N 1 0 11",  "R 3 2 10",  "N 4 0 12",  "R 1 0 11",
      "N 1 1 13",  "R 4 0 12",  "N 4 1 14",  "R 1 1 13",  "N 5 0 15",
      "R 4 1 14",  "N 0 1 16",  "R 0 1 16",  "N 0 2 17",  "R 0 2 17",
      "R 5 0 15",  "B 0 0",     "B 1 2",     "B 2 1",     "B 3 2",
      "B 4 2",     "B 5 2",
  };
  auto engine = MakeSelector(MakeOptions(SchedulerKind::kHybrid, 2, 4));
  ASSERT_TRUE(engine.ok());
  MultiTenantSelector* selector = engine->get();
  constexpr int kTenants = 6;
  constexpr int kModels = 3;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        selector->AddTenantWithDefaultPrior(kModels, Costs(t, kModels)).ok());
  }
  Rng rng(2026);
  std::vector<Assignment> outstanding;
  std::vector<std::string> trace;
  while (true) {
    while (selector->HasDispatchableWork()) {
      auto a = selector->Next();
      ASSERT_TRUE(a.ok());
      trace.push_back("N " + std::to_string(a->tenant) + " " +
                      std::to_string(a->model) + " " + std::to_string(a->id));
      outstanding.push_back(*a);
    }
    if (outstanding.empty()) break;
    const int pick =
        rng.UniformInt(0, static_cast<int>(outstanding.size()) - 1);
    const Assignment a = outstanding[pick];
    outstanding.erase(outstanding.begin() + pick);
    ASSERT_TRUE(selector->Report(a, Accuracy(a.tenant, a.model)).ok());
    trace.push_back("R " + std::to_string(a.tenant) + " " +
                    std::to_string(a.model) + " " + std::to_string(a.id));
  }
  for (int t = 0; t < kTenants; ++t) {
    trace.push_back("B " + std::to_string(t) + " " +
                    std::to_string(selector->BestModel(t).value_or(-1)));
  }
  ASSERT_EQ(trace.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], kGolden[i]) << "golden-trace drift at event " << i;
  }
}

/// Placement is a function of the id: adds spread tenants round-robin over
/// the shards, and a removal retires its tenant in place — only its own
/// shard's live count drops and no other tenant moves. The 1-shard engine
/// reports every live tenant on its one shard.
TEST(MakeSelectorTest, RemovalShrinksOnlyItsOwnShard) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto engine =
        MakeSelector(MakeOptions(SchedulerKind::kFcfs, 1, num_shards));
    ASSERT_TRUE(engine.ok());
    MultiTenantSelector* selector = engine->get();
    std::vector<int> expected(static_cast<size_t>(num_shards), 0);
    for (int t = 0; t < 18; ++t) {
      ASSERT_TRUE(selector->AddTenantWithDefaultPrior(3, {1.0, 1.0, 1.0}).ok());
      ++expected[static_cast<size_t>(t % num_shards)];
    }
    EXPECT_EQ(selector->ShardSizes(), expected);
    for (int victim : {2, 9, 6}) {
      ASSERT_TRUE(selector->RemoveTenant(victim).ok());
      --expected[static_cast<size_t>(victim % num_shards)];
      EXPECT_EQ(selector->ShardSizes(), expected) << "removed " << victim;
      const Status valid = selector->ValidateIndex();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }
}

}  // namespace
}  // namespace easeml::engine_test
