/// The raced battery (harness.h `RunRacedBattery`) at each engine
/// configuration tier1.sh's tsan preset races: client threads on their own
/// generator streams against a churn thread, then a run to exhaustion
/// matched against the sequential engine. The assertions are structural
/// (documented Status codes, in-flight accounting, ticket conservation);
/// the bit-identical guarantees live in the lockstep suite.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "shard/sharded_selector.h"

namespace easeml::engine_test {
namespace {

using shard::MakeSelector;

/// HYBRID under churn at 1 and 4 shards, on the scan and on the index.
Battery ChurnBattery(int shards, bool use_index) {
  Battery b;
  b.kind = SchedulerKind::kHybrid;
  b.shards = shards;
  b.use_index = use_index;
  b.tenants = 24;
  b.ops = 400;
  b.max_adds = 8;
  return b;
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemove) {
  RunRacedBattery(ChurnBattery(/*shards=*/4, /*use_index=*/false));
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveIndexed) {
  RunRacedBattery(ChurnBattery(/*shards=*/4, /*use_index=*/true));
}

// The 1-shard engine is the same engine and takes the same lock.
TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveOneShard) {
  RunRacedBattery(ChurnBattery(/*shards=*/1, /*use_index=*/false));
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveIndexedOneShard) {
  RunRacedBattery(ChurnBattery(/*shards=*/1, /*use_index=*/true));
}

/// GREEDY's and HYBRID's report paths on the index under churn; HYBRID's
/// outcome hook reads the index change log.
TEST(ReportPipelineStressTest, RacedReportersAsyncGreedy) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Battery b;
    b.kind = SchedulerKind::kGreedy;
    b.shards = shards;
    RunRacedBattery(b);
  }
}

TEST(ReportPipelineStressTest, RacedReportersDrainingHybrid) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Battery b;
    b.kind = SchedulerKind::kHybrid;
    b.shards = shards;
    RunRacedBattery(b);
  }
}

/// Four clients run the campaign to exhaustion; the final per-tenant
/// state must be the sequential engine's.
TEST(ReportPipelineStressTest, RacedExhaustionMatchesSequentialEngine) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Battery b;
    b.kind = SchedulerKind::kGreedy;
    b.shards = shards;
    b.tenants = 12;
    b.models = 5;
    b.clients = 4;
    b.ops = 0;
    RunRacedBattery(b);
  }
}

/// Concurrent selector CONSTRUCTION against the process-wide default-prior
/// cache (one prior per (K, noise), mutex-guarded).
TEST(ShardedStressTest, ConcurrentDefaultPriorCacheSetup) {
  constexpr int kThreads = 4;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SelectorOptions options;
      options.scheduler = SchedulerKind::kFcfs;
      options.num_shards = 1 + i % 3;
      auto engine = MakeSelector(options);
      if (!engine.ok()) {
        failed = true;
        return;
      }
      for (int t = 0; t < 40; ++t) {
        // Overlapping (K, noise) keys across all threads.
        const int k = 2 + (t + i) % 3;
        const double noise = (t % 2 == 0) ? 1e-2 : 5e-3;
        auto id = (*engine)->AddTenantWithDefaultPrior(
            k, std::vector<double>(k, 1.0), noise);
        if (!id.ok()) failed = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace easeml::engine_test
