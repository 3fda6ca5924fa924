/// Raced churn/stress battery for the selector engine at 1 and 4 shards:
/// concurrent Next/Report/Cancel from several client threads while a churn
/// thread removes and adds tenants — the workload tier1.sh's tsan preset
/// races under ThreadSanitizer. The assertions are structural (status
/// codes from the documented taxonomy, in-flight accounting, conservation
/// of issued tickets); the bit-identical scheduling guarantees live in the
/// single-threaded conformance suite.
#include "shard/sharded_selector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"

namespace easeml::shard {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;
using Assignment = MultiTenantSelector::Assignment;

/// Shared battery body, built through `MakeSelector` at `shards` shards;
/// `use_index` flips the selector onto the index-backed pick path so the
/// same races cover the tournament trees, with the churn thread
/// interleaving debug ValidateIndex() sweeps (every tenant on shard
/// `t % N` in the index).
void RunConcurrentChurnBattery(int shards, bool use_index) {
  constexpr int kInitialTenants = 24;
  constexpr int kModels = 6;
  constexpr int kDevices = 8;
  constexpr int kClientThreads = 3;
  constexpr int kOpsPerClient = 400;

  SelectorOptions options;
  options.scheduler = SchedulerKind::kHybrid;
  options.hybrid_patience = 3;
  options.num_devices = kDevices;
  options.num_shards = shards;
  options.use_candidate_index = use_index;
  auto created = MakeSelector(options);
  ASSERT_TRUE(created.ok());
  MultiTenantSelector* selector = created->get();
  for (int t = 0; t < kInitialTenants; ++t) {
    ASSERT_TRUE(selector
                    ->AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }

  std::atomic<int> reported{0};
  std::atomic<int> cancelled{0};
  std::atomic<bool> failed{false};

  auto client = [&](int thread_id) {
    Rng rng(1000 + static_cast<uint64_t>(thread_id));
    std::vector<Assignment> mine;
    for (int op = 0; op < kOpsPerClient && !failed.load(); ++op) {
      const int dice = rng.UniformInt(0, 9);
      if (mine.empty() || dice < 4) {
        auto a = selector->Next();
        if (a.ok()) {
          mine.push_back(*a);
        } else if (a.status().code() != StatusCode::kFailedPrecondition) {
          // The only legal refusal for a live selector under contention.
          ADD_FAILURE() << "Next: " << a.status().ToString();
          failed = true;
        }
      } else {
        const int pick = rng.UniformInt(0, static_cast<int>(mine.size()) - 1);
        const Assignment a = mine[pick];
        mine.erase(mine.begin() + pick);
        if (dice == 9) {
          const Status st = selector->Cancel(a);
          if (st.ok()) {
            ++cancelled;
          } else {
            ADD_FAILURE() << "Cancel: " << st.ToString();
            failed = true;
          }
        } else {
          const Status st =
              selector->Report(a, 0.1 + 0.8 * rng.Uniform());
          if (st.ok()) {
            ++reported;
          } else {
            ADD_FAILURE() << "Report: " << st.ToString();
            failed = true;
          }
        }
        // Forged duplicates must be rejected with the precise taxonomy and
        // must never corrupt state.
        const Status dup = selector->Report(a, 0.5);
        if (dup.ok() ||
            (dup.code() != StatusCode::kFailedPrecondition &&
             dup.code() != StatusCode::kInvalidArgument)) {
          ADD_FAILURE() << "duplicate report accepted: " << dup.ToString();
          failed = true;
        }
      }
    }
    // Drain what this thread still holds so the final accounting closes.
    for (const Assignment& a : mine) {
      selector->Cancel(a);
    }
  };

  std::atomic<bool> stop_churn{false};
  auto churn = [&]() {
    // Hold off the first removal until a client has reported: otherwise
    // this loop can retire the whole fleet before any client's first
    // Next(), which then refuses correctly and leaves `reported` at 0.
    while (reported.load() == 0 && !stop_churn.load()) {
      std::this_thread::yield();
    }
    Rng rng(999);
    int added = 0;
    while (!stop_churn.load()) {
      const int tenant = rng.UniformInt(0, selector->num_tenants() - 1);
      const Status st = selector->RemoveTenant(tenant);
      if (!st.ok() && st.code() != StatusCode::kFailedPrecondition &&
          st.code() != StatusCode::kOutOfRange) {
        ADD_FAILURE() << "RemoveTenant: " << st.ToString();
        failed = true;
      }
      if (use_index && rng.UniformInt(0, 15) == 0) {
        // Raced against live Next/Report/Cancel traffic: the invariant
        // check locks the engine, so it sees a quiescent, fresh index.
        const Status valid = selector->ValidateIndex();
        if (!valid.ok()) {
          ADD_FAILURE() << "ValidateIndex: " << valid.ToString();
          failed = true;
        }
      }
      if (added < 8 && rng.UniformInt(0, 2) == 0) {
        // Also hammers the process-wide default-prior cache concurrently.
        auto id = selector->AddTenantWithDefaultPrior(
            kModels, std::vector<double>(kModels, 1.0));
        if (id.ok()) {
          ++added;
        } else {
          ADD_FAILURE() << "AddTenant: " << id.status().ToString();
          failed = true;
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(churn);
  for (int c = 0; c < kClientThreads; ++c) threads.emplace_back(client, c);
  for (size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop_churn = true;
  threads[0].join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(selector->num_in_flight(), 0);  // every client drained
  EXPECT_GT(reported.load(), 0);
  // Conservation: every reported completion is a served round of some
  // still-queryable tenant (removal keeps history readable).
  int rounds = 0;
  for (int t = 0; t < selector->num_tenants(); ++t) {
    auto served = selector->RoundsServed(t);
    ASSERT_TRUE(served.ok());
    rounds += *served;
    auto acc = selector->BestAccuracy(t);
    ASSERT_TRUE(acc.ok());
    EXPECT_GE(*acc, 0.0);
    EXPECT_LT(*acc, 1.0);
  }
  EXPECT_EQ(rounds, reported.load());
  const Status valid = selector->ValidateIndex();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemove) {
  RunConcurrentChurnBattery(/*shards=*/4, /*use_index=*/false);
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveIndexed) {
  RunConcurrentChurnBattery(/*shards=*/4, /*use_index=*/true);
}

// The 1-shard engine is the same engine and takes the same lock.
TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveOneShard) {
  RunConcurrentChurnBattery(/*shards=*/1, /*use_index=*/false);
}

TEST(ShardedStressTest, ConcurrentNextReportCancelRemoveIndexedOneShard) {
  RunConcurrentChurnBattery(/*shards=*/1, /*use_index=*/true);
}

/// Concurrent selector CONSTRUCTION against the process-wide default-prior
/// cache (the satellite fix: one prior per (K, noise), now mutex-guarded).
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
}  // namespace easeml::shard
