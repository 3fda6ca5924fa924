/// TSan-raced snapshot-consistency battery: scanner threads walk
/// `SnapshotPlane::Snapshot()` continuously while client threads drive
/// Next/Report/Cancel and a churn thread adds and removes tenants, at
/// N in {1, 2, 4, 7} shards. Every observed block must be internally
/// consistent no matter when the scan lands:
///   - per-shard epochs never move backwards between scans,
///   - aggregates equal an exact integer recount of the block's entries,
///   - tenant ids ascend and each entry carries its own id,
/// and after the fleet quiesces, a flushed snapshot agrees with the
/// engine's accessors. tier1.sh's tsan preset runs this file under
/// ThreadSanitizer — the racy half of the plane's correctness argument.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "shard/sharded_selector.h"

namespace easeml::obs {
namespace {

using core::MultiTenantSelector;
using core::TenantObservation;
using Assignment = MultiTenantSelector::Assignment;

ShardAggregates Recount(const ShardBlock& block) {
  ShardAggregates agg;
  for (int pos = 0; pos < block.size(); ++pos) {
    const TenantObservation& o = block.at(pos);
    agg.tenants += 1;
    agg.retired += o.retired ? 1 : 0;
    agg.schedulable += o.schedulable ? 1 : 0;
    agg.uninitialized += o.uninitialized ? 1 : 0;
    agg.in_flight += o.in_flight;
    agg.rounds += o.rounds_served;
  }
  return agg;
}

/// One full-fleet scan with every internal-consistency check applied;
/// returns false (and records a gtest failure) on the first violation so
/// the battery aborts instead of flooding the log.
bool CheckedScan(const SnapshotPlane& plane,
                 std::vector<uint64_t>* last_epochs) {
  const FleetSnapshot snap = plane.Snapshot();
  if (snap.shards.size() != last_epochs->size()) {
    ADD_FAILURE() << "snapshot shard count changed";
    return false;
  }
  for (size_t s = 0; s < snap.shards.size(); ++s) {
    const ShardBlock* block = snap.shards[s].get();
    if (block == nullptr) {
      ADD_FAILURE() << "null block for shard " << s;
      return false;
    }
    if (block->epoch < (*last_epochs)[s]) {
      ADD_FAILURE() << "shard " << s << " epoch moved backwards: "
                    << (*last_epochs)[s] << " -> " << block->epoch;
      return false;
    }
    (*last_epochs)[s] = block->epoch;
    if (!(block->agg == Recount(*block))) {
      ADD_FAILURE() << "shard " << s << " aggregates disagree with a "
                    << "recount of the published entries at epoch "
                    << block->epoch;
      return false;
    }
    const std::vector<int>& ids = *block->ids;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (i > 0 && ids[i - 1] >= ids[i]) {
        ADD_FAILURE() << "shard " << s << " ids not ascending";
        return false;
      }
      if (block->at(static_cast<int>(i)).tenant != ids[i]) {
        ADD_FAILURE() << "shard " << s << " entry " << i
                      << " carries tenant "
                      << block->at(static_cast<int>(i)).tenant
                      << ", ids say " << ids[i];
        return false;
      }
    }
  }
  return true;
}

void RunRacedScanBattery(int num_shards) {
  constexpr int kInitialTenants = 24;
  constexpr int kModels = 5;
  constexpr int kClientThreads = 2;
  constexpr int kScannerThreads = 2;
  constexpr int kOpsPerClient = 300;

  core::SelectorOptions options;
  options.scheduler = core::SchedulerKind::kGreedy;
  options.num_devices = 6;
  options.num_shards = num_shards;

  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.num_shards = num_shards;
  obs_options.publish_interval = 3;  // publish often: more racing windows
  obs_options.registry = &registry;
  FleetObserver observer(obs_options);
  options.observer = &observer;
  // Build the sharded engine directly (not via MakeSelector, which returns
  // the base engine at N=1): its API is internally synchronized, so the
  // client/churn threads below may race it. The base engine's contract is
  // external synchronization — racing it would be a test bug, not a
  // finding.
  auto created = shard::ShardedMultiTenantSelector::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiTenantSelector* selector = created->get();
  const SnapshotPlane& plane = observer.plane();
  for (int t = 0; t < kInitialTenants; ++t) {
    ASSERT_TRUE(selector
                    ->AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> scans{0};

  auto scanner = [&] {
    std::vector<uint64_t> last_epochs(
        static_cast<size_t>(plane.num_shards()), 0);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!CheckedScan(plane, &last_epochs)) {
        failed = true;
        return;
      }
      scans.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();  // be fair on the one-core container
    }
  };

  auto client = [&](int thread_id) {
    Rng rng(500 + static_cast<uint64_t>(thread_id));
    std::vector<Assignment> mine;
    for (int op = 0; op < kOpsPerClient && !failed.load(); ++op) {
      const int dice = rng.UniformInt(0, 9);
      if (mine.empty() || dice < 5) {
        auto a = selector->Next();
        if (a.ok()) {
          mine.push_back(*a);
        } else if (a.status().code() != StatusCode::kFailedPrecondition) {
          ADD_FAILURE() << "Next: " << a.status().ToString();
          failed = true;
        }
      } else {
        const int pick = rng.UniformInt(0, static_cast<int>(mine.size()) - 1);
        const Assignment a = mine[pick];
        mine.erase(mine.begin() + pick);
        const Status st = dice == 9
                              ? selector->Cancel(a)
                              : selector->Report(a, 0.1 + 0.8 * rng.Uniform());
        if (!st.ok()) {
          ADD_FAILURE() << (dice == 9 ? "Cancel: " : "Report: ")
                        << st.ToString();
          failed = true;
        }
      }
    }
    for (const Assignment& a : mine) selector->Cancel(a);
  };

  std::atomic<bool> stop_churn{false};
  auto churn = [&] {
    Rng rng(77);
    int added = 0;
    while (!stop_churn.load()) {
      const Status st =
          selector->RemoveTenant(rng.UniformInt(0, selector->num_tenants() - 1));
      if (!st.ok() && st.code() != StatusCode::kFailedPrecondition &&
          st.code() != StatusCode::kOutOfRange) {
        ADD_FAILURE() << "RemoveTenant: " << st.ToString();
        failed = true;
      }
      if (added < 6 && rng.UniformInt(0, 2) == 0) {
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
  for (int s = 0; s < kScannerThreads; ++s) threads.emplace_back(scanner);
  threads.emplace_back(churn);
  for (int c = 0; c < kClientThreads; ++c) threads.emplace_back(client, c);
  for (size_t i = threads.size() - kClientThreads; i < threads.size(); ++i) {
    threads[i].join();
  }
  stop_churn = true;
  threads[kScannerThreads].join();  // churn
  stop = true;
  for (int s = 0; s < kScannerThreads; ++s) threads[static_cast<size_t>(s)].join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(selector->num_in_flight(), 0);

  // Quiesced epilogue: flush, then the published world must match the
  // engine's — the raced scans above plus this anchor give the snapshot
  // plane's full correctness story.
  // The client and churn threads have joined, so no hook can still be
  // applying events — the precondition FlushAll requires.
  ASSERT_TRUE(selector->ValidateIndex().ok());
  observer.plane().FlushAll();
  const FleetSnapshot snap = plane.Snapshot();
  const ShardAggregates totals = snap.Totals();
  EXPECT_EQ(totals.in_flight, 0);
  snap.ForEachTenant([&](int shard, const TenantObservation& o) {
    (void)shard;
    auto served = selector->RoundsServed(o.tenant);
    ASSERT_TRUE(served.ok()) << "tenant " << o.tenant;
    EXPECT_EQ(o.rounds_served, *served) << "tenant " << o.tenant;
  });
}

TEST(SnapshotStressTest, RacedScansOneShard) { RunRacedScanBattery(1); }
TEST(SnapshotStressTest, RacedScansTwoShards) { RunRacedScanBattery(2); }
TEST(SnapshotStressTest, RacedScansFourShards) { RunRacedScanBattery(4); }
TEST(SnapshotStressTest, RacedScansSevenShards) { RunRacedScanBattery(7); }

}  // namespace
}  // namespace easeml::obs
