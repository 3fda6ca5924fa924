/// Property tests for the snapshot plane: epoch monotonicity, COW chunk
/// sharing across publishes, integer-aggregate == recount equality, and —
/// the headline invariant — a quiesced published snapshot agrees exactly
/// with the engine's own accessors and a `ValidateIndex()` read at the
/// same epoch.
#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"

namespace easeml::obs {
namespace {

using core::TenantObservation;

TenantObservation MakeObs(int tenant, int rounds, bool schedulable) {
  TenantObservation o;
  o.tenant = tenant;
  o.schedulable = schedulable;
  o.rounds_served = rounds;
  o.best_reward = 0.5;
  return o;
}

/// Recomputes a block's aggregates from its published entries; the plane's
/// running integer diffs must match this exactly (never approximately —
/// that is why `ShardAggregates` holds no double).
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

TEST(SnapshotPlaneTest, SeedsAnEmptyBlockPerShard) {
  SnapshotPlane plane(/*num_shards=*/3);
  const FleetSnapshot snap = plane.Snapshot();
  ASSERT_EQ(snap.shards.size(), 3u);
  for (const auto& block : snap.shards) {
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->epoch, 0u);
    EXPECT_EQ(block->size(), 0);
  }
  EXPECT_EQ(snap.epoch(), 0u);
}

TEST(SnapshotPlaneTest, PublishesAfterIntervalAndOnFlush) {
  SnapshotPlane plane(/*num_shards=*/1, /*publish_interval=*/4);
  for (int t = 0; t < 2; ++t) plane.Place(t, 0);
  // Two placement events are below the interval and Place never publishes
  // on its own: readers still see the seed block.
  EXPECT_EQ(plane.Snapshot().epoch(), 0u);
  plane.Apply(MakeObs(0, 1, true));
  plane.Apply(MakeObs(1, 1, true));  // 4th event >= interval -> publish
  const FleetSnapshot snap = plane.Snapshot();
  EXPECT_EQ(snap.epoch(), 4u);
  EXPECT_EQ(snap.shards[0]->size(), 2);
  EXPECT_EQ(snap.shards[0]->at(0).rounds_served, 1);
  // One more event sits unpublished until FlushAll.
  plane.Apply(MakeObs(0, 2, true));
  EXPECT_EQ(plane.Snapshot().epoch(), 4u);
  plane.FlushAll();
  const FleetSnapshot flushed = plane.Snapshot();
  EXPECT_EQ(flushed.epoch(), 5u);
  EXPECT_EQ(flushed.shards[0]->at(0).rounds_served, 2);
}

TEST(SnapshotPlaneTest, EpochsAreMonotonePerShardAndFleetwide) {
  SnapshotPlane plane(/*num_shards=*/2, /*publish_interval=*/1);
  for (int t = 0; t < 8; ++t) plane.Place(t, t % 2);
  uint64_t last_fleet = 0;
  std::vector<uint64_t> last_shard(2, 0);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    plane.Apply(MakeObs(rng.UniformInt(0, 7), i, true));
    const FleetSnapshot snap = plane.Snapshot();
    EXPECT_GE(snap.epoch(), last_fleet);
    last_fleet = snap.epoch();
    for (int s = 0; s < 2; ++s) {
      EXPECT_GE(snap.shards[s]->epoch, last_shard[s]);
      last_shard[s] = snap.shards[s]->epoch;
    }
  }
}

TEST(SnapshotPlaneTest, CowSharesCleanChunksAcrossPublishes) {
  // 128 tenants on one shard = exactly two kChunk=64 chunks.
  ASSERT_EQ(kChunk, 64);
  SnapshotPlane plane(/*num_shards=*/1, /*publish_interval=*/1);
  for (int t = 0; t < 128; ++t) plane.Place(t, 0);
  plane.Apply(MakeObs(3, 1, true));
  plane.FlushAll();
  const FleetSnapshot before = plane.Snapshot();
  ASSERT_EQ(before.shards[0]->chunks.size(), 2u);

  // Dirty only chunk 0: the republished block must share chunk 1's storage
  // (same shared_ptr) and the id vector with its predecessor.
  plane.Apply(MakeObs(5, 2, true));
  plane.FlushAll();
  const FleetSnapshot after = plane.Snapshot();
  EXPECT_NE(after.shards[0], before.shards[0]);
  EXPECT_EQ(after.shards[0]->ids, before.shards[0]->ids);
  EXPECT_NE(after.shards[0]->chunks[0], before.shards[0]->chunks[0]);
  EXPECT_EQ(after.shards[0]->chunks[1], before.shards[0]->chunks[1]);
  EXPECT_EQ(after.shards[0]->at(5).rounds_served, 2);
  // The predecessor block is immutable: the old snapshot still reads the
  // pre-update value.
  EXPECT_EQ(before.shards[0]->at(5).rounds_served, 0);
}

TEST(SnapshotPlaneTest, AggregatesEqualRecountUnderRandomApplies) {
  SnapshotPlane plane(/*num_shards=*/3, /*publish_interval=*/5);
  for (int t = 0; t < 100; ++t) plane.Place(t, t % 3);
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const int tenant = rng.UniformInt(0, 99);
    TenantObservation o = MakeObs(tenant, rng.UniformInt(0, 20),
                                  rng.UniformInt(0, 1) == 1);
    o.retired = rng.UniformInt(0, 9) == 0;
    o.uninitialized = rng.UniformInt(0, 9) == 0;
    o.in_flight = rng.UniformInt(0, 3);
    plane.Apply(o);
  }
  plane.FlushAll();
  const FleetSnapshot snap = plane.Snapshot();
  for (int s = 0; s < 3; ++s) {
    const ShardBlock& block = *snap.shards[s];
    EXPECT_TRUE(block.agg == Recount(block)) << "shard " << s;
    const std::vector<int>& ids = *block.ids;
    for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
    for (int pos = 0; pos < block.size(); ++pos) {
      EXPECT_EQ(block.at(pos).tenant, ids[static_cast<size_t>(pos)]);
    }
  }
}

/// The headline property: drive a real campaign through an observed engine,
/// quiesce, flush — the published snapshot must agree EXACTLY with the
/// engine's own accessors, and the candidate index must validate at the
/// same epoch.
void RunQuiescedConsistency(int num_shards) {
  core::SelectorOptions options;
  options.scheduler = core::SchedulerKind::kGreedy;
  options.num_devices = 3;
  options.num_shards = num_shards;

  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.publish_interval = 7;  // deliberately off-cadence
  obs_options.registry = &registry;
  auto observed = MakeObservedSelector(options, obs_options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  core::MultiTenantSelector* selector = observed->selector.get();

  constexpr int kTenants = 30;
  constexpr int kModels = 4;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(selector
                    ->AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }
  Rng rng(11);
  for (int step = 0; step < 300 && selector->HasDispatchableWork(); ++step) {
    auto a = selector->Next();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(selector->Report(*a, 0.1 + 0.8 * rng.Uniform()).ok());
  }

  // Quiesce: ValidateIndex locks the engine and drains the fold queues
  // (the sharded engine's folds outlive Report), then flush the plane and
  // compare world views.
  ASSERT_TRUE(selector->ValidateIndex().ok());
  observed->observer->plane().FlushAll();
  const FleetSnapshot snap = observed->observer->plane().Snapshot();
  ASSERT_EQ(static_cast<int>(snap.shards.size()),
            num_shards < 1 ? 1 : num_shards);

  const ShardAggregates totals = snap.Totals();
  EXPECT_EQ(totals.tenants, kTenants);
  EXPECT_EQ(totals.in_flight, selector->num_in_flight());
  int expected_rounds = 0;
  for (int t = 0; t < kTenants; ++t) {
    auto served = selector->RoundsServed(t);
    ASSERT_TRUE(served.ok());
    expected_rounds += *served;
  }
  EXPECT_EQ(totals.rounds, expected_rounds);

  int seen = 0;
  snap.ForEachTenant([&](int shard, const TenantObservation& o) {
    (void)shard;
    ++seen;
    auto served = selector->RoundsServed(o.tenant);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(o.rounds_served, *served) << "tenant " << o.tenant;
    auto best = selector->BestAccuracy(o.tenant);
    ASSERT_TRUE(best.ok());
    EXPECT_DOUBLE_EQ(o.best_reward, *best) << "tenant " << o.tenant;
    EXPECT_EQ(o.in_flight, 0) << "tenant " << o.tenant;
  });
  EXPECT_EQ(seen, kTenants);
  for (const auto& block : snap.shards) {
    EXPECT_TRUE(block->agg == Recount(*block));
  }
  // The flush published every event: another flush changes nothing.
  observed->observer->plane().FlushAll();
  EXPECT_EQ(observed->observer->plane().Snapshot().epoch(), snap.epoch());
  // Every snapshot apply showed up in the metrics layer too.
  EXPECT_GT(registry.GetCounter("easeml_tenant_events")->Value(), 0u);
}

TEST(SnapshotPlaneTest, QuiescedSnapshotMatchesEngineSequential) {
  RunQuiescedConsistency(/*num_shards=*/1);
}

TEST(SnapshotPlaneTest, QuiescedSnapshotMatchesEngineSharded) {
  RunQuiescedConsistency(/*num_shards=*/4);
}

/// Both engines announce an add to the observer as one tenant appended to
/// its shard (`OnTenantPlaced`, shard `t % N`) and a removal as a retired
/// tenant event; no tenant ever moves. Under churn, after every add and
/// every remove, a quiesced and flushed snapshot holds every tenant ever
/// added exactly once, on shard `t % N`, marked retired exactly when it was
/// removed, and its per-shard count of live entries equals the engine's
/// `ShardSizes()`.
TEST(SnapshotPlaneTest, ChurnedShardedPlacementMatchesShardSizes) {
  for (int num_shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    core::SelectorOptions options;
    options.scheduler = core::SchedulerKind::kHybrid;
    options.hybrid_patience = 3;
    options.num_shards = num_shards;
    FleetObserverOptions obs_options;
    obs_options.publish_interval = 5;
    auto observed = MakeObservedSelector(options, obs_options);
    ASSERT_TRUE(observed.ok()) << observed.status().ToString();
    core::MultiTenantSelector* engine = observed->selector.get();
    SnapshotPlane& plane = observed->observer->plane();

    std::set<int> live;
    int added = 0;
    const auto expect_placement_in_step = [&](const std::string& after) {
      SCOPED_TRACE("after " + after);
      // Quiesce (ValidateIndex locks the engine and drains its fold
      // queues), then publish everything the observer has absorbed.
      const Status valid = engine->ValidateIndex();
      ASSERT_TRUE(valid.ok()) << valid.ToString();
      plane.FlushAll();
      const FleetSnapshot snap = plane.Snapshot();
      std::vector<int> live_sizes(snap.shards.size(), 0);
      std::map<int, int> seen;
      snap.ForEachTenant([&](int shard, const TenantObservation& o) {
        ++seen[o.tenant];
        EXPECT_EQ(shard, o.tenant % num_shards) << "tenant " << o.tenant;
        EXPECT_EQ(o.retired, live.count(o.tenant) == 0)
            << "tenant " << o.tenant;
        if (!o.retired) ++live_sizes[static_cast<size_t>(shard)];
      });
      EXPECT_EQ(live_sizes, engine->ShardSizes());
      EXPECT_EQ(static_cast<int>(seen.size()), added);
      for (const auto& [t, n] : seen) EXPECT_EQ(n, 1) << "tenant " << t;
    };

    constexpr int kModels = 4;
    const std::vector<double> costs(kModels, 1.0);
    Rng rng(static_cast<uint64_t>(40 + num_shards));
    for (int step = 0; step < 160; ++step) {
      const double op = rng.Uniform();
      if (op < 0.25 || live.size() < 3) {
        auto id = engine->AddTenantWithDefaultPrior(kModels, costs);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live.insert(*id);
        ++added;
        expect_placement_in_step("adding " + std::to_string(*id));
      } else if (op < 0.4) {
        // Nothing is in flight between steps, so any live tenant may go.
        auto victim = live.begin();
        std::advance(victim,
                     rng.UniformInt(0, static_cast<int>(live.size()) - 1));
        const int t = *victim;
        ASSERT_TRUE(engine->RemoveTenant(t).ok());
        live.erase(victim);
        expect_placement_in_step("removing " + std::to_string(t));
      } else if (engine->HasDispatchableWork()) {
        auto a = engine->Next();
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(engine->Report(*a, 0.1 + 0.8 * rng.Uniform()).ok());
      }
    }
    EXPECT_GT(live.size(), 3u);
  }
}

/// A checkpoint restore rebuilds the placement of the engine that never
/// crashed. Placement is a function of the tenant id alone, so after a
/// seeded mix of adds, removes and Next/Report, an engine restored from
/// the captured state publishes every shard's tenant-id list exactly as
/// the original does, with retired tenants included and marked alike.
TEST(SnapshotPlaneTest, RestoredShardedPlacementMatchesNeverCrashed) {
  for (int num_shards : {2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    core::SelectorOptions options;
    options.scheduler = core::SchedulerKind::kHybrid;
    options.hybrid_patience = 3;
    options.num_shards = num_shards;
    auto original = MakeObservedSelector(options, FleetObserverOptions());
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    core::MultiTenantSelector* engine = original->selector.get();

    constexpr int kModels = 4;
    const std::vector<double> costs(kModels, 1.0);
    std::vector<int> live;
    Rng rng(static_cast<uint64_t>(70 + num_shards));
    for (int step = 0; step < 200; ++step) {
      const double op = rng.Uniform();
      if (op < 0.2 || live.size() < 3) {
        auto id = engine->AddTenantWithDefaultPrior(kModels, costs);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live.push_back(*id);
      } else if (op < 0.35) {
        // Nothing is in flight between steps, so any live tenant may go.
        const int pick = rng.UniformInt(0, static_cast<int>(live.size()) - 1);
        ASSERT_TRUE(engine->RemoveTenant(live[pick]).ok());
        live.erase(live.begin() + pick);
      } else if (engine->HasDispatchableWork()) {
        auto a = engine->Next();
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(engine->Report(*a, 0.1 + 0.8 * rng.Uniform()).ok());
      }
    }
    auto state = engine->CaptureDurableState();
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    auto restored = MakeObservedSelector(options, FleetObserverOptions());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const Status restore = restored->selector->RestoreDurableState(*state);
    ASSERT_TRUE(restore.ok()) << restore.ToString();

    for (ObservedSelector* side : {&*original, &*restored}) {
      const Status valid = side->selector->ValidateIndex();
      ASSERT_TRUE(valid.ok()) << valid.ToString();
      side->observer->plane().FlushAll();
    }
    const FleetSnapshot want = original->observer->plane().Snapshot();
    const FleetSnapshot got = restored->observer->plane().Snapshot();
    ASSERT_EQ(got.shards.size(), want.shards.size());
    for (size_t sh = 0; sh < want.shards.size(); ++sh) {
      SCOPED_TRACE("shard " + std::to_string(sh));
      const ShardBlock& w = *want.shards[sh];
      const ShardBlock& g = *got.shards[sh];
      ASSERT_EQ(*g.ids, *w.ids);
      for (int pos = 0; pos < w.size(); ++pos) {
        EXPECT_EQ(g.at(pos).retired, w.at(pos).retired)
            << "tenant " << w.at(pos).tenant;
      }
    }
  }
}

}  // namespace
}  // namespace easeml::obs
