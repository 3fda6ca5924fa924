/// ShardMap invariants: hash placement with rebalancing keeps shard sizes
/// within one of each other (the scan critical path), locals stay sorted,
/// the tenant->shard index stays consistent, and the whole layout is a
/// deterministic function of the operation sequence.
#include "shard/shard_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace easeml::shard {
namespace {

void CheckInvariants(const ShardMap& map) {
  int total = 0;
  std::set<int> seen;
  int min_size = -1;
  int max_size = -1;
  for (int s = 0; s < map.num_shards(); ++s) {
    const std::vector<int>& local = map.local(s);
    EXPECT_TRUE(std::is_sorted(local.begin(), local.end()));
    for (int t : local) {
      EXPECT_EQ(map.shard_of(t), s);
      EXPECT_TRUE(seen.insert(t).second) << "tenant mapped twice: " << t;
    }
    const int size = static_cast<int>(local.size());
    total += size;
    min_size = min_size < 0 ? size : std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_EQ(total, map.size());
  EXPECT_EQ(map.max_shard_size(), max_size);
  if (map.size() > 0) {
    EXPECT_LE(max_size - min_size, 1)
        << "rebalancing must keep shard sizes within 1";
  }
}

TEST(ShardMapTest, BalancedAfterSequentialAdds) {
  ShardMap map(4);
  for (int t = 0; t < 37; ++t) {
    map.Add(t);
    CheckInvariants(map);
  }
  EXPECT_EQ(map.size(), 37);
  EXPECT_EQ(map.max_shard_size(), 10);  // ceil(37 / 4)
}

TEST(ShardMapTest, SingleShardOwnsEverything) {
  ShardMap map(1);
  for (int t = 0; t < 5; ++t) map.Add(t);
  EXPECT_EQ(map.local(0), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(map.shard_of(3), 0);
}

TEST(ShardMapTest, MoreShardsThanTenants) {
  ShardMap map(7);
  map.Add(0);
  map.Add(1);
  CheckInvariants(map);
  EXPECT_EQ(map.max_shard_size(), 1);  // spread, never stacked
}

TEST(ShardMapTest, RemovalRebalances) {
  ShardMap map(3);
  for (int t = 0; t < 30; ++t) map.Add(t);
  // Remove every tenant of shard 0 — rebalancing must backfill it.
  std::vector<int> victims = map.local(0);
  for (int t : victims) {
    map.Remove(t);
    CheckInvariants(map);
    EXPECT_EQ(map.shard_of(t), -1);
  }
  EXPECT_EQ(map.size(), 30 - static_cast<int>(victims.size()));
}

TEST(ShardMapTest, UnknownTenantsReportNoShard) {
  ShardMap map(2);
  map.Add(5);
  EXPECT_EQ(map.shard_of(4), -1);
  EXPECT_EQ(map.shard_of(-1), -1);
  EXPECT_EQ(map.shard_of(1000), -1);
}

TEST(ShardMapTest, LayoutIsDeterministic) {
  ShardMap a(5);
  ShardMap b(5);
  for (int t = 0; t < 40; ++t) {
    a.Add(t);
    b.Add(t);
  }
  for (int t = 0; t < 40; t += 3) {
    a.Remove(t);
    b.Remove(t);
  }
  for (int s = 0; s < 5; ++s) EXPECT_EQ(a.local(s), b.local(s));
}

/// The sharded engine's add path appends instead of rebuilding, which is
/// sound only because adding a new, largest-ever id moves no other tenant:
/// after every Add(t) exactly one shard's list has changed, and only by
/// gaining t at its tail. Random Add/Remove sequences (ids ascending, as
/// the engine issues them) at several shard counts.
TEST(ShardMapTest, AddOfANewLargestIdOnlyAppendsToOneShard) {
  for (int shards : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardMap map(shards);
    Rng rng(static_cast<uint64_t>(100 + shards));
    std::vector<int> live;
    int next_id = 0;
    for (int op = 0; op < 3000; ++op) {
      if (live.empty() || rng.Uniform() < 0.6) {
        std::vector<std::vector<int>> before;
        for (int s = 0; s < shards; ++s) before.push_back(map.local(s));
        const int t = next_id++;
        map.Add(t);
        live.push_back(t);
        int changed = 0;
        for (int s = 0; s < shards; ++s) {
          if (map.local(s) == before[static_cast<size_t>(s)]) continue;
          ++changed;
          std::vector<int> expected = before[static_cast<size_t>(s)];
          expected.push_back(t);
          ASSERT_EQ(map.local(s), expected)
              << "Add(" << t << ") rewrote shard " << s;
        }
        ASSERT_EQ(changed, 1) << "Add(" << t << ") changed " << changed
                              << " shards";
      } else {
        const int pick =
            rng.UniformInt(0, static_cast<int>(live.size()) - 1);
        map.Remove(live[static_cast<size_t>(pick)]);
        live.erase(live.begin() + pick);
      }
      CheckInvariants(map);
    }
  }
}

}  // namespace
}  // namespace easeml::shard
