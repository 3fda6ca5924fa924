#ifndef EASEML_SHARD_SHARD_MAP_H_
#define EASEML_SHARD_SHARD_MAP_H_

#include <cstdint>
#include <vector>

namespace easeml::shard {

/// Partition of tenant ids over a fixed number of shards.
///
/// New tenants are placed by a mixed hash of their id (so adjacent ids —
/// which arrive together and stay equally hot — spread out instead of
/// clustering), then the partition is rebalanced so shard sizes never
/// differ by more than one: each shard's worker folds the reports of its
/// own tenants, so balance spreads the fold load evenly. Rebalancing moves
/// tenants deterministically (largest shard donates its highest id to the
/// smallest shard), but note that correctness never depends on placement:
/// the candidate index merges its shard roots exactly, so picks are
/// partition-invariant by construction and the map is free to chase
/// balance.
///
/// Removal vacates the slot and rebalances the same way — the tenant-churn
/// path `RemoveTenant` takes. Tenant ids are never reused; the map only
/// tracks live (non-retired) tenants.
///
/// Not thread-safe; the owning selector mutates it under its lock after
/// draining the fold queues.
class ShardMap {
 public:
  /// `num_shards` >= 1.
  explicit ShardMap(int num_shards);

  int num_shards() const { return static_cast<int>(locals_.size()); }

  /// Live tenants currently mapped.
  int size() const { return size_; }

  /// Owning shard of `tenant`; -1 when the tenant is not mapped (never
  /// added, or removed).
  int shard_of(int tenant) const;

  /// Tenant ids owned by `shard`, ascending.
  const std::vector<int>& local(int shard) const { return locals_[shard]; }

  /// Size of the fullest shard — the scan's critical path in tenants.
  int max_shard_size() const;

  /// Maps a new tenant (hash placement + rebalance). Precondition: not
  /// currently mapped. When `tenant` is above every mapped id (the engine
  /// issues ids in ascending order), the add only appends `tenant` to one
  /// shard's tail: sizes were within one, so at most one move follows, and
  /// it moves the overfull shard's highest id — `tenant` itself. The
  /// sharded engine's append-only add path relies on this.
  void Add(int tenant);

  /// Unmaps a tenant (+ rebalance). Precondition: currently mapped.
  void Remove(int tenant);

 private:
  void Insert(int shard, int tenant);
  void Erase(int shard, int tenant);

  /// Restores max-min <= 1 by deterministic moves.
  void Rebalance();

  std::vector<std::vector<int>> locals_;  // each ascending
  std::vector<int> shard_of_;             // indexed by tenant id, -1 absent
  int size_ = 0;
};

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARD_MAP_H_
