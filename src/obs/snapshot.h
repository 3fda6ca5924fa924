#ifndef EASEML_OBS_SNAPSHOT_H_
#define EASEML_OBS_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/selector_observer.h"

namespace easeml::obs {

/// Versioned, immutable, copy-on-write fleet snapshots.
///
/// The serving engines serialize every reader of tenant state through the
/// selector lock — correct, but it means an analytics scan walking 10^5
/// tenants would stall the `Next()` hot path for its whole walk. The
/// snapshot plane decouples the two: the engine PUBLISHES immutable
/// per-shard summary blocks at fold boundaries, and readers WALK the last
/// published blocks lock-free (one brief per-shard pointer copy aside),
/// never touching the selector lock at all.
///
/// Data model, writer side (one `Slot` per shard):
///   - `master_` holds the latest `TenantObservation` per tenant, indexed by
///     tenant id (ids are never reused; a retired tenant keeps its entry,
///     marked retired). Writes come only from the engine's hooks, one at a
///     time (threading contract below), so the write needs no
///     synchronization of its own.
///   - Each slot tracks its local tenant-id list as a
///     `shared_ptr<const vector<int>>` (replaced only when `Place` appends,
///     so steady-state publishes never copy it), per-chunk dirty bits
///     (chunks of `kChunk` positions), a monotone event counter, and
///     integer-only running aggregates maintained by old/new diff on every
///     event — integers so a validator can recompute them from a published
///     block and compare EXACTLY.
///
/// Publishing: after `publish_interval` events (or an explicit flush) the
/// writer builds a fresh `ShardBlock` — dirty chunks copied from `master_`,
/// clean chunks reference-shared with the previous block — and swaps it
/// into the slot's `published` pointer under a tiny leaf mutex. The
/// block's `epoch` is the slot's event count at publish, so per-shard
/// epochs are strictly monotone and the fleet epoch (their sum) is too.
///
/// Consistency: a block is built only by the writer, and dirty bits cover
/// every `master_` write since the covering chunk was last copied, so each
/// published block equals `master_`'s restriction to the shard at one
/// instant — internally consistent by construction (aggregates
/// match a recount of its entries; ids ascend). The TSan battery races
/// full-fleet scans against churn to hold the plane to exactly that.
///
/// Threading contract (mirrors `core::SelectorObserver`):
///   - `Apply` and `Place` run under the engine's synchronization, on the
///     thread that called into the engine (its observer hooks), one at a
///     time.
///   - `FlushAll` must not run concurrently with `Apply` or `Place`: call
///     it from the thread driving the engine, or after that thread stopped
///     (joined) — it publishes every shard.
///   - `Snapshot` is safe from ANY thread at ANY time.
constexpr int kChunk = 64;

/// Integer-only per-shard aggregates. Every field is recomputable by
/// summing a block's entries — the stress battery does exactly that and
/// demands equality, which is why nothing here is a double.
struct ShardAggregates {
  int64_t tenants = 0;        // placed on this shard (retired included)
  int64_t retired = 0;
  int64_t schedulable = 0;
  int64_t uninitialized = 0;  // awaiting the initialization sweep
  int64_t in_flight = 0;      // sum of per-tenant in-flight tickets
  int64_t rounds = 0;         // sum of rounds_served

  bool operator==(const ShardAggregates& o) const {
    return tenants == o.tenants && retired == o.retired &&
           schedulable == o.schedulable && uninitialized == o.uninitialized &&
           in_flight == o.in_flight && rounds == o.rounds;
  }
};

/// One shard's published summary: immutable after publication; chunks may
/// be shared (by shared_ptr) with earlier and later blocks of the same
/// shard — copy-on-write at chunk granularity.
struct ShardBlock {
  uint64_t epoch = 0;  // shard event count at publish; strictly monotone
  std::shared_ptr<const std::vector<int>> ids;  // ascending tenant ids
  std::vector<std::shared_ptr<const std::vector<core::TenantObservation>>>
      chunks;  // chunk c covers positions [c*kChunk, min((c+1)*kChunk, n))
  ShardAggregates agg;

  int size() const {
    return ids == nullptr ? 0 : static_cast<int>(ids->size());
  }
  const core::TenantObservation& at(int pos) const {
    return (*chunks[static_cast<size_t>(pos / kChunk)])[static_cast<size_t>(
        pos % kChunk)];
  }
};

/// A point-in-time view of the whole fleet: one published block per shard.
/// Blocks from different shards may be at different epochs (each shard
/// publishes independently) — the fleet epoch is their sum and is monotone
/// across snapshots.
struct FleetSnapshot {
  std::vector<std::shared_ptr<const ShardBlock>> shards;

  uint64_t epoch() const {
    uint64_t sum = 0;
    for (const auto& s : shards) {
      if (s != nullptr) sum += s->epoch;
    }
    return sum;
  }
  ShardAggregates Totals() const;

  /// Calls `fn(shard, observation)` for every published tenant entry.
  template <typename Fn>
  void ForEachTenant(Fn fn) const {
    for (size_t s = 0; s < shards.size(); ++s) {
      const ShardBlock* block = shards[s].get();
      if (block == nullptr) continue;
      const int n = block->size();
      for (int pos = 0; pos < n; ++pos) {
        fn(static_cast<int>(s), block->at(pos));
      }
    }
  }
};

class SnapshotPlane {
 public:
  /// `publish_interval` = tenant events a shard absorbs between automatic
  /// publishes; 1 publishes on every fold boundary.
  explicit SnapshotPlane(int num_shards, int publish_interval = 32);
  ~SnapshotPlane();

  SnapshotPlane(const SnapshotPlane&) = delete;
  SnapshotPlane& operator=(const SnapshotPlane&) = delete;

  int num_shards() const { return static_cast<int>(slots_.size()); }

  // --- Writer side (threading contract above) -----------------------------

  /// Folds one tenant observation into the master copy and the owning
  /// shard's dirty set; publishes the shard when its interval elapses.
  /// The tenant must have been placed (`Place`) first.
  void Apply(const core::TenantObservation& obs);

  /// Appends a new tenant to `shard`'s placement (the add path of both
  /// engines). The tenant stays there for life.
  void Place(int tenant, int shard);

  /// Publishes every shard with unpublished events. After this,
  /// `Snapshot()` reflects every event applied so far.
  void FlushAll();

  // --- Reader side (any thread) -------------------------------------------

  /// Lock-free fleet walk: copies each shard's published-block pointer
  /// (one brief leaf-mutex hold per shard, never contended by more than a
  /// pointer swap) and hands back the immutable blocks.
  FleetSnapshot Snapshot() const;

 private:
  struct Slot;

  /// Builds and publishes a fresh block for `shard` from its dirty chunks.
  void PublishSlot(int shard);

  std::vector<core::TenantObservation> master_;
  std::vector<std::pair<int, int>> where_;  // tenant -> (shard, pos); (-1,-1)
  std::vector<std::unique_ptr<Slot>> slots_;
  const int publish_interval_;
};

}  // namespace easeml::obs

#endif  // EASEML_OBS_SNAPSHOT_H_
