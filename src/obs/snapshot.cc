#include "obs/snapshot.h"

#include <algorithm>

#include "common/logging.h"

namespace easeml::obs {

ShardAggregates FleetSnapshot::Totals() const {
  ShardAggregates total;
  for (const auto& s : shards) {
    if (s == nullptr) continue;
    total.tenants += s->agg.tenants;
    total.retired += s->agg.retired;
    total.schedulable += s->agg.schedulable;
    total.uninitialized += s->agg.uninitialized;
    total.in_flight += s->agg.in_flight;
    total.rounds += s->agg.rounds;
  }
  return total;
}

/// Writer-side per-shard state. Everything above the publication point is
/// owned by the shard's worker thread while it runs a queued fold, and by
/// the quiesced coordinator otherwise (the fold-queue drain orders the
/// hand-offs); only `published` is shared with readers, behind its leaf
/// mutex.
struct SnapshotPlane::Slot {
  std::shared_ptr<const std::vector<int>> ids =
      std::make_shared<const std::vector<int>>();
  std::vector<uint8_t> chunk_dirty;  // one flag per kChunk positions
  uint64_t events = 0;               // monotone; block epoch source
  int since_publish = 0;
  ShardAggregates agg;
  std::shared_ptr<const ShardBlock> last;  // writer's copy of `published`

  // Publication point: the ONLY slot state readers touch.
  mutable Mutex pub_mu;
  std::shared_ptr<const ShardBlock> published EASEML_GUARDED_BY(pub_mu);
};

namespace {

/// Per-tenant contribution to the integer aggregates; `Apply` diffs two of
/// these.
ShardAggregates Contribution(const core::TenantObservation& o) {
  ShardAggregates c;
  c.tenants = 1;
  c.retired = o.retired ? 1 : 0;
  c.schedulable = o.schedulable ? 1 : 0;
  c.uninitialized = o.uninitialized ? 1 : 0;
  c.in_flight = o.in_flight;
  c.rounds = o.rounds_served;
  return c;
}

void AddInPlace(ShardAggregates& agg, const ShardAggregates& c, int sign) {
  agg.tenants += sign * c.tenants;
  agg.retired += sign * c.retired;
  agg.schedulable += sign * c.schedulable;
  agg.uninitialized += sign * c.uninitialized;
  agg.in_flight += sign * c.in_flight;
  agg.rounds += sign * c.rounds;
}

int NumChunks(int n) { return (n + kChunk - 1) / kChunk; }

}  // namespace

SnapshotPlane::SnapshotPlane(int num_shards, int publish_interval)
    : publish_interval_(std::max(1, publish_interval)) {
  EASEML_CHECK(num_shards >= 1)
      << "obs: snapshot plane needs at least one shard, got " << num_shards;
  slots_.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    slots_.push_back(std::make_unique<Slot>());
    // Seed an empty epoch-0 block so readers always find a block.
    auto block = std::make_shared<ShardBlock>();
    block->ids = slots_.back()->ids;
    slots_.back()->last = block;
    MutexLock lock(slots_.back()->pub_mu);
    slots_.back()->published = std::move(block);
  }
}

SnapshotPlane::~SnapshotPlane() = default;

void SnapshotPlane::Apply(const core::TenantObservation& obs) {
  const int tenant = obs.tenant;
  EASEML_CHECK(tenant >= 0 &&
               tenant < static_cast<int>(where_.size()) &&
               where_[static_cast<size_t>(tenant)].first >= 0)
      << "obs: Apply for unplaced tenant " << tenant
      << " (placement hooks must precede tenant events)";
  const auto [shard, pos] = where_[static_cast<size_t>(tenant)];
  Slot& slot = *slots_[static_cast<size_t>(shard)];
  core::TenantObservation& entry = master_[static_cast<size_t>(tenant)];
  // Integer-diff the aggregates before overwriting the master entry. The
  // first Apply diffs against the default observation (all zeros except the
  // tenant count, which placement already added).
  AddInPlace(slot.agg, Contribution(obs), +1);
  AddInPlace(slot.agg, Contribution(entry), -1);
  // (The tenant counts of the two contributions cancel: membership is
  // placement's to maintain, not Apply's.)
  entry = obs;
  slot.chunk_dirty[static_cast<size_t>(pos / kChunk)] = 1;
  ++slot.events;
  // The configured interval is a floor: a shard additionally batches at
  // least num_chunks/8 events per publish, so the per-publish chunk-pointer
  // vector rebuild (one shared_ptr copy per chunk, refcounted) amortizes to
  // O(1) refcount traffic per event at any fleet size — without this a
  // 10^5-tenant shard would spend more on pointer churn than on the fold
  // it is observing.
  const int threshold = std::max(
      publish_interval_,
      static_cast<int>(slot.chunk_dirty.size()) / 8);
  if (++slot.since_publish >= threshold) PublishSlot(shard);
}

void SnapshotPlane::Place(int tenant, int shard) {
  EASEML_CHECK(shard >= 0 && shard < num_shards())
      << "obs: Place on unknown shard " << shard;
  if (tenant >= static_cast<int>(master_.size())) {
    master_.resize(static_cast<size_t>(tenant) + 1);
    where_.resize(static_cast<size_t>(tenant) + 1, {-1, -1});
  }
  Slot& slot = *slots_[static_cast<size_t>(shard)];
  EASEML_CHECK(slot.ids->empty() || slot.ids->back() < tenant)
      << "obs: Place must append in ascending id order (tenant " << tenant
      << " after " << slot.ids->back() << ")";
  auto grown = std::make_shared<std::vector<int>>(*slot.ids);
  grown->push_back(tenant);
  const int pos = static_cast<int>(grown->size()) - 1;
  slot.ids = std::move(grown);
  slot.chunk_dirty.resize(static_cast<size_t>(NumChunks(pos + 1)), 1);
  slot.chunk_dirty[static_cast<size_t>(pos / kChunk)] = 1;
  where_[static_cast<size_t>(tenant)] = {shard, pos};
  master_[static_cast<size_t>(tenant)].tenant = tenant;  // entry is live now
  slot.agg.tenants += 1;  // default-constructed entry contributes only this
  ++slot.events;
  ++slot.since_publish;  // placement is an event: it must reach readers
}

void SnapshotPlane::FlushAll() {
  for (int s = 0; s < num_shards(); ++s) {
    if (slots_[static_cast<size_t>(s)]->since_publish > 0) PublishSlot(s);
  }
}

FleetSnapshot SnapshotPlane::Snapshot() const {
  FleetSnapshot snap;
  snap.shards.reserve(slots_.size());
  for (const std::unique_ptr<Slot>& slot : slots_) {
    std::shared_ptr<const ShardBlock> block;
    {
      MutexLock lock(slot->pub_mu);
      block = slot->published;
    }
    snap.shards.push_back(std::move(block));
  }
  return snap;
}

void SnapshotPlane::PublishSlot(int shard) {
  Slot& slot = *slots_[static_cast<size_t>(shard)];
  const std::vector<int>& ids = *slot.ids;
  const int n = static_cast<int>(ids.size());
  const int num_chunks = NumChunks(n);
  auto block = std::make_shared<ShardBlock>();
  block->epoch = slot.events;
  block->ids = slot.ids;
  block->agg = slot.agg;
  block->chunks.resize(static_cast<size_t>(num_chunks));
  const ShardBlock& prev = *slot.last;
  const bool prev_matches = prev.ids == slot.ids;  // same partition object
  for (int c = 0; c < num_chunks; ++c) {
    if (prev_matches && slot.chunk_dirty[static_cast<size_t>(c)] == 0) {
      // Clean chunk: share the previous block's copy (COW reuse).
      block->chunks[static_cast<size_t>(c)] = prev.chunks[static_cast<size_t>(c)];
      continue;
    }
    const int lo = c * kChunk;
    const int hi = std::min(n, lo + kChunk);
    auto chunk = std::make_shared<std::vector<core::TenantObservation>>();
    chunk->reserve(static_cast<size_t>(hi - lo));
    for (int pos = lo; pos < hi; ++pos) {
      chunk->push_back(master_[static_cast<size_t>(ids[static_cast<size_t>(pos)])]);
    }
    block->chunks[static_cast<size_t>(c)] = std::move(chunk);
    slot.chunk_dirty[static_cast<size_t>(c)] = 0;
  }
  slot.last = block;
  slot.since_publish = 0;
  MutexLock lock(slot.pub_mu);
  slot.published = std::move(block);
}

}  // namespace easeml::obs
