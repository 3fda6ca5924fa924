#ifndef EASEML_SHARD_SHARDED_SELECTOR_H_
#define EASEML_SHARD_SHARDED_SELECTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/multi_tenant_selector.h"
#include "shard/shard_pool.h"

namespace easeml::shard {

/// Sharded selector engine: tenant shards with a shard-parallel report
/// pipeline.
///
/// Tenant `t` lives on shard `t % N` for its whole life (`ShardOf`), and
/// each shard is owned by one `ShardPool` worker thread. Tenants are
/// conditionally independent given the shared `SharedGpPrior`, so a
/// tenant's belief fold — the O(t^2) Cholesky append plus its index-leaf
/// refresh — touches only that tenant's state and its own shard's index
/// tree, and folds for tenants on different shards run concurrently.
/// Queued folds are the only work a worker ever does.
///
/// `Next()` runs on the coordinator: it takes `mu_`, drains the fold
/// queues, and then picks exactly like the base engine — from the N-shard
/// candidate index (`scheduler::CandidateIndex`, leaves placed by
/// `ShardOf`: O(1) root reads per shard), or from the reference `PickUser`
/// scan when `use_candidate_index` is off — and selects the arm inline.
/// The index merges its shard roots exactly, so placement never changes a
/// pick: the selection trace is BIT-IDENTICAL to the sequential engine's
/// for every shard count and any thread interleaving; the conformance
/// suite replays N ∈ {1,2,4,7} × index on/off against the unsharded
/// selector across all five scheduler policies.
///
/// ## Report pipeline (coordinator / shard split)
///
/// `Report`/`Cancel` run a COORDINATOR phase under `mu_`: it validates the
/// ticket against the in-flight table and retires the entry (duplicate
/// taxonomy is pinned the moment the call returns). What happens to the
/// FOLD — the O(t^2) Cholesky append plus the index-leaf refresh — depends
/// on whether the caller has to wait for it:
///
///   - HYBRID (`ObservesOutcomes()`): the freeze detector reads the
///     index and its change log right after the fold, so `Report` drains the
///     queues (pending cancels) and runs the base engine's inline sequence
///     on the calling thread, still under `mu_`: fold, outcome hook
///     (`OnOutcomeIndexed`, or `OnOutcome` with the index off), WAL sync.
///     No worker hand-off, no wait outside the lock.
///   - Every other policy, and every `Cancel`: the fold is enqueued on the
///     tenant's owning shard worker through `ShardPool::Enqueue` and the
///     call returns with it in flight. The worker drains its queue FIFO, so
///     per-tenant fold order equals the order the coordinator validated the
///     completions in — exactly the sequential engine's fold order — while
///     folds for tenants on DIFFERENT shards run concurrently instead of
///     serializing under the engine lock.
///
/// Every reader of tenant or index state (`Next`, accessors, churn)
/// quiesces: it takes `mu_` — which stops new folds from being enqueued —
/// then drains the queues, so it always observes a fully folded engine.
///
/// Drop-in: the class IS a `core::MultiTenantSelector` (same ticketed
/// `Next()/Report()/Cancel()` protocol, same Status taxonomy), selected via
/// `SelectorOptions::num_shards > 1` through `MakeSelector`. Unlike the
/// base engine every public method is thread-safe: a selector-wide lock
/// serializes the protocol while queued folds run on the workers. (Sole
/// exception: `scheduler_policy()` hands out a raw reference into policy
/// state and is for quiescent diagnostics only.) Tenant churn
/// (`AddTenant`/`RemoveTenant`) runs under the same lock: an add appends
/// the new tenant to the tail of its shard, and a removal retires the
/// tenant in place, as the 1-shard engine does — it keeps its neutral
/// index leaf and its snapshot entry, and no other tenant moves.
class ShardedMultiTenantSelector final : public core::MultiTenantSelector {
 public:
  /// Validates `options` (num_shards >= 1) and starts the shard workers.
  static Result<std::unique_ptr<ShardedMultiTenantSelector>> Create(
      const core::SelectorOptions& options);

  // Thread-safe protocol overrides: take the selector lock (and, where the
  // call reads tenant state, drain the fold queues), then run the base
  // implementation.
  Result<int> AddTenant(std::shared_ptr<const gp::SharedGpPrior> prior,
                        std::vector<double> costs) override;
  Result<int> AddTenantWithDefaultPrior(int num_models,
                                        std::vector<double> costs,
                                        double noise_variance = 1e-2) override;
  Status RemoveTenant(int tenant) override;
  int num_tenants() const override;
  bool Exhausted() const override;
  int num_in_flight() const override;
  bool HasDispatchableWork() const override;
  Result<Assignment> Next() override;
  Status Report(const Assignment& assignment, double accuracy) override;
  Status Cancel(const Assignment& assignment) override;
  Result<Assignment> InFlightAssignment(int64_t ticket) const override;
  Result<int> BestModel(int tenant) const override;
  Result<double> BestAccuracy(int tenant) const override;
  Result<int> RoundsServed(int tenant) const override;

  /// Shard count (== options().num_shards).
  int num_shards() const override { return pool_.size(); }

  /// Live (non-retired) tenants per shard, ascending shard index: how many
  /// tenants' folds each worker owns (diagnostics). Adds spread ids
  /// round-robin; a removal shrinks only its own shard, so churn lets the
  /// counts drift apart — fold work follows picks, not tenant counts.
  std::vector<int> ShardSizes() const override;

  /// Thread-safe index invariant check (see the base class): additionally
  /// verifies that every tenant ever added, retired ones included, sits on
  /// shard `ShardOf(t)` in the index, and that `ShardSizes()` counts each
  /// shard's live tenants. Wired into the stress battery; with the index
  /// disabled only the live counts are checked.
  Status ValidateIndex() const override;

  /// Thread-safe durable-state capture/restore (see the base class): both
  /// lock the coordinator and drain the fold pipeline first, so a capture
  /// is quiesced (every acknowledged fold applied) and a restore never
  /// races a worker.
  Result<core::DurableSelectorState> CaptureDurableState() const override;
  Status RestoreDurableState(const core::DurableSelectorState& state) override;

  /// Cumulative per-shard-worker CPU seconds spent running queued folds.
  /// Max over shards tracks the fold critical path even when the host has
  /// fewer cores than shards (see ShardPool). Only `Cancel` and the
  /// `Report` of a policy that does not observe outcomes put work on a
  /// worker, so `Next()` and HYBRID's `Report` never move these numbers.
  /// Locks and drains the report queues first, so the numbers include every
  /// fold of every completion already reported — same quiescence discipline
  /// as the other const accessors.
  std::vector<double> ShardCpuSeconds() const override;

 private:
  ShardedMultiTenantSelector(core::MultiTenantSelector&& base,
                             int num_shards);

  /// The one placement rule: tenant `t` lives on shard `t % N` for its
  /// whole life. It names the fold owner, the shard of the tenant's index
  /// leaf and the shard the observer learns from `OnTenantPlaced`.
  int ShardOf(int tenant) const { return tenant % pool_.size(); }

  // Churn hooks, called with mu_ held by the public overrides after a
  // drain (and tenant by tenant by RestoreDurableState). A new id is the
  // largest ever issued, so the add appends it to the tail of its shard's
  // index tree and observer placement, as the base hook does on shard 0.
  // A removal moves nothing: the base engine has already neutralized the
  // tenant's leaf and published its retirement, so only the live count
  // changes.
  void OnTenantAdded(int tenant) override EASEML_REQUIRES(mu_) {
    const int shard = ShardOf(tenant);
    ++live_[static_cast<size_t>(shard)];
    AppendNewTenant(tenant, shard);
  }
  void OnTenantRemoved(int tenant) override EASEML_REQUIRES(mu_) {
    --live_[static_cast<size_t>(ShardOf(tenant))];
  }

  /// Queues `fold` on `owner`'s worker (timed there when observed) and
  /// returns without waiting for it.
  void QueueFold(int owner, std::function<void()> fold) EASEML_REQUIRES(mu_);

  /// Quiesces the report pipeline: blocks until every queued fold has
  /// finished. Callers hold `mu_`, so no new fold can be enqueued while
  /// they proceed — from here to unlock the engine is fully folded. Every
  /// reader of tenant/index state must call this right after locking.
  /// Returns the wall microseconds it blocked (0 when nothing was queued),
  /// which an observer also receives as the pipeline's queue-stall metric,
  /// once per drain.
  double DrainFolds() const EASEML_REQUIRES(mu_) {
    const double wait_us = pool_.DrainQueues() * 1e6;
    core::SelectorObserver* obs = observer();
    if (obs != nullptr) obs->OnDrainWait(wait_us);
    return wait_us;
  }

  /// Serializes the ticketed protocol. Guards the live counts (and,
  /// through the base-engine calls it wraps, all base-engine tenant state:
  /// users, in-flight table, candidate index — owned by the base class and
  /// therefore not annotatable here). pool_ is internally synchronized;
  /// queued folds touch only their own tenant's belief and shard-local
  /// index tree, and every path that reads or resizes tenant state drains
  /// them first (DrainFolds), so fold writes never race an engine read.
  mutable Mutex mu_;
  /// Live (non-retired) tenants per shard; what `ShardSizes()` reports.
  std::vector<int> live_ EASEML_GUARDED_BY(mu_);
  ShardPool pool_;
  /// Cached scheduler().ObservesOutcomes(): true (HYBRID) makes Report
  /// fold inline on the quiesced coordinator, right before the outcome hook
  /// that reads the folded state; false lets Report return with its fold
  /// still queued (fully asynchronous completions).
  const bool scheduler_observes_outcomes_;
};

/// Builds the selector engine `options` asks for: the plain sequential
/// `MultiTenantSelector` when `num_shards <= 1`, the sharded engine
/// otherwise. The two are interchangeable behind the returned pointer and
/// produce bit-identical selection traces.
Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options);

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARDED_SELECTOR_H_
