#ifndef EASEML_SHARD_SHARDED_SELECTOR_H_
#define EASEML_SHARD_SHARDED_SELECTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "core/multi_tenant_selector.h"

namespace easeml::shard {

/// Sharded selector engine: the base engine behind one lock, with an
/// N-shard candidate index.
///
/// Tenant `t` lives on shard `t % N` for its whole life (`ShardOf`). A
/// shard is a partition of the candidate index (`scheduler::CandidateIndex`
/// keeps one tournament tree per shard and merges the roots exactly: O(1)
/// root reads per shard) and a slot of the observer's snapshot plane (the
/// shard `OnTenantPlaced` announces); it owns no thread. Every call takes
/// the selector lock `mu_` and runs the base engine's implementation on
/// the calling thread: picks, arm selections, report and cancel folds,
/// churn. Placement never changes a pick: the selection trace is
/// BIT-IDENTICAL to the 1-shard engine's for every shard count and any
/// thread interleaving; the conformance suite replays N ∈ {1,2,4,7} ×
/// index on/off against the unsharded selector across all five scheduler
/// policies.
///
/// Drop-in: the class IS a `core::MultiTenantSelector` (same ticketed
/// `Next()/Report()/Cancel()` protocol, same Status taxonomy), selected via
/// `SelectorOptions::num_shards > 1` through `MakeSelector`. Unlike the
/// base engine every public method is thread-safe. (Sole exception:
/// `scheduler_policy()` hands out a raw reference into policy state and is
/// for quiescent diagnostics only.) Tenant churn (`AddTenant`/
/// `RemoveTenant`) runs under the same lock: an add appends the new tenant
/// to the tail of its shard, and a removal retires the tenant in place, as
/// the 1-shard engine does — it keeps its neutral index leaf and its
/// snapshot entry, and no other tenant moves.
class ShardedMultiTenantSelector final : public core::MultiTenantSelector {
 public:
  /// Validates `options` (num_shards >= 1).
  static Result<std::unique_ptr<ShardedMultiTenantSelector>> Create(
      const core::SelectorOptions& options);

  // Thread-safe protocol overrides: take the selector lock, then run the
  // base implementation.
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
  int num_shards() const override { return num_shards_; }

  /// Live (non-retired) tenants per shard, ascending shard index
  /// (diagnostics). Adds spread ids round-robin; a removal shrinks only
  /// its own shard, so churn lets the counts drift apart.
  std::vector<int> ShardSizes() const override;

  /// Thread-safe index invariant check (see the base class): additionally
  /// verifies that every tenant ever added, retired ones included, sits on
  /// shard `ShardOf(t)` in the index, and that `ShardSizes()` counts each
  /// shard's live tenants. Wired into the stress battery; with the index
  /// disabled only the live counts are checked.
  Status ValidateIndex() const override;

  /// Thread-safe durable-state capture/restore (see the base class).
  Result<core::DurableSelectorState> CaptureDurableState() const override;
  Status RestoreDurableState(const core::DurableSelectorState& state) override;

 private:
  ShardedMultiTenantSelector(core::MultiTenantSelector&& base,
                             int num_shards);

  // Churn hooks, called with mu_ held by the public overrides (and tenant
  // by tenant by RestoreDurableState). The base add hook appends the new
  // tenant to the tail of its shard's index tree and observer placement; a
  // removal moves nothing, so only the live count changes.
  void OnTenantAdded(int tenant) override EASEML_REQUIRES(mu_) {
    ++live_[static_cast<size_t>(ShardOf(tenant))];
    core::MultiTenantSelector::OnTenantAdded(tenant);
  }
  void OnTenantRemoved(int tenant) override EASEML_REQUIRES(mu_) {
    --live_[static_cast<size_t>(ShardOf(tenant))];
  }

  const int num_shards_;
  /// Serializes every public call. Guards the live counts (and, through
  /// the base-engine calls it wraps, all base-engine tenant state: users,
  /// in-flight table, candidate index — owned by the base class and
  /// therefore not annotatable here).
  mutable Mutex mu_;
  /// Live (non-retired) tenants per shard; what `ShardSizes()` reports.
  std::vector<int> live_ EASEML_GUARDED_BY(mu_);
};

/// Builds the selector engine `options` asks for: the plain sequential
/// `MultiTenantSelector` when `num_shards <= 1`, the sharded engine
/// otherwise. The two are interchangeable behind the returned pointer and
/// produce bit-identical selection traces.
Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options);

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARDED_SELECTOR_H_
