#include "shard/sharded_selector.h"

#include <utility>

namespace easeml::shard {

ShardedMultiTenantSelector::ShardedMultiTenantSelector(
    core::MultiTenantSelector&& base, int num_shards)
    : core::MultiTenantSelector(std::move(base)),
      num_shards_(num_shards),
      live_(static_cast<size_t>(num_shards), 0) {
  // The base Create built a 1-shard index when the option is on; swap in
  // the N-shard instance before any tenant exists so leaves land on their
  // shard's tree from the start.
  if (candidate_index() != nullptr) ResetIndex(num_shards);
}

Result<std::unique_ptr<ShardedMultiTenantSelector>>
ShardedMultiTenantSelector::Create(const core::SelectorOptions& options) {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector base,
                          core::MultiTenantSelector::Create(options));
  return std::unique_ptr<ShardedMultiTenantSelector>(
      new ShardedMultiTenantSelector(std::move(base), options.num_shards));
}

Result<int> ShardedMultiTenantSelector::AddTenant(
    std::shared_ptr<const gp::SharedGpPrior> prior,
    std::vector<double> costs) {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::AddTenant(std::move(prior),
                                              std::move(costs));
}

Result<int> ShardedMultiTenantSelector::AddTenantWithDefaultPrior(
    int num_models, std::vector<double> costs, double noise_variance) {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::AddTenantWithDefaultPrior(
      num_models, std::move(costs), noise_variance);
}

Status ShardedMultiTenantSelector::RemoveTenant(int tenant) {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::RemoveTenant(tenant);
}

int ShardedMultiTenantSelector::num_tenants() const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::num_tenants();
}

bool ShardedMultiTenantSelector::Exhausted() const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::Exhausted();
}

int ShardedMultiTenantSelector::num_in_flight() const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::num_in_flight();
}

bool ShardedMultiTenantSelector::HasDispatchableWork() const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::HasDispatchableWork();
}

Result<core::MultiTenantSelector::Assignment>
ShardedMultiTenantSelector::Next() {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::Next();
}

Status ShardedMultiTenantSelector::Report(const Assignment& assignment,
                                          double accuracy) {
  // The observer's report clock starts inside the base call, so time spent
  // waiting for the lock is in no hook.
  MutexLock lock(mu_);
  return core::MultiTenantSelector::Report(assignment, accuracy);
}

Status ShardedMultiTenantSelector::Cancel(const Assignment& assignment) {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::Cancel(assignment);
}

Result<core::MultiTenantSelector::Assignment>
ShardedMultiTenantSelector::InFlightAssignment(int64_t ticket) const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::InFlightAssignment(ticket);
}

Result<int> ShardedMultiTenantSelector::BestModel(int tenant) const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::BestModel(tenant);
}

Result<double> ShardedMultiTenantSelector::BestAccuracy(int tenant) const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::BestAccuracy(tenant);
}

Result<int> ShardedMultiTenantSelector::RoundsServed(int tenant) const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::RoundsServed(tenant);
}

Status ShardedMultiTenantSelector::ValidateIndex() const {
  MutexLock lock(mu_);
  // Every tenant ever added, retired ones included, sits on ShardOf(t),
  // and the live counts match the tenants' retirement flags.
  std::vector<std::vector<int>> placement(live_.size());
  std::vector<int> live(live_.size(), 0);
  for (const scheduler::UserState& u : users()) {
    const size_t shard = static_cast<size_t>(ShardOf(u.user_id()));
    placement[shard].push_back(u.user_id());
    if (!u.retired()) ++live[shard];
  }
  if (live != live_) {
    return Status::Internal("shard: live tenant counts diverged");
  }
  const scheduler::CandidateIndex* index = candidate_index();
  if (index != nullptr && index->Placement() != placement) {
    return Status::Internal("index: placement diverged from ShardOf");
  }
  return core::MultiTenantSelector::ValidateIndex();
}

Result<core::DurableSelectorState>
ShardedMultiTenantSelector::CaptureDurableState() const {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::CaptureDurableState();
}

Status ShardedMultiTenantSelector::RestoreDurableState(
    const core::DurableSelectorState& state) {
  MutexLock lock(mu_);
  return core::MultiTenantSelector::RestoreDurableState(state);
}

std::vector<int> ShardedMultiTenantSelector::ShardSizes() const {
  MutexLock lock(mu_);
  return live_;
}

Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options) {
  if (options.num_shards <= 1) {
    EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector base,
                            core::MultiTenantSelector::Create(options));
    return std::make_unique<core::MultiTenantSelector>(std::move(base));
  }
  EASEML_ASSIGN_OR_RETURN(std::unique_ptr<ShardedMultiTenantSelector> sharded,
                          ShardedMultiTenantSelector::Create(options));
  return std::unique_ptr<core::MultiTenantSelector>(std::move(sharded));
}

}  // namespace easeml::shard
