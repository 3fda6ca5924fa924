#include "shard/sharded_selector.h"

#include <utility>

#include "common/logging.h"

namespace easeml::shard {

ShardedMultiTenantSelector::ShardedMultiTenantSelector(
    core::MultiTenantSelector&& base, int num_shards)
    : core::MultiTenantSelector(std::move(base)),
      map_(num_shards),
      pool_(num_shards),
      scheduler_observes_outcomes_(scheduler().ObservesOutcomes()) {
  // The base Create built a 1-shard index when the option is on; swap in
  // the N-shard instance before any tenant exists so leaves land on their
  // owning shard's tree from the start.
  if (candidate_index() != nullptr) ResetIndex(num_shards);
}

Result<std::unique_ptr<ShardedMultiTenantSelector>>
ShardedMultiTenantSelector::Create(const core::SelectorOptions& options) {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector base,
                          core::MultiTenantSelector::Create(options));
  return std::unique_ptr<ShardedMultiTenantSelector>(
      new ShardedMultiTenantSelector(std::move(base), options.num_shards));
}

void ShardedMultiTenantSelector::NotifyPlacementLocked() {
  core::SelectorObserver* obs = observer();
  if (obs == nullptr) return;
  std::vector<std::vector<int>> locals;
  locals.reserve(static_cast<size_t>(map_.num_shards()));
  for (int s = 0; s < map_.num_shards(); ++s) locals.push_back(map_.local(s));
  obs->OnPlacementChanged(locals);
}

void ShardedMultiTenantSelector::SyncIndexPlacement() {
  scheduler::CandidateIndex* index = candidate_index();
  if (index == nullptr) return;
  std::vector<std::vector<int>> locals;
  locals.reserve(static_cast<size_t>(map_.num_shards()));
  for (int s = 0; s < map_.num_shards(); ++s) locals.push_back(map_.local(s));
  index->SyncPlacement(locals, users());
}

Result<int> ShardedMultiTenantSelector::AddTenant(
    std::shared_ptr<const gp::SharedGpPrior> prior,
    std::vector<double> costs) {
  MutexLock lock(mu_);
  // Churn resizes tenant storage, which queued folds hold references into.
  DrainFolds();
  return core::MultiTenantSelector::AddTenant(std::move(prior),
                                              std::move(costs));
}

Result<int> ShardedMultiTenantSelector::AddTenantWithDefaultPrior(
    int num_models, std::vector<double> costs, double noise_variance) {
  MutexLock lock(mu_);
  DrainFolds();
  return core::MultiTenantSelector::AddTenantWithDefaultPrior(
      num_models, std::move(costs), noise_variance);
}

Status ShardedMultiTenantSelector::RemoveTenant(int tenant) {
  MutexLock lock(mu_);
  DrainFolds();
  return core::MultiTenantSelector::RemoveTenant(tenant);
}

int ShardedMultiTenantSelector::num_tenants() const {
  // Coordinator-only state (the tenant count changes under mu_ after a
  // drain): no quiescence needed to read it.
  MutexLock lock(mu_);
  return core::MultiTenantSelector::num_tenants();
}

bool ShardedMultiTenantSelector::Exhausted() const {
  MutexLock lock(mu_);
  DrainFolds();  // queued folds advance num_played
  return core::MultiTenantSelector::Exhausted();
}

int ShardedMultiTenantSelector::num_in_flight() const {
  // Tickets are retired in the coordinator phase, before the fold is even
  // enqueued — the in-flight table needs no quiescence.
  MutexLock lock(mu_);
  return core::MultiTenantSelector::num_in_flight();
}

bool ShardedMultiTenantSelector::HasDispatchableWork() const {
  MutexLock lock(mu_);
  DrainFolds();  // queued cancel folds re-open arms
  return core::MultiTenantSelector::HasDispatchableWork();
}

Result<core::MultiTenantSelector::Assignment>
ShardedMultiTenantSelector::Next() {
  MutexLock lock(mu_);
  // The pick and the arm selection run right here on the coordinator and
  // read every tenant's post-fold state (index roots or the reference
  // scan), so the pipeline must be quiescent. Holding mu_ keeps it so: no
  // Report can enqueue another fold until this call returns.
  DrainFolds();
  return core::MultiTenantSelector::Next();
}

Status ShardedMultiTenantSelector::Report(const Assignment& assignment,
                                          double accuracy) {
  // Observation (all guarded — zero clock reads when no observer is set):
  // OnReport carries the coordinator's thread-CPU cost, which excludes the
  // fold (it runs on the owning worker, timed inside the queued closure)
  // and, on the HYBRID path, the drain (a condvar wait burns wall time,
  // not this thread's CPU).
  core::SelectorObserver* obs = observer();
  const double c0 = obs != nullptr ? ThreadCpuSeconds() : 0.0;
  int tenant = -1;
  {
    MutexLock lock(mu_);
    // Coordinator phase: validate + retire the ticket, then hand the fold
    // to the tenant's owning shard worker. FIFO queue order under mu_ is
    // the per-tenant fold order — identical to the sequential engine's.
    Result<Assignment> begun = BeginReport(assignment, accuracy);
    if (!begun.ok()) {
      if (obs != nullptr) {
        obs->OnTicketRejected(static_cast<int>(begun.status().code()));
      }
      return begun.status();
    }
    const Assignment issued = *begun;
    tenant = issued.tenant;
    const int owner = map_.shard_of(tenant);
    EASEML_CHECK(owner >= 0)
        << "shard: tenant " << tenant << " of live ticket " << issued.id
        << " is not mapped to any shard";
    // The fold emits its own tenant event (base FoldReportedOutcome), so
    // the closure only adds worker-side timing around it when observed.
    const bool queued = pool_.Enqueue(owner, [this, issued, accuracy, owner] {
      if (observer() == nullptr) {
        FoldReportedOutcome(issued, accuracy);
        return;
      }
      const double f0 = ThreadCpuSeconds();
      FoldReportedOutcome(issued, accuracy);
      observer()->OnFold(owner, (ThreadCpuSeconds() - f0) * 1e6);
    });
    EASEML_CHECK(queued) << "shard: report queue rejected a validated fold "
                            "(pool shut down under a live selector)";
    if (obs != nullptr) obs->OnFoldQueued(owner);
    if (!scheduler_observes_outcomes_) {
      // Stateless-OnOutcome policies: sequence the scheduler now and
      // return with the fold still queued. Readers quiesce on entry, so
      // nothing can observe the tenant pre-fold. The sync runs under mu_
      // like every WAL call (the record was appended in BeginReport, so
      // one write covers the whole group) — the fold itself carries no
      // durability obligation and keeps running on the worker.
      FinishReport(tenant);
      EASEML_RETURN_NOT_OK(SyncWal());
      if (obs != nullptr) obs->OnReport((ThreadCpuSeconds() - c0) * 1e6);
      return Status::OK();
    }
  }
  // HYBRID's freeze detector reads every tenant's post-fold state. Wait
  // for the queues outside mu_ first — concurrent reporters keep
  // validating and enqueuing while the backlog folds — then re-lock and
  // drain again: with mu_ held no new fold can slip in, so the outcome
  // hook sees a quiescent engine and a fresh index. The backlog is bounded
  // by num_devices (every fold stems from an issued ticket), so this
  // converges.
  pool_.DrainQueues();
  MutexLock lock(mu_);
  DrainFolds();
  FinishReport(tenant);
  EASEML_RETURN_NOT_OK(SyncWal());
  if (obs != nullptr) obs->OnReport((ThreadCpuSeconds() - c0) * 1e6);
  return Status::OK();
}

Status ShardedMultiTenantSelector::Cancel(const Assignment& assignment) {
  core::SelectorObserver* obs = observer();
  MutexLock lock(mu_);
  // Same coordinator/shard split as Report, minus the scheduler sequencing
  // (a cancel is not an outcome): retire the ticket, queue the un-charge
  // on the owner, return immediately.
  Result<Assignment> begun = BeginCancel(assignment);
  if (!begun.ok()) {
    if (obs != nullptr) {
      obs->OnTicketRejected(static_cast<int>(begun.status().code()));
    }
    return begun.status();
  }
  const Assignment issued = *begun;
  const int owner = map_.shard_of(issued.tenant);
  EASEML_CHECK(owner >= 0)
      << "shard: tenant " << issued.tenant << " of live ticket " << issued.id
      << " is not mapped to any shard";
  const bool queued = pool_.Enqueue(owner, [this, issued, owner] {
    if (observer() == nullptr) {
      FoldCancel(issued);
      return;
    }
    const double f0 = ThreadCpuSeconds();
    FoldCancel(issued);
    observer()->OnFold(owner, (ThreadCpuSeconds() - f0) * 1e6);
  });
  EASEML_CHECK(queued) << "shard: report queue rejected a validated cancel "
                          "(pool shut down under a live selector)";
  if (obs != nullptr) obs->OnFoldQueued(owner);
  return SyncWal();
}

Result<core::MultiTenantSelector::Assignment>
ShardedMultiTenantSelector::InFlightAssignment(int64_t ticket) const {
  // Coordinator-only state (tickets are issued/retired under mu_).
  MutexLock lock(mu_);
  return core::MultiTenantSelector::InFlightAssignment(ticket);
}

Result<int> ShardedMultiTenantSelector::BestModel(int tenant) const {
  MutexLock lock(mu_);
  DrainFolds();  // the incumbent advances inside the fold
  return core::MultiTenantSelector::BestModel(tenant);
}

Result<double> ShardedMultiTenantSelector::BestAccuracy(int tenant) const {
  MutexLock lock(mu_);
  DrainFolds();
  return core::MultiTenantSelector::BestAccuracy(tenant);
}

Result<int> ShardedMultiTenantSelector::RoundsServed(int tenant) const {
  MutexLock lock(mu_);
  DrainFolds();
  return core::MultiTenantSelector::RoundsServed(tenant);
}

Status ShardedMultiTenantSelector::ValidateIndex() const {
  MutexLock lock(mu_);
  DrainFolds();  // leaf refreshes ride the report queues
  const scheduler::CandidateIndex* index = candidate_index();
  if (index == nullptr) return Status::OK();
  // Placement must mirror the shard map exactly (rebalances resync it).
  const std::vector<std::vector<int>> placement = index->Placement();
  if (static_cast<int>(placement.size()) != map_.num_shards()) {
    return Status::Internal("index: shard count diverged from the map");
  }
  for (int s = 0; s < map_.num_shards(); ++s) {
    if (placement[static_cast<size_t>(s)] != map_.local(s)) {
      return Status::Internal("index: placement of shard " +
                              std::to_string(s) +
                              " diverged from the shard map");
    }
  }
  return core::MultiTenantSelector::ValidateIndex();
}

Result<core::DurableSelectorState>
ShardedMultiTenantSelector::CaptureDurableState() const {
  MutexLock lock(mu_);
  DrainFolds();  // the capture must see every acknowledged fold applied
  return core::MultiTenantSelector::CaptureDurableState();
}

Status ShardedMultiTenantSelector::RestoreDurableState(
    const core::DurableSelectorState& state) {
  MutexLock lock(mu_);
  DrainFolds();
  return core::MultiTenantSelector::RestoreDurableState(state);
}

std::vector<int> ShardedMultiTenantSelector::ShardSizes() const {
  MutexLock lock(mu_);
  std::vector<int> sizes;
  sizes.reserve(map_.num_shards());
  for (int s = 0; s < map_.num_shards(); ++s) {
    sizes.push_back(static_cast<int>(map_.local(s).size()));
  }
  return sizes;
}

std::vector<double> ShardedMultiTenantSelector::ShardCpuSeconds() const {
  // Same lock discipline as every other const accessor (this used to be
  // the one hole in the TSA story): quiesce the fold pipeline under mu_ so
  // the accounting includes every completion already reported, then read
  // the internally synchronized pool counters.
  MutexLock lock(mu_);
  DrainFolds();
  return pool_.WorkerCpuSeconds();
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
