#include "shard/sharded_selector.h"

#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace easeml::shard {

namespace {

/// Runs `fold` and, when observed, reports its wall time as a fold on
/// `owner`. Returns that time in microseconds (0 when unobserved).
template <typename Fold>
double RunFold(core::SelectorObserver* obs, int owner, const Fold& fold) {
  if (obs == nullptr) {
    fold();
    return 0.0;
  }
  const double f0 = MonotonicSeconds();
  fold();
  const double fold_us = (MonotonicSeconds() - f0) * 1e6;
  obs->OnFold(owner, fold_us);
  return fold_us;
}

}  // namespace

ShardedMultiTenantSelector::ShardedMultiTenantSelector(
    core::MultiTenantSelector&& base, int num_shards)
    : core::MultiTenantSelector(std::move(base)),
      live_(static_cast<size_t>(num_shards), 0),
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

void ShardedMultiTenantSelector::QueueFold(int owner,
                                           std::function<void()> fold) {
  // The fold emits its own tenant event (base Fold*), so the closure only
  // adds worker-side timing around it when observed.
  core::SelectorObserver* obs = observer();
  const bool queued =
      pool_.Enqueue(owner, [obs, owner, fold = std::move(fold)] {
        RunFold(obs, owner, fold);
      });
  EASEML_CHECK(queued) << "shard: report queue rejected a validated fold "
                          "(pool shut down under a live selector)";
  if (obs != nullptr) obs->OnFoldQueued(owner);
}

Status ShardedMultiTenantSelector::Report(const Assignment& assignment,
                                          double accuracy) {
  // Observation (guarded: unobserved, the call reads a clock only inside a
  // drain that blocks): OnReport carries the coordinator's wall time from
  // lock acquisition to the end of the WAL sync, minus the drain wait and
  // the inline fold, which OnDrainWait and OnFold report on their own (a
  // queued fold is timed on its worker). The three parts are disjoint, so
  // they never sum past the wall time of the call.
  core::SelectorObserver* obs = observer();
  MutexLock lock(mu_);
  const double c0 = obs != nullptr ? MonotonicSeconds() : 0.0;
  Result<Assignment> begun = BeginReport(assignment, accuracy);
  if (!begun.ok()) {
    if (obs != nullptr) {
      obs->OnTicketRejected(static_cast<int>(begun.status().code()));
    }
    return begun.status();
  }
  const Assignment issued = *begun;
  const int owner = ShardOf(issued.tenant);
  double wait_us = 0.0;
  double fold_us = 0.0;
  if (scheduler_observes_outcomes_) {
    // HYBRID's freeze detector reads the post-fold index and its change
    // log right after this fold, so there is nothing to overlap:
    // fold here, on the quiesced coordinator, as the base engine does. The
    // drain retires queued cancels first (per-tenant fold order), and mu_
    // keeps the pipeline empty until the call returns.
    wait_us = DrainFolds();
    if (obs != nullptr) obs->OnFoldQueued(owner);
    fold_us =
        RunFold(obs, owner, [&] { FoldReportedOutcome(issued, accuracy); });
  } else {
    // Stateless-OnOutcome policies: sequence the scheduler now and return
    // with the fold still queued. Readers quiesce on entry, so nothing can
    // observe the tenant pre-fold; FIFO queue order under mu_ is the
    // per-tenant fold order, identical to the sequential engine's.
    QueueFold(owner, [this, issued, accuracy] {
      FoldReportedOutcome(issued, accuracy);
    });
  }
  FinishReport(issued.tenant);
  // The sync runs under mu_ like every WAL call (the record was appended in
  // BeginReport, so one write covers the whole group); a queued fold
  // carries no durability obligation.
  EASEML_RETURN_NOT_OK(SyncWal());
  if (obs != nullptr) {
    obs->OnReport((MonotonicSeconds() - c0) * 1e6 - wait_us - fold_us);
  }
  return Status::OK();
}

Status ShardedMultiTenantSelector::Cancel(const Assignment& assignment) {
  core::SelectorObserver* obs = observer();
  MutexLock lock(mu_);
  // Same coordinator/shard split as a stateless Report, minus the
  // scheduler sequencing (a cancel is not an outcome): retire the ticket,
  // queue the un-charge on the owner, return immediately.
  Result<Assignment> begun = BeginCancel(assignment);
  if (!begun.ok()) {
    if (obs != nullptr) {
      obs->OnTicketRejected(static_cast<int>(begun.status().code()));
    }
    return begun.status();
  }
  const Assignment issued = *begun;
  QueueFold(ShardOf(issued.tenant), [this, issued] { FoldCancel(issued); });
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
  // Churn updates the counts under mu_; no quiescence needed to read them.
  MutexLock lock(mu_);
  return live_;
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
