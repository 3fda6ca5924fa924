#include "core/multi_tenant_selector.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>

#include "bandit/gp_ucb.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "scheduler/fcfs.h"
#include "scheduler/greedy.h"
#include "scheduler/hybrid.h"
#include "scheduler/random_scheduler.h"
#include "scheduler/round_robin.h"

namespace easeml::core {

std::string SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kHybrid:
      return "hybrid";
    case SchedulerKind::kGreedy:
      return "greedy";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kRandom:
      return "random";
    case SchedulerKind::kFcfs:
      return "fcfs";
  }
  return "unknown";
}

std::unique_ptr<scheduler::SchedulerPolicy> MakeSchedulerPolicy(
    const SelectorOptions& options) {
  switch (options.scheduler) {
    case SchedulerKind::kHybrid:
      return std::make_unique<scheduler::HybridScheduler>(
          options.hybrid_patience);
    case SchedulerKind::kGreedy:
      return std::make_unique<scheduler::GreedyScheduler>();
    case SchedulerKind::kRoundRobin:
      return std::make_unique<scheduler::RoundRobinScheduler>();
    case SchedulerKind::kRandom:
      return std::make_unique<scheduler::RandomScheduler>(options.seed);
    case SchedulerKind::kFcfs:
      return std::make_unique<scheduler::FcfsScheduler>();
  }
  return nullptr;
}

Result<MultiTenantSelector> MultiTenantSelector::Create(
    const SelectorOptions& options) {
  if (!(options.delta > 0.0 && options.delta < 1.0)) {  // NaN fails too
    return Status::InvalidArgument("Selector: delta must be in (0, 1)");
  }
  if (options.hybrid_patience <= 0) {
    return Status::InvalidArgument("Selector: hybrid_patience must be > 0");
  }
  if (options.num_devices < 1) {
    return Status::InvalidArgument("Selector: num_devices must be >= 1");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("Selector: num_shards must be >= 1");
  }
  auto sched = MakeSchedulerPolicy(options);
  if (sched == nullptr) {
    return Status::InvalidArgument("Selector: unknown scheduler kind");
  }
  return MultiTenantSelector(options, std::move(sched));
}

MultiTenantSelector::MultiTenantSelector(
    const SelectorOptions& options,
    std::unique_ptr<scheduler::SchedulerPolicy> s)
    : options_(options), scheduler_(std::move(s)) {
  if (!options_.use_candidate_index) return;
  // Only GREEDY (and HYBRID's greedy phase) read bounds/gaps; the other
  // schedulers' keys skip the O(K) UcbGap derivation per event. Only
  // HYBRID's freeze detector reads the change log.
  const bool hybrid = options_.scheduler == SchedulerKind::kHybrid;
  const bool track_gap =
      hybrid || options_.scheduler == SchedulerKind::kGreedy;
  index_ = std::make_unique<scheduler::CandidateIndex>(
      track_gap, /*log_changes=*/hybrid);
}

void MultiTenantSelector::RefreshIndexEntry(int tenant) {
  if (index_ == nullptr) return;
  index_->Refresh(users_[tenant]);
}

int MultiTenantSelector::num_tenants() const {
  MutexLock lock(*mu_);
  return static_cast<int>(users_.size());
}

int MultiTenantSelector::num_in_flight() const {
  MutexLock lock(*mu_);
  return static_cast<int>(in_flight_.size());
}

std::vector<int> MultiTenantSelector::ShardSizes() const {
  MutexLock lock(*mu_);
  std::vector<int> live(static_cast<size_t>(num_shards()), 0);
  for (const scheduler::UserState& u : users_) {
    if (!u.retired()) ++live[static_cast<size_t>(ShardOf(u.user_id()))];
  }
  return live;
}

Status MultiTenantSelector::ValidateIndex() const {
  MutexLock lock(*mu_);
  if (index_ == nullptr) return Status::OK();
  return index_->Validate(users_);
}

Status MultiTenantSelector::NoDispatchableWorkStatus() const {
  return in_flight_.empty()
             ? Status::FailedPrecondition("Next: all tenants exhausted")
             : Status::FailedPrecondition(
                   "Next: every remaining model is in flight; report a "
                   "completion first");
}

Status MultiTenantSelector::WalGuard() const {
  if (options_.wal == nullptr || wal_status_.ok()) return Status::OK();
  return Status::FailedPrecondition(
      "selector: a write-ahead log append failed (" + wal_status_.ToString() +
      "); the selector is fail-stopped — recover a fresh engine from the log");
}

Status MultiTenantSelector::WalApply(Status status) {
  if (!status.ok() && wal_status_.ok()) wal_status_ = status;
  return status;
}

Status MultiTenantSelector::SyncWal() {
  // A deferred log's Sync is a no-op by construction (acks ride batched
  // flushes inside Log*), so skip the call on the serving path.
  if (options_.wal == nullptr || options_.wal->SyncIsDeferred()) {
    return Status::OK();
  }
  return WalApply(options_.wal->Sync());
}

Result<int> MultiTenantSelector::AddTenantWithBelief(
    std::unique_ptr<gp::ArmBelief> belief, std::vector<double> costs) {
  bandit::GpUcbOptions ucb;
  ucb.delta = options_.delta;
  ucb.cost_aware = options_.cost_aware;
  if (options_.cost_aware) ucb.costs = costs;
  EASEML_ASSIGN_OR_RETURN(
      std::unique_ptr<bandit::GpUcbPolicy> policy,
      bandit::GpUcbPolicy::CreateUnique(std::move(belief), std::move(ucb)));
  const int id = static_cast<int>(users_.size());
  EASEML_ASSIGN_OR_RETURN(
      scheduler::UserState state,
      scheduler::UserState::Create(id, std::move(policy), std::move(costs)));
  // One device slot per tenant per device: a tenant may occupy several
  // devices at once, but never with the same model (per-arm in-flight mask).
  EASEML_RETURN_NOT_OK(state.set_max_in_flight(options_.num_devices));
  users_.push_back(std::move(state));
  best_model_.push_back(-1);
  PlaceTenant(id);
  return id;
}

void MultiTenantSelector::PlaceTenant(int tenant) {
  // New ids are the next leaf slot, so the index tree extends at the tail
  // in O(log T) amortized — never a rebuild on the add path.
  if (index_ != nullptr) index_->AppendTenant(users_[tenant]);
  if (options_.observer != nullptr) {
    options_.observer->OnTenantPlaced(tenant, ShardOf(tenant));
    NotifyTenantEvent(tenant);
  }
}

TenantObservation MultiTenantSelector::DeriveObservation(int tenant) const {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const scheduler::UserState& u = users_[tenant];
  TenantObservation o;
  o.tenant = tenant;
  o.retired = u.retired();
  o.rounds_served = u.rounds_served();
  o.num_models = u.num_models();
  o.best_model = best_model_[tenant];
  o.best_reward = u.best_reward();
  o.bound = kNegInf;
  o.gap = kNegInf;
  o.max_ucb = kNegInf;
  if (o.retired) return o;  // belief released: no policy reads below
  o.in_flight = u.in_flight_count();
  o.consumed_cost = u.consumed_cost();
  o.uninitialized = u.NeedsInitialObservation();
  o.schedulable = u.Schedulable();
  if (!o.schedulable) return o;
  o.bound = u.empirical_bound();
  // Same derivation discipline as `scheduler::MakeTenantKey`: reuse the
  // just-refreshed index key when the index tracks gaps (free), otherwise
  // pay the O(K) batched MaxUcb diagnostics read once per tenant event.
  if (index_ != nullptr && index_->track_gap()) {
    o.gap = index_->Key(tenant).gap;
  } else if (u.policy().HasConfidenceBounds()) {
    o.gap = u.UcbGap();
  }
  if (o.gap > kNegInf) o.max_ucb = o.best_reward + o.gap;
  return o;
}

void MultiTenantSelector::NotifyTenantEvent(int tenant) {
  SelectorObserver* obs = options_.observer;
  if (obs == nullptr) return;
  obs->OnTenantEvent(DeriveObservation(tenant));
}

Result<int> MultiTenantSelector::AddTenant(
    std::shared_ptr<const gp::SharedGpPrior> prior,
    std::vector<double> costs) {
  MutexLock lock(*mu_);
  return AddTenantLocked(std::move(prior), std::move(costs));
}

Result<int> MultiTenantSelector::AddTenantLocked(
    std::shared_ptr<const gp::SharedGpPrior> prior,
    std::vector<double> costs) {
  EASEML_RETURN_NOT_OK(WalGuard());
  // Keep log copies before the belief consumes the prior handle: the
  // append carries the prior (for identity-deduplicated registration) and
  // the costs of the tenant it registers.
  std::shared_ptr<const gp::SharedGpPrior> prior_for_log;
  std::vector<double> costs_for_log;
  if (options_.wal != nullptr) {
    prior_for_log = prior;
    costs_for_log = costs;
  }
  EASEML_ASSIGN_OR_RETURN(std::unique_ptr<gp::SharedPriorGp> belief,
                          gp::SharedPriorGp::CreateUnique(std::move(prior)));
  EASEML_ASSIGN_OR_RETURN(
      const int id, AddTenantWithBelief(std::move(belief), std::move(costs)));
  if (options_.wal != nullptr) {
    EASEML_RETURN_NOT_OK(WalApply(
        options_.wal->LogAddTenant(id, prior_for_log, costs_for_log)));
    EASEML_RETURN_NOT_OK(SyncWal());
  }
  return id;
}

namespace {

/// Process-wide default-prior cache, one prior per (K, noise variance).
/// Mutex-guarded because engines on different threads reach it; weak_ptr
/// entries let a prior die with its last tenant instead of pinning the
/// Gram matrix forever. The mutex lives in the same struct as the map it
/// guards so the guarded-by relation is expressible (and compile-checked)
/// instead of being a comment between two function-local statics.
using DefaultPriorCache =
    std::map<std::pair<int, double>, std::weak_ptr<const gp::SharedGpPrior>>;

struct DefaultPriorCacheState {
  Mutex mu;
  DefaultPriorCache cache EASEML_GUARDED_BY(mu);
};

/// Leaked intentionally: threads still running during static destruction
/// may touch the cache.
DefaultPriorCacheState& GetDefaultPriorCacheState() {
  static auto* state = new DefaultPriorCacheState;
  return *state;
}

/// Erases every dead weak_ptr. Called under the cache mutex on EVERY
/// lookup/insert — not only on misses — so a long-lived service whose
/// tenant churn retires (K, noise) shapes never accumulates dead entries
/// while serving cache hits for the shapes that stay live. O(live + dead)
/// per call against a map bounded by the distinct shapes in use.
void PruneExpiredDefaultPriors(DefaultPriorCacheState& state)
    EASEML_REQUIRES(state.mu) {
  for (auto it = state.cache.begin(); it != state.cache.end();) {
    if (it->second.expired()) {
      it = state.cache.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

int DefaultPriorCacheSizeForTesting() {
  // Deliberately does NOT prune: the regression test observes that the
  // serving path's lookups do.
  DefaultPriorCacheState& state = GetDefaultPriorCacheState();
  MutexLock lock(state.mu);
  return static_cast<int>(state.cache.size());
}

Result<int> MultiTenantSelector::AddTenantWithDefaultPrior(
    int num_models, std::vector<double> costs, double noise_variance) {
  if (num_models <= 0) {
    return Status::InvalidArgument("AddTenant: num_models must be > 0");
  }
  // Validate before touching the cache: a NaN key would break the map's
  // ordering invariant, and a +inf one would cache a prior nobody may use.
  if (!std::isfinite(noise_variance) || !(noise_variance > 0.0)) {
    return Status::InvalidArgument(
        "AddTenant: noise variance must be finite and > 0");
  }
  std::shared_ptr<const gp::SharedGpPrior> prior;
  {
    DefaultPriorCacheState& state = GetDefaultPriorCacheState();
    MutexLock lock(state.mu);
    PruneExpiredDefaultPriors(state);
    std::weak_ptr<const gp::SharedGpPrior>& slot =
        state.cache[{num_models, noise_variance}];
    prior = slot.lock();
    if (prior == nullptr) {
      EASEML_ASSIGN_OR_RETURN(
          prior, gp::MakeSharedGpPrior(linalg::Matrix::Identity(num_models),
                                       noise_variance));
      state.cache[{num_models, noise_variance}] = prior;
    }
  }
  // The cache lock is released before the engine lock is taken: the two
  // never nest.
  MutexLock lock(*mu_);
  return AddTenantLocked(std::move(prior), std::move(costs));
}

Status MultiTenantSelector::RemoveTenant(int tenant) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(WalGuard());
  EASEML_RETURN_NOT_OK(ValidateTenant(tenant));
  scheduler::UserState& user = users_[tenant];
  if (user.retired()) {
    return Status::FailedPrecondition("RemoveTenant: tenant " +
                                      std::to_string(tenant) +
                                      " was already removed");
  }
  if (user.has_pending()) {
    return Status::FailedPrecondition(
        "RemoveTenant: tenant " + std::to_string(tenant) + " has " +
        std::to_string(user.in_flight_count()) +
        " in-flight ticket(s); Report or Cancel them first");
  }
  user.Retire();
  // Retire in place: the tenant keeps its leaf, now neutral, and its
  // snapshot entry, now marked retired. No tenant moves.
  RefreshIndexEntry(tenant);
  NotifyTenantEvent(tenant);
  if (options_.wal != nullptr) {
    EASEML_RETURN_NOT_OK(WalApply(options_.wal->LogRemoveTenant(tenant)));
    EASEML_RETURN_NOT_OK(SyncWal());
  }
  return Status::OK();
}

bool MultiTenantSelector::Exhausted() const {
  MutexLock lock(*mu_);
  if (users_.empty()) return true;
  for (const auto& u : users_) {
    if (!u.Exhausted()) return false;
  }
  return true;
}

bool MultiTenantSelector::HasDispatchableWork() const {
  MutexLock lock(*mu_);
  if (static_cast<int>(in_flight_.size()) >= options_.num_devices) {
    return false;
  }
  // The index maintains the answer as an O(1) root read; the async
  // service consults this before every dispatch, so without it the "no
  // scan" serving path would regress to O(T) right here.
  if (index_ != nullptr) return index_->Root().cnt_schedulable > 0;
  for (const auto& u : users_) {
    if (u.Schedulable()) return true;
  }
  return false;
}

Result<int> MultiTenantSelector::PickTenant(int round) {
  if (index_ != nullptr) {
    // Index-backed pick: the init sweep and the any-work test are O(1)
    // root reads (the same answers the scans below compute), then the
    // policy answers from the tournament summaries.
    const scheduler::CandidateIndex::IndexNode& root = index_->Root();
    if (root.min_uninitialized != scheduler::CandidateIndex::kNone) {
      return root.min_uninitialized;
    }
    if (root.cnt_schedulable == 0) return NoDispatchableWorkStatus();
    return scheduler_->PickUserIndexed(users_, round, *index_);
  }
  // Initialization sweep (Algorithm 2 lines 1-4): any tenant without an
  // observation is served first, in registration order. A tenant whose
  // first run is still in flight is already charged — skip it, or the
  // sweep would hand its second model out before the first observation.
  for (const auto& u : users_) {
    if (u.NeedsInitialObservation()) {
      return u.user_id();
    }
  }
  bool any_schedulable = false;
  for (const auto& u : users_) {
    if (u.Schedulable()) {
      any_schedulable = true;
      break;
    }
  }
  if (!any_schedulable) return NoDispatchableWorkStatus();
  return scheduler_->PickUser(users_, round);
}

Result<MultiTenantSelector::Assignment> MultiTenantSelector::Next() {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(WalGuard());
  if (users_.empty()) {
    return Status::FailedPrecondition("Next: no tenants registered");
  }
  if (static_cast<int>(in_flight_.size()) >= options_.num_devices) {
    return Status::FailedPrecondition(
        "Next: all " + std::to_string(options_.num_devices) +
        " device slots are occupied; report a completion first");
  }
  // Timed only when observed: the unobserved serving path reads no clocks.
  SelectorObserver* obs = options_.observer;
  double t0 = 0.0;
  if (obs != nullptr) t0 = MonotonicSeconds();
  Result<int> picked = PickTenant(round_ + 1);
  double t1 = 0.0;
  if (obs != nullptr) t1 = MonotonicSeconds();
  if (!picked.ok()) {
    if (obs != nullptr) obs->OnNext(false, (t1 - t0) * 1e6, 0.0);
    return picked.status();
  }
  const int tenant = *picked;
  Result<int> selected = users_[tenant].SelectArm();
  RefreshIndexEntry(tenant);  // in-flight mask changed: key is stale
  NotifyTenantEvent(tenant);
  if (obs != nullptr) {
    const double t2 = MonotonicSeconds();
    obs->OnNext(selected.ok(), (t1 - t0) * 1e6, (t2 - t1) * 1e6);
  }
  if (!selected.ok()) return selected.status();
  const int model = *selected;
  Assignment assignment;
  assignment.tenant = tenant;
  assignment.model = model;
  assignment.id = next_ticket_++;
  in_flight_.emplace(assignment.id, assignment);
  if (options_.wal != nullptr) {
    // Appended, deliberately NOT synced: a ticket promises work, not
    // durability. A later synced Report makes this record durable with it
    // (log-prefix property); a crash first loses the ticket cleanly and
    // its Report answers NotFound after recovery.
    EASEML_RETURN_NOT_OK(WalApply(
        options_.wal->LogNext(assignment.tenant, assignment.model,
                              assignment.id)));
  }
  return assignment;
}

Result<std::map<int64_t, MultiTenantSelector::Assignment>::iterator>
MultiTenantSelector::FindIssuedEntry(const Assignment& assignment) {
  // Taxonomy order matters: a never-issued id is NotFound even when the
  // in-flight table is empty; only an issued-then-closed ticket is the
  // FailedPrecondition (stale/duplicate) case.
  if (assignment.id < 0 || assignment.id >= next_ticket_) {
    return Status::NotFound("Report: unknown assignment id " +
                            std::to_string(assignment.id));
  }
  auto it = in_flight_.find(assignment.id);
  if (it == in_flight_.end()) {
    return Status::FailedPrecondition(
        "Report: assignment " + std::to_string(assignment.id) +
        " was already reported (stale or duplicate completion)");
  }
  // Validate against the ISSUED entry, not the caller's struct by value: a
  // forged (tenant, model) under a live ticket must not touch belief state.
  const Assignment& issued = it->second;
  if (assignment.tenant != issued.tenant || assignment.model != issued.model) {
    return Status::InvalidArgument(
        "Report: assignment does not match the issued in-flight entry "
        "(ticket " + std::to_string(assignment.id) + " was issued for tenant " +
        std::to_string(issued.tenant) + ", model " +
        std::to_string(issued.model) + ")");
  }
  return it;
}

Result<MultiTenantSelector::Assignment> MultiTenantSelector::BeginReport(
    const Assignment& assignment, double accuracy) {
  EASEML_RETURN_NOT_OK(WalGuard());
  EASEML_ASSIGN_OR_RETURN(auto it, FindIssuedEntry(assignment));
  if (!std::isfinite(accuracy)) {
    return Status::InvalidArgument("Report: accuracy must be finite");
  }
  const Assignment issued = it->second;
  in_flight_.erase(it);
  if (options_.wal != nullptr) {
    // Appended in validation order; Report syncs before acknowledging.
    EASEML_RETURN_NOT_OK(WalApply(options_.wal->LogReport(
        issued.id, issued.tenant, issued.model, accuracy)));
  }
  return issued;
}

void MultiTenantSelector::FoldReportedOutcome(const Assignment& issued,
                                              double accuracy) {
  const double before = users_[issued.tenant].best_reward();
  const Status folded =
      users_[issued.tenant].RecordOutcome(issued.model, accuracy);
  RefreshIndexEntry(issued.tenant);  // belief, sigma~ and mask changed
  EASEML_CHECK(folded.ok()) << "Report: fold of validated ticket "
                            << issued.id
                            << " rejected: " << folded.ToString();
  if (accuracy > before || best_model_[issued.tenant] < 0) {
    best_model_[issued.tenant] = issued.model;
  }
  // After the best-model update, so the observation carries the incumbent
  // this fold produced (the index leaf is already refreshed).
  NotifyTenantEvent(issued.tenant);
}

void MultiTenantSelector::FinishReport(int tenant) {
  if (index_ != nullptr) {
    scheduler_->OnOutcomeIndexed(users_, tenant, *index_);
  } else {
    scheduler_->OnOutcome(users_, tenant);
  }
  ++round_;
}

Status MultiTenantSelector::Report(const Assignment& assignment,
                                   double accuracy) {
  // The observer's clocks start after the lock is taken, so time spent
  // waiting for it is in no hook.
  MutexLock lock(*mu_);
  SelectorObserver* obs = options_.observer;
  if (obs == nullptr) {
    EASEML_ASSIGN_OR_RETURN(const Assignment issued,
                            BeginReport(assignment, accuracy));
    FoldReportedOutcome(issued, accuracy);
    FinishReport(issued.tenant);
    return SyncWal();
  }
  // Observed path: identical calls, plus the coordinator/fold timing split.
  const double t0 = MonotonicSeconds();
  Result<Assignment> issued = BeginReport(assignment, accuracy);
  if (!issued.ok()) {
    obs->OnTicketRejected(static_cast<int>(issued.status().code()));
    return issued.status();
  }
  const int shard = ShardOf(issued->tenant);
  const double t1 = MonotonicSeconds();
  obs->OnFoldQueued(shard);  // the fold runs right here, on the caller
  FoldReportedOutcome(*issued, accuracy);
  const double t2 = MonotonicSeconds();
  FinishReport(issued->tenant);
  const Status synced = SyncWal();
  const double t3 = MonotonicSeconds();
  obs->OnFold(shard, (t2 - t1) * 1e6);
  if (synced.ok()) obs->OnReport(((t1 - t0) + (t3 - t2)) * 1e6);
  return synced;
}

Result<MultiTenantSelector::Assignment> MultiTenantSelector::BeginCancel(
    const Assignment& assignment) {
  EASEML_RETURN_NOT_OK(WalGuard());
  EASEML_ASSIGN_OR_RETURN(auto it, FindIssuedEntry(assignment));
  const Assignment issued = it->second;
  in_flight_.erase(it);
  if (options_.wal != nullptr) {
    EASEML_RETURN_NOT_OK(WalApply(options_.wal->LogCancel(
        issued.id, issued.tenant, issued.model)));
  }
  return issued;
}

void MultiTenantSelector::FoldCancel(const Assignment& issued) {
  const Status cancelled =
      users_[issued.tenant].CancelSelection(issued.model);
  RefreshIndexEntry(issued.tenant);  // the arm became selectable again
  EASEML_CHECK(cancelled.ok()) << "Cancel: fold of validated ticket "
                               << issued.id
                               << " rejected: " << cancelled.ToString();
  NotifyTenantEvent(issued.tenant);
}

Status MultiTenantSelector::Cancel(const Assignment& assignment) {
  MutexLock lock(*mu_);
  SelectorObserver* obs = options_.observer;
  Result<Assignment> issued = BeginCancel(assignment);
  if (!issued.ok()) {
    if (obs != nullptr) {
      obs->OnTicketRejected(static_cast<int>(issued.status().code()));
    }
    return issued.status();
  }
  if (obs == nullptr) {
    FoldCancel(*issued);
    return SyncWal();
  }
  // The un-charge is a fold, timed like a Report's.
  const int shard = ShardOf(issued->tenant);
  obs->OnFoldQueued(shard);
  const double t0 = MonotonicSeconds();
  FoldCancel(*issued);
  obs->OnFold(shard, (MonotonicSeconds() - t0) * 1e6);
  return SyncWal();
}

Result<MultiTenantSelector::Assignment> MultiTenantSelector::InFlightAssignment(
    int64_t ticket) const {
  MutexLock lock(*mu_);
  const auto it = in_flight_.find(ticket);
  if (it == in_flight_.end()) {
    return Status::NotFound("InFlightAssignment: ticket " +
                            std::to_string(ticket) + " is not outstanding");
  }
  return it->second;
}

Status MultiTenantSelector::ValidateTenant(int tenant) const {
  if (tenant < 0 || tenant >= static_cast<int>(users_.size())) {
    return Status::OutOfRange("tenant id out of range");
  }
  return Status::OK();
}

Result<int> MultiTenantSelector::BestModel(int tenant) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateTenant(tenant));
  if (best_model_[tenant] < 0) {
    return Status::NotFound("no model trained yet for tenant " +
                            std::to_string(tenant));
  }
  return best_model_[tenant];
}

Result<double> MultiTenantSelector::BestAccuracy(int tenant) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateTenant(tenant));
  return users_[tenant].best_reward();
}

Result<int> MultiTenantSelector::RoundsServed(int tenant) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateTenant(tenant));
  return users_[tenant].rounds_served();
}

namespace {

/// Rebuilds a tenant's shared-prior belief by replaying its observation
/// history (Cholesky::Append is deterministic, so the replayed factor is
/// bit-identical to the one at capture time) and verifies it bit-for-bit
/// against the stored factor — corruption that survived the framing CRC
/// cannot silently skew a posterior.
Result<std::unique_ptr<gp::SharedPriorGp>> RebuildBelief(
    const DurableBelief& d,
    const std::shared_ptr<const gp::SharedGpPrior>& prior) {
  EASEML_ASSIGN_OR_RETURN(std::unique_ptr<gp::SharedPriorGp> belief,
                          gp::SharedPriorGp::CreateUnique(prior));
  // Prime the marginal caches at t = 0 BEFORE replaying the history. A
  // live engine always queries at selection time before it observes, so
  // its caches only ever advance along the incremental forward-
  // substitution path; the batched from-scratch rebuild is a different
  // floating-point path (agrees to ~1e-9, not bitwise). Building the
  // empty summary now forces every later query onto the incremental path,
  // making the restored belief's future UCBs bit-identical to an engine
  // that never restored.
  (void)belief->AllMarginals();
  if (d.arms.size() != d.rewards.size()) {
    return Status::DataLoss(
        "restore: belief history arms/rewards length mismatch");
  }
  const int k = prior->num_arms();
  for (size_t i = 0; i < d.arms.size(); ++i) {
    if (d.arms[i] < 0 || d.arms[i] >= k) {
      return Status::DataLoss("restore: belief history arm out of range");
    }
    EASEML_RETURN_NOT_OK(belief->Observe(d.arms[i], d.rewards[i]));
  }
  const linalg::Cholesky& chol = belief->factor();
  const int t = chol.dim();
  if (d.chol.size() != static_cast<size_t>(t) * (t + 1) / 2) {
    return Status::DataLoss(
        "restore: stored Cholesky factor does not match the history length");
  }
  size_t idx = 0;
  for (int i = 0; i < t; ++i) {
    for (int j = 0; j <= i; ++j, ++idx) {
      const double replayed = chol.At(i, j);
      if (std::memcmp(&replayed, &d.chol[idx], sizeof(double)) != 0) {
        return Status::DataLoss(
            "restore: replayed Cholesky factor disagrees with the stored "
            "one at L(" + std::to_string(i) + ", " + std::to_string(j) +
            ") — the belief history is corrupt");
      }
    }
  }
  return belief;
}

}  // namespace

Result<DurableSelectorState> MultiTenantSelector::CaptureDurableState() const {
  MutexLock lock(*mu_);
  DurableSelectorState state;
  // Priors deduplicate by CONTENT (bit-exact num_arms/noise/mean/Gram), not
  // object identity: a recovered engine holds checkpoint-restored and
  // replay-registered copies of the same prior as distinct objects, and its
  // capture must still encode byte-identically to a never-crashed engine.
  // The pointer map is only a cache in front of the content key.
  const auto prior_content_key = [](const gp::SharedGpPrior& p) {
    std::string key;
    const int32_t arms = p.num_arms();
    key.append(reinterpret_cast<const char*>(&arms), sizeof(arms));
    key.append(reinterpret_cast<const char*>(&p.noise_variance),
               sizeof(double));
    key.append(reinterpret_cast<const char*>(p.mean.data()),
               p.mean.size() * sizeof(double));
    const std::vector<double>& gram = p.gram.data();
    key.append(reinterpret_cast<const char*>(gram.data()),
               gram.size() * sizeof(double));
    return key;
  };
  std::map<const gp::SharedGpPrior*, int> prior_ids;
  std::map<std::string, int> prior_ids_by_content;
  state.tenants.reserve(users_.size());
  for (const scheduler::UserState& u : users_) {
    DurableTenant t;
    t.user = u.CaptureDurable();
    if (!u.retired()) {
      const auto* ucb = dynamic_cast<const bandit::GpUcbPolicy*>(&u.policy());
      const auto* belief =
          ucb == nullptr
              ? nullptr
              : dynamic_cast<const gp::SharedPriorGp*>(&ucb->belief());
      if (belief == nullptr) {
        return Status::Unimplemented(
            "CaptureDurableState: tenant " + std::to_string(u.user_id()) +
            " does not run the shared-prior GP-UCB belief; only that "
            "representation is serializable");
      }
      const std::shared_ptr<const gp::SharedGpPrior>& prior = belief->prior();
      const auto ptr_it = prior_ids.find(prior.get());
      int prior_id;
      if (ptr_it != prior_ids.end()) {
        prior_id = ptr_it->second;
      } else {
        const auto [it, inserted] = prior_ids_by_content.emplace(
            prior_content_key(*prior), static_cast<int>(state.priors.size()));
        if (inserted) {
          DurablePrior p;
          p.num_arms = prior->num_arms();
          p.noise_variance = prior->noise_variance;
          p.mean = prior->mean;
          p.gram = prior->gram.data();
          state.priors.push_back(std::move(p));
        }
        prior_id = it->second;
        prior_ids.emplace(prior.get(), prior_id);
      }
      t.belief.prior_id = prior_id;
      t.belief.arms = belief->observed_arms();
      t.belief.rewards = belief->observed_rewards();
      const linalg::Cholesky& chol = belief->factor();
      const int dim = chol.dim();
      t.belief.chol.reserve(static_cast<size_t>(dim) * (dim + 1) / 2);
      for (int i = 0; i < dim; ++i) {
        for (int j = 0; j <= i; ++j) t.belief.chol.push_back(chol.At(i, j));
      }
    }
    state.tenants.push_back(std::move(t));
  }
  state.best_model = best_model_;
  state.in_flight.reserve(in_flight_.size());
  for (const auto& [id, a] : in_flight_) {  // std::map: ascending ids
    DurableSelectorState::Ticket ticket;
    ticket.id = id;
    ticket.tenant = a.tenant;
    ticket.model = a.model;
    state.in_flight.push_back(ticket);
  }
  state.next_ticket = next_ticket_;
  state.round = round_;
  scheduler_->SaveDurable(&state.scheduler_state);
  if (options_.wal != nullptr) {
    const DurabilityLog::Position pos = options_.wal->position();
    state.wal_epoch = pos.epoch;
    state.wal_offset = pos.offset;
  }
  return state;
}

Status MultiTenantSelector::RestoreDurableState(
    const DurableSelectorState& state) {
  MutexLock lock(*mu_);
  if (!users_.empty() || !in_flight_.empty() || next_ticket_ != 0 ||
      round_ != 0) {
    return Status::FailedPrecondition(
        "RestoreDurableState: the engine already has state; restore into a "
        "freshly created selector");
  }
  if (state.best_model.size() != state.tenants.size()) {
    return Status::DataLoss("restore: best_model/tenants length mismatch");
  }
  if (state.next_ticket < 0 || state.round < 0) {
    return Status::DataLoss("restore: negative ticket/round counter");
  }
  // Rebuild the shared priors — each Gram matrix allocated once and shared,
  // as at registration time.
  std::vector<std::shared_ptr<const gp::SharedGpPrior>> priors;
  priors.reserve(state.priors.size());
  for (const DurablePrior& p : state.priors) {
    EASEML_ASSIGN_OR_RETURN(
        linalg::Matrix gram,
        linalg::Matrix::FromRowMajor(p.num_arms, p.num_arms, p.gram));
    EASEML_ASSIGN_OR_RETURN(
        std::shared_ptr<const gp::SharedGpPrior> prior,
        gp::MakeSharedGpPrior(std::move(gram), p.noise_variance, p.mean));
    priors.push_back(std::move(prior));
  }
  users_.reserve(state.tenants.size());
  best_model_.reserve(state.tenants.size());
  for (size_t i = 0; i < state.tenants.size(); ++i) {
    const DurableTenant& t = state.tenants[i];
    if (t.user.user_id != static_cast<int>(i)) {
      return Status::DataLoss("restore: tenant ids must be dense, in order");
    }
    const int k = static_cast<int>(t.user.costs.size());
    if (state.best_model[i] < -1 || state.best_model[i] >= k) {
      return Status::DataLoss("restore: best model out of range");
    }
    std::unique_ptr<bandit::BanditPolicy> policy;
    if (!t.user.retired) {
      if (t.belief.prior_id < 0 ||
          t.belief.prior_id >= static_cast<int>(priors.size())) {
        return Status::DataLoss("restore: tenant prior id out of range");
      }
      EASEML_ASSIGN_OR_RETURN(
          std::unique_ptr<gp::SharedPriorGp> belief,
          RebuildBelief(t.belief, priors[t.belief.prior_id]));
      // Identical policy construction to AddTenantWithBelief, so the
      // restored tenant's UCB index is bit-identical to the captured one.
      bandit::GpUcbOptions ucb;
      ucb.delta = options_.delta;
      ucb.cost_aware = options_.cost_aware;
      if (options_.cost_aware) ucb.costs = t.user.costs;
      EASEML_ASSIGN_OR_RETURN(
          std::unique_ptr<bandit::GpUcbPolicy> gp_ucb,
          bandit::GpUcbPolicy::CreateUnique(std::move(belief),
                                            std::move(ucb)));
      policy = std::move(gp_ucb);
    } else if (t.belief.prior_id != -1 || !t.belief.arms.empty() ||
               !t.belief.rewards.empty() || !t.belief.chol.empty()) {
      return Status::DataLoss("restore: retired tenant carries belief state");
    }
    EASEML_ASSIGN_OR_RETURN(
        scheduler::UserState user,
        scheduler::UserState::FromDurable(t.user, std::move(policy)));
    users_.push_back(std::move(user));
    best_model_.push_back(state.best_model[i]);
    // A retired tenant is placed like any other, as RemoveTenant leaves
    // it: its leaf and observation derive from the retired state.
    PlaceTenant(static_cast<int>(i));
  }
  int64_t prev_id = -1;
  for (const DurableSelectorState::Ticket& t : state.in_flight) {
    if (t.id <= prev_id || t.id >= state.next_ticket) {
      return Status::DataLoss(
          "restore: in-flight tickets must be strictly ascending and below "
          "next_ticket");
    }
    prev_id = t.id;
    if (t.tenant < 0 || t.tenant >= static_cast<int>(users_.size()) ||
        t.model < 0 || t.model >= users_[t.tenant].num_models()) {
      return Status::DataLoss(
          "restore: in-flight ticket references an unknown tenant or model");
    }
    if (!users_[t.tenant].InFlight(t.model)) {
      return Status::DataLoss(
          "restore: in-flight ticket for an arm the tenant has not charged");
    }
    Assignment a;
    a.tenant = t.tenant;
    a.model = t.model;
    a.id = t.id;
    in_flight_.emplace(a.id, a);
  }
  // Tickets and per-arm charges must agree 1:1 — a duplicate ticket for
  // the same arm passes the mask check above but fails the count here.
  std::vector<int> charged(users_.size(), 0);
  for (const auto& [id, a] : in_flight_) ++charged[a.tenant];
  for (size_t i = 0; i < users_.size(); ++i) {
    if (charged[i] != users_[i].in_flight_count()) {
      return Status::DataLoss(
          "restore: in-flight table disagrees with tenant charge counts");
    }
  }
  next_ticket_ = state.next_ticket;
  round_ = state.round;
  std::string_view sched = state.scheduler_state;
  EASEML_RETURN_NOT_OK(scheduler_->LoadDurable(&sched));
  if (!sched.empty()) {
    return Status::DataLoss(
        "restore: trailing bytes after the scheduler state blob");
  }
  return Status::OK();
}

}  // namespace easeml::core
