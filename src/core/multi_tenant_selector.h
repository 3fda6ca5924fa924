#ifndef EASEML_CORE_MULTI_TENANT_SELECTOR_H_
#define EASEML_CORE_MULTI_TENANT_SELECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/durability_log.h"
#include "core/durable_state.h"
#include "core/selector_observer.h"
#include "gp/shared_prior_gp.h"
#include "scheduler/candidate_index.h"
#include "scheduler/scheduler_policy.h"

namespace easeml::core {

/// User-picking strategy of the selector.
enum class SchedulerKind {
  kHybrid,      // ease.ml default (Section 4.4)
  kGreedy,      // Algorithm 2
  kRoundRobin,  // Section 4.2
  kRandom,
  kFcfs,
};

std::string SchedulerKindName(SchedulerKind kind);

/// Options of the multi-tenant selector.
struct SelectorOptions {
  SchedulerKind scheduler = SchedulerKind::kHybrid;

  /// GP-UCB confidence parameter (Algorithm 1 line 3).
  double delta = 0.1;

  /// Use the cost-aware index sqrt(beta_t / c_k) (Section 3.2).
  bool cost_aware = true;

  /// HYBRID freeze patience s (Section 4.4; the paper uses 10).
  int hybrid_patience = 10;

  /// Seed for the RANDOM scheduler.
  uint64_t seed = 0;

  /// Number of training devices, i.e. the maximum number of assignments
  /// that may be outstanding at once. 1 (the default) is the paper's
  /// resource model ("use all its GPUs to train a single model") and
  /// reproduces the sequential Next/Report protocol bit-identically.
  int num_devices = 1;

  /// Number of selector shards (>= 1; the default 1 is one shard). Tenant
  /// `t` lives on shard `t % num_shards`. A shard is only a slot of the
  /// observer's snapshot plane: it names the slot the observer hooks
  /// report (`OnTenantPlaced`, `OnFoldQueued`, `OnFold`) and the counts
  /// `ShardSizes()` returns. It starts no thread and does not partition
  /// the candidate index, so the selection trace is the same for every
  /// shard count. `MultiTenantSelector::Create` and `shard::MakeSelector`
  /// both honor it.
  int num_shards = 1;

  /// Serve `Next()` from the incremental candidate index (the default):
  /// one monotone tournament tree over every tenant's policy summary
  /// (scheduler/candidate_index.h), a tenant event replays one O(log T)
  /// leaf path, and a pick reads the root or runs one pruned descent.
  /// `false` selects the reference pick instead — the scheduler policy's
  /// O(T) `PickUser` scan, which needs no per-tenant key maintenance on
  /// the report path. Both pick bit-identically (the index/scan
  /// conformance and fuzz suites pin every policy, shard count and churn
  /// pattern).
  bool use_candidate_index = true;

  /// Observation seam (core/selector_observer.h), or nullptr for none. Not
  /// owned; must outlive the selector. When set, the engine publishes a
  /// fresh `TenantObservation` at every fold boundary and feeds the timing
  /// hooks — the obs layer's snapshot plane and metrics registry hang off
  /// this pointer. When null (the default) every hook site is a single
  /// branch and the serving path is byte-for-byte the unobserved one.
  SelectorObserver* observer = nullptr;

  /// Durability seam (core/durability_log.h), or nullptr for none. Not
  /// owned; must outlive the selector. When set, every successful mutation
  /// appends one record under the engine lock (log order = validation
  /// order) and the acknowledged mutations (AddTenant, RemoveTenant,
  /// Report, Cancel) sync before returning; `Next` appends without syncing
  /// (see DurabilityLog's ack-discipline comment). A WAL write failure
  /// fail-stops the selector: the error is latched and every further
  /// mutation is refused, because in-memory state may be ahead of the log.
  /// When null (the default) every hook is one branch — same zero-cost
  /// discipline as `observer`.
  DurabilityLog* wal = nullptr;
};

/// Builds the scheduler policy `options` selects (nullptr for an unknown
/// kind).
std::unique_ptr<scheduler::SchedulerPolicy> MakeSchedulerPolicy(
    const SelectorOptions& options);

/// Raw entry count of the process-wide default-prior cache (live priors
/// plus dead weak_ptrs not yet swept). Test-only observability for the
/// cache's bounded-growth guarantee: every AddTenantWithDefaultPrior
/// lookup/insert sweeps expired entries first, so tenant churn cannot grow
/// the map beyond the live (K, noise) shapes. Does not prune itself.
int DefaultPriorCacheSizeForTesting();

/// The core public API of this library: ease.ml's multi-tenant, cost-aware
/// model-selection engine (Section 4) behind a pull interface.
///
/// The caller owns the actual training substrate. Sequential usage:
///
///   auto selector = MultiTenantSelector::Create(options).value();
///   auto prior = gp::MakeSharedGpPrior(gram, noise).value();  // once
///   int alice = selector.AddTenant(prior, costs_a).value();
///   int bob   = selector.AddTenant(prior, costs_b).value();
///   while (!selector.Exhausted()) {
///     auto a = selector.Next().value();        // which (tenant, model) to train
///     double acc = TrainAndEvaluate(a.tenant, a.model);
///     selector.Report(a, acc);                 // feed the result back
///   }
///
/// All tenants registered with the same `SharedGpPrior` share one immutable
/// Gram matrix; each keeps only its O(K + tK) observation state, so tenant
/// count scales independently of K^2.
///
/// ## The in-flight model (multi-device operation)
///
/// With `options.num_devices = D`, up to D assignments may be outstanding
/// at once. Every assignment `Next()` hands out carries a unique ticket
/// `id` and is recorded in an in-flight table keyed by that id; the tenant's
/// per-arm in-flight mask marks the model as *charged but unobserved*, so
/// no scheduler can hand the same (tenant, model) to a second device and
/// the UCB diagnostics (GREEDY's candidate set, line-8 gaps) skip it.
/// `Report()` reconciles completions arriving in ANY order by validating
/// the reported assignment against the issued in-flight entry:
///
///   - unknown ticket id (never issued)            -> NotFound
///   - stale/duplicate id (issued, already closed) -> FailedPrecondition
///   - forged tenant/model under a live id         -> InvalidArgument
///   - non-finite accuracy                         -> InvalidArgument
///
/// and only then folds the observation into the tenant's belief, so no
/// malformed report can corrupt belief state. `Next()` fails with
/// FailedPrecondition while all D device slots are occupied, and with a
/// distinct FailedPrecondition when every remaining model is in flight
/// (drain completions first). Tenants added after the loop started are
/// picked up by the initialization sweep on their first rounds.
///
/// ## Threading and placement
///
/// Every public method is thread-safe: it takes the engine lock `mu_` and
/// runs on the calling thread (picks, arm selections, report and cancel
/// folds, churn, checkpoints). The engine starts no thread. Sole exception:
/// `scheduler_policy()` hands out a raw reference into policy state and is
/// for quiescent diagnostics only.
///
/// Tenant `t` holds leaf slot `t` of the candidate index and lives on
/// shard `t % num_shards()` for its whole life; a shard is only a slot of
/// the observer's snapshot plane. A removed tenant retires in place: it
/// keeps its neutral index leaf and its snapshot entry, and no other
/// tenant moves. The shard count never changes a pick: the selection
/// trace is bit-identical for every shard count and any thread
/// interleaving.
class MultiTenantSelector {
 public:
  /// A unit of work: train model `model` for tenant `tenant`. `id` is the
  /// in-flight ticket assigned by `Next()`, unique across the selector's
  /// lifetime; `Report` validates against it.
  struct Assignment {
    int tenant = -1;
    int model = -1;
    int64_t id = -1;
  };

  /// Validates `options` and builds an engine with a candidate index (when
  /// `use_candidate_index` is on) and `num_shards` observer slots.
  static Result<MultiTenantSelector> Create(const SelectorOptions& options);

  // Virtual only so the stateless subclass in shard/sharded_selector.h can
  // be deleted through this type.
  virtual ~MultiTenantSelector() = default;
  // Moves keep the by-value usage working (`Create(...).value()`, selectors
  // held as members): the lock lives on the heap, so it moves with the
  // state it guards. Move only an engine no other thread is using.
  MultiTenantSelector(MultiTenantSelector&&) = default;
  MultiTenantSelector& operator=(MultiTenantSelector&&) = default;
  MultiTenantSelector(const MultiTenantSelector&) = delete;
  MultiTenantSelector& operator=(const MultiTenantSelector&) = delete;

  /// Registers a tenant against a shared GP prior (the preferred path: the
  /// Gram matrix is allocated once and shared by every tenant created from
  /// it) with per-model costs (one positive cost per arm). Returns the
  /// tenant id.
  Result<int> AddTenant(std::shared_ptr<const gp::SharedGpPrior> prior,
                        std::vector<double> costs) EASEML_EXCLUDES(mu_);

  /// Registers a tenant with an uninformative independent prior
  /// (unit-variance diagonal) — used when no training logs exist yet. The
  /// default prior is built once per (num_models, noise_variance) in a
  /// process-wide, mutex-guarded cache (engines on other threads reach it)
  /// and shared by every tenant and selector requesting that shape.
  Result<int> AddTenantWithDefaultPrior(int num_models,
                                        std::vector<double> costs,
                                        double noise_variance = 1e-2)
      EASEML_EXCLUDES(mu_);

  /// Retires a tenant: it is never scheduled again and its belief memory
  /// is released. It stays in place, with a neutral index leaf and a
  /// snapshot entry marked retired; no other tenant moves.
  /// Refused with FailedPrecondition while the tenant has in-flight
  /// tickets — `Report` or `Cancel` them first — or when it was already
  /// removed; OutOfRange for ids never issued. Historical read-side queries
  /// (BestModel, BestAccuracy, RoundsServed) stay answerable after removal.
  /// Tenant ids are never reused.
  Status RemoveTenant(int tenant) EASEML_EXCLUDES(mu_);

  /// Registered tenants, INCLUDING removed ones (ids are stable).
  int num_tenants() const EASEML_EXCLUDES(mu_);

  /// True when every tenant has trained every candidate model (in-flight
  /// assignments keep the selector non-exhausted until reported; removed
  /// tenants count as done).
  bool Exhausted() const EASEML_EXCLUDES(mu_);

  /// Number of outstanding (issued, not yet reported) assignments.
  int num_in_flight() const EASEML_EXCLUDES(mu_);

  /// Configured device count (max outstanding assignments).
  int num_devices() const { return options_.num_devices; }

  /// Configured shard count (`options.num_shards`).
  int num_shards() const { return options_.num_shards; }

  /// Live (non-retired) tenants per shard, ascending shard index
  /// (diagnostics; O(T)). Adds spread ids round-robin; a removal shrinks
  /// only its own shard, so churn lets the counts drift apart.
  std::vector<int> ShardSizes() const EASEML_EXCLUDES(mu_);

  /// CPU seconds each shard spent on folds off the calling thread: one
  /// 0.0 per shard, because every report and cancel folds on the calling
  /// thread. Kept for callers that difference it.
  std::vector<double> ShardCpuSeconds() const {
    return std::vector<double>(static_cast<size_t>(num_shards()), 0.0);
  }

  /// True iff `Next()` would hand out an assignment right now: a device
  /// slot is free and some tenant has an un-charged model remaining. False
  /// while everything remaining is in flight — drain completions and retry.
  bool HasDispatchableWork() const EASEML_EXCLUDES(mu_);

  /// Picks the next (tenant, model) to train and marks it in flight. Fails
  /// with FailedPrecondition when all `num_devices` slots are occupied,
  /// when every remaining model is in flight, or when all tenants are
  /// exhausted.
  Result<Assignment> Next() EASEML_EXCLUDES(mu_);

  /// Reports the measured accuracy of a completed assignment; completions
  /// may arrive in any order. See the class comment for the Status-code
  /// taxonomy of rejected reports.
  Status Report(const Assignment& assignment, double accuracy)
      EASEML_EXCLUDES(mu_);

  /// Returns a live ticket without an observation (device failure, job
  /// abort): the (tenant, model) becomes dispatchable again as if never
  /// handed out. Validates exactly like `Report`.
  Status Cancel(const Assignment& assignment) EASEML_EXCLUDES(mu_);

  /// The issued in-flight assignment for a live ticket; NotFound when the
  /// ticket is not outstanding. This is the authoritative in-flight record
  /// — executors correlate completions through it instead of keeping their
  /// own table.
  Result<Assignment> InFlightAssignment(int64_t ticket) const
      EASEML_EXCLUDES(mu_);

  /// Best model trained so far for `tenant` (what `infer` serves);
  /// NotFound before the first completed run.
  Result<int> BestModel(int tenant) const EASEML_EXCLUDES(mu_);

  /// Best observed accuracy for `tenant`; 0 before the first run.
  Result<double> BestAccuracy(int tenant) const EASEML_EXCLUDES(mu_);

  /// Rounds served so far for `tenant`.
  Result<int> RoundsServed(int tenant) const EASEML_EXCLUDES(mu_);

  /// Read access to the scheduler policy (diagnostics: hybrid switch
  /// state, greedy rule). The one accessor the lock does not cover: the
  /// returned reference outlives any lock, so only inspect it while no
  /// other thread is driving the selector.
  // Unlocked by design (see above): the analysis cannot follow the
  // reference out of the call.
  const scheduler::SchedulerPolicy& scheduler_policy() const
      EASEML_NO_THREAD_SAFETY_ANALYSIS {
    return *scheduler_;
  }

  /// Invariant check for the candidate index (tests / debug tooling, never
  /// the serving path): checks that every tenant ever added, retired ones
  /// included, holds the leaf slot of its id, then re-derives every tenant
  /// key and replays every aggregate from scratch, failing with Internal
  /// on the first misplaced tenant, stale leaf, drifted exact sum, or
  /// out-of-date tournament node. OK when the index is disabled.
  Status ValidateIndex() const EASEML_EXCLUDES(mu_);

  /// Serializes the COMPLETE engine state (priors deduplicated by
  /// identity, per-tenant user + compact belief state, in-flight table,
  /// ticket/round counters, scheduler blob, WAL position) for a
  /// checkpoint. Every tenant runs the shared-prior belief (the only
  /// registration path), the one representation that serializes.
  Result<DurableSelectorState> CaptureDurableState() const
      EASEML_EXCLUDES(mu_);

  /// Restores a captured state into THIS engine, which must be freshly
  /// created with equivalent options (same scheduler kind, delta,
  /// cost-awareness, device count — configuration is not stored).
  /// Beliefs are rebuilt by replaying the observation history
  /// (bit-identical by determinism) and verified bit-for-bit against the
  /// stored Cholesky factor; DataLoss on any mismatch. FailedPrecondition
  /// when the engine already has state.
  Status RestoreDurableState(const DurableSelectorState& state)
      EASEML_EXCLUDES(mu_);

 private:
  /// Builds the index (the analysis does not check constructors, so the
  /// guarded pointer is set here rather than after construction).
  MultiTenantSelector(const SelectorOptions& options,
                      std::unique_ptr<scheduler::SchedulerPolicy> s);

  /// The one placement rule: tenant `t` lives on shard `t % num_shards()`
  /// for its whole life. It names the observer's slot only: the shard the
  /// observer learns from `OnTenantPlaced`, the shard its folds are
  /// reported on, and the shard `ShardSizes()` counts it in.
  int ShardOf(int tenant) const { return tenant % num_shards(); }

  /// `AddTenant` under the lock (`AddTenantWithDefaultPrior` resolves its
  /// prior first, then comes here).
  Result<int> AddTenantLocked(std::shared_ptr<const gp::SharedGpPrior> prior,
                              std::vector<double> costs) EASEML_REQUIRES(mu_);

  /// Appends the new tenant (the next id) at the tail of the index tree
  /// in O(log T) amortized, then announces it to the observer
  /// (`OnTenantPlaced` with `ShardOf(tenant)`, then its first tenant
  /// event).
  void PlaceTenant(int tenant) EASEML_REQUIRES(mu_);

  /// Picks the tenant to serve at global round `round`: the initialization
  /// sweep (Algorithm 2 lines 1-4, registration order) first, then the
  /// scheduler policy — from the candidate index when it is on, else the
  /// reference `PickUser` scan.
  Result<int> PickTenant(int round) EASEML_REQUIRES(mu_);

  /// Recomputes `tenant`'s key and replays its leaf path (no-op when the
  /// index is disabled). Every path that mutates a tenant calls it, so the
  /// index is fresh whenever PickTenant runs.
  void RefreshIndexEntry(int tenant) EASEML_REQUIRES(mu_);

  /// The one source of the two no-work refusals (all exhausted vs
  /// everything in flight): the conformance suite compares Status TEXT
  /// between engines, so every pick path must emit identical strings.
  Status NoDispatchableWorkStatus() const EASEML_REQUIRES(mu_);

  // --- Observation seam ---------------------------------------------------
  //
  // `NotifyTenantEvent` fires at exactly the seams that refresh the
  // candidate-index leaf (selection, fold, cancel, retire): wherever the
  // index would go stale, so would a dashboard. All of it is skipped in a
  // single branch when no observer is configured.

  /// Publishes `tenant`'s fresh observation to the observer (no-op when
  /// none). Call AFTER `RefreshIndexEntry` — the gap is read back from the
  /// just-refreshed index key when the index tracks it.
  void NotifyTenantEvent(int tenant) EASEML_REQUIRES(mu_);

  /// Derives the observation `NotifyTenantEvent` publishes.
  TenantObservation DeriveObservation(int tenant) const EASEML_REQUIRES(mu_);

  // --- Durability seam ----------------------------------------------------
  //
  // Mirrors the observer seam: one branch when no WAL is configured. The
  // engine appends AFTER applying (log order = validation order, and only
  // successful mutations are logged, so replay must succeed), and latches
  // the first WAL error — the selector fail-stops rather than let its
  // in-memory state silently outrun what recovery can reproduce.

  /// Fail-fast check every mutation runs first: OK without a WAL or while
  /// it is healthy, FailedPrecondition once a WAL write failed.
  Status WalGuard() const EASEML_REQUIRES(mu_);

  /// Latches the first WAL error (and returns `status` unchanged).
  Status WalApply(Status status) EASEML_REQUIRES(mu_);

  /// Syncs the WAL (no-op without one), latching failure.
  Status SyncWal() EASEML_REQUIRES(mu_);

  Status ValidateTenant(int tenant) const EASEML_REQUIRES(mu_);
  Result<int> AddTenantWithBelief(std::unique_ptr<gp::ArmBelief> belief,
                                  std::vector<double> costs)
      EASEML_REQUIRES(mu_);

  /// Shared Report/Cancel validation: resolves `assignment` to its live
  /// in-flight entry or the precise rejection Status (see class comment).
  Result<std::map<int64_t, Assignment>::iterator> FindIssuedEntry(
      const Assignment& assignment) EASEML_REQUIRES(mu_);

  // --- Report/Cancel phases ---------------------------------------------
  //
  // `Report` runs BeginReport, FoldReportedOutcome and FinishReport back to
  // back, and `Cancel` runs BeginCancel and FoldCancel; the split exists so
  // the observed paths can time the fold on its own.

  /// Resolves `assignment` against the in-flight table (class-comment
  /// taxonomy), validates `accuracy`, retires the ticket and appends the
  /// WAL record. Returns the ISSUED assignment the fold must apply.
  Result<Assignment> BeginReport(const Assignment& assignment,
                                 double accuracy) EASEML_REQUIRES(mu_);

  /// Appends the observation to the tenant's belief and tracks the
  /// incumbent best model. `issued` must come from `BeginReport` — the
  /// fold of a validated ticket cannot fail (the arm is charged in flight
  /// and the tenant cannot be removed under an open ticket), so a rejection
  /// here aborts.
  void FoldReportedOutcome(const Assignment& issued, double accuracy)
      EASEML_REQUIRES(mu_);

  /// The scheduler's outcome hook (`OnOutcomeIndexed` when the index is
  /// on, else `OnOutcome`) + round advance, on the fully folded engine.
  void FinishReport(int tenant) EASEML_REQUIRES(mu_);

  /// Same validation and retirement as `BeginReport`, without an accuracy.
  Result<Assignment> BeginCancel(const Assignment& assignment)
      EASEML_REQUIRES(mu_);

  /// Un-charges the arm (it becomes dispatchable again). Aborts on
  /// rejection — impossible for a validated ticket.
  void FoldCancel(const Assignment& issued) EASEML_REQUIRES(mu_);

  /// Heap-allocated so the engine stays movable (`Create` returns it by
  /// value); `mu_` is the stable capability the annotations name, and
  /// default moves keep the pair consistent. Serializes every public call.
  std::unique_ptr<Mutex> mu_storage_{std::make_unique<Mutex>()};
  Mutex* mu_{mu_storage_.get()};

  /// Fixed at construction; read without the lock.
  SelectorOptions options_;
  std::unique_ptr<scheduler::SchedulerPolicy> scheduler_
      EASEML_PT_GUARDED_BY(mu_);
  /// Incremental candidate index (nullptr when disabled): one tournament
  /// tree + the exact running threshold, answering PickTenant in O(log T)
  /// instead of an O(T) scan.
  std::unique_ptr<scheduler::CandidateIndex> index_ EASEML_PT_GUARDED_BY(mu_);
  std::vector<scheduler::UserState> users_ EASEML_GUARDED_BY(mu_);
  std::vector<int> best_model_ EASEML_GUARDED_BY(mu_);  // -1 until 1st report
  /// Outstanding assignments keyed by ticket id.
  std::map<int64_t, Assignment> in_flight_ EASEML_GUARDED_BY(mu_);
  int64_t next_ticket_ EASEML_GUARDED_BY(mu_) = 0;
  int round_ EASEML_GUARDED_BY(mu_) = 0;
  /// First WAL append/sync error, latched forever (fail-stop). Every WAL
  /// call, Sync included, runs under `mu_`.
  Status wal_status_ EASEML_GUARDED_BY(mu_);
};

}  // namespace easeml::core

#endif  // EASEML_CORE_MULTI_TENANT_SELECTOR_H_
