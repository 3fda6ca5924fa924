#ifndef EASEML_CORE_MULTI_TENANT_SELECTOR_H_
#define EASEML_CORE_MULTI_TENANT_SELECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
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

  /// Number of selector shards. 1 (the default) folds every report inline;
  /// values > 1 select `shard::ShardedMultiTenantSelector` when the
  /// selector is built through `shard::MakeSelector` — tenant `t` lives on
  /// shard `t % num_shards`, one worker thread per shard, and each `Cancel`,
  /// and each `Report` under a policy that does not observe outcomes
  /// (everything but HYBRID), queues its belief fold on the owning shard's
  /// worker, so folds for tenants on different shards run concurrently.
  /// HYBRID reports fold on the calling thread. Picks and arm selections
  /// stay on the calling thread too; the selection trace is bit-identical
  /// to the 1-shard engine. Plain `MultiTenantSelector::Create` ignores
  /// the field (it IS the 1-shard engine).
  int num_shards = 1;

  /// Serve `Next()` from the incremental candidate index (the default):
  /// each engine shard keeps a monotone tournament tree over its tenants'
  /// policy summaries (scheduler/candidate_index.h), a tenant event
  /// replays one O(log T) leaf path, and a pick reads the shard roots.
  /// `false` selects the reference pick instead — the scheduler policy's
  /// O(T) `PickUser` scan, which needs no per-tenant key maintenance on
  /// the report path. Both pick bit-identically (the index/scan
  /// conformance and fuzz suites pin every policy, shard count and churn
  /// pattern).
  bool use_candidate_index = true;

  /// Observation seam (core/selector_observer.h), or nullptr for none. Not
  /// owned; must outlive the selector. When set, the engines publish a
  /// fresh `TenantObservation` at every fold boundary and feed the timing
  /// hooks — the obs layer's snapshot plane and metrics registry hang off
  /// this pointer. When null (the default) every hook site is a single
  /// branch and the serving path is byte-for-byte the unobserved one.
  SelectorObserver* observer = nullptr;

  /// Durability seam (core/durability_log.h), or nullptr for none. Not
  /// owned; must outlive the selector. When set, every successful mutation
  /// appends one record under the engine's synchronization (log order =
  /// validation order) and the acknowledged mutations (AddTenant,
  /// RemoveTenant, Report, Cancel) sync before returning; `Next` appends
  /// without syncing (see DurabilityLog's ack-discipline comment). A WAL
  /// write failure fail-stops the selector: the error is latched and every
  /// further mutation is refused, because in-memory state may be ahead of
  /// the log. When null (the default) every hook is one branch — same
  /// zero-cost discipline as `observer`.
  DurabilityLog* wal = nullptr;
};

/// Builds the scheduler policy `options` selects (nullptr for an unknown
/// kind). Shared by the sequential selector and the sharded engine so both
/// run byte-identical policy state.
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
/// ## Engine seams
///
/// The class doubles as the base of the sharded engine
/// (`shard::ShardedMultiTenantSelector`), which wraps every public method
/// in its selector lock and runs `Report`/`Cancel` through the protected
/// `Begin*`/`Fold*`/`FinishReport` phases below, shipping the fold to a
/// shard worker unless the policy observes outcomes. The pick and the arm
/// selection always run here, on the calling (in the sharded engine:
/// quiesced coordinator) thread. The only virtual hooks are
/// `OnTenantAdded`/`OnTenantRemoved`: the add hook places a new tenant on
/// its shard, and both keep the sharded engine's per-shard live counts.
/// Both engines retire a removed tenant in place. `Create` ignores
/// `num_shards`; build through `shard::MakeSelector` to honor it. The base
/// engine is single-threaded (external synchronization required); the
/// sharded override of every public method is thread-safe.
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

  static Result<MultiTenantSelector> Create(const SelectorOptions& options);

  virtual ~MultiTenantSelector() = default;
  // Public moves keep the historical by-value usage working
  // (`Create(...).value()`, selectors held as members). CAUTION: the class
  // is also a polymorphic base — moving through a base reference/pointer
  // that actually designates a ShardedMultiTenantSelector would slice off
  // the shard engine. Engines built via `shard::MakeSelector` live behind
  // `unique_ptr` precisely so they are never moved as base values.
  MultiTenantSelector(MultiTenantSelector&&) = default;
  MultiTenantSelector& operator=(MultiTenantSelector&&) = default;
  MultiTenantSelector(const MultiTenantSelector&) = delete;
  MultiTenantSelector& operator=(const MultiTenantSelector&) = delete;

  /// Registers a tenant against a shared GP prior (the preferred path: the
  /// Gram matrix is allocated once and shared by every tenant created from
  /// it) with per-model costs (one positive cost per arm). Returns the
  /// tenant id.
  virtual Result<int> AddTenant(std::shared_ptr<const gp::SharedGpPrior> prior,
                                std::vector<double> costs);

  /// Registers a tenant with an uninformative independent prior
  /// (unit-variance diagonal) — used when no training logs exist yet. The
  /// default prior is built once per (num_models, noise_variance) in a
  /// process-wide, mutex-guarded cache (concurrent shard setup reaches it)
  /// and shared by every tenant and selector requesting that shape.
  virtual Result<int> AddTenantWithDefaultPrior(int num_models,
                                               std::vector<double> costs,
                                               double noise_variance = 1e-2);

  /// Retires a tenant: it is never scheduled again and its belief memory
  /// is released. It stays in place on its shard, with a neutral index
  /// leaf and a snapshot entry marked retired; no other tenant moves, on
  /// either engine. Refused with FailedPrecondition while the tenant has
  /// in-flight tickets — `Report` or `Cancel` them first — or when it was
  /// already removed; OutOfRange for ids never issued. Historical
  /// read-side queries (BestModel, BestAccuracy, RoundsServed) stay
  /// answerable after removal. Tenant ids are never reused.
  virtual Status RemoveTenant(int tenant);

  /// Registered tenants, INCLUDING removed ones (ids are stable).
  virtual int num_tenants() const { return static_cast<int>(users_.size()); }

  /// True when every tenant has trained every candidate model (in-flight
  /// assignments keep the selector non-exhausted until reported; removed
  /// tenants count as done).
  virtual bool Exhausted() const;

  /// Number of outstanding (issued, not yet reported) assignments.
  virtual int num_in_flight() const {
    return static_cast<int>(in_flight_.size());
  }

  /// Configured device count (max outstanding assignments).
  int num_devices() const { return options_.num_devices; }

  /// Shard count: 1 here, the worker count in the sharded engine.
  virtual int num_shards() const { return 1; }

  /// Live (non-retired) tenants per shard, ascending shard index
  /// (diagnostics). This engine answers `{live tenants}`.
  virtual std::vector<int> ShardSizes() const;

  /// Cumulative per-shard-worker CPU seconds spent running queued folds.
  /// This engine folds every report inline on the caller and answers
  /// `{0.0}`.
  virtual std::vector<double> ShardCpuSeconds() const { return {0.0}; }

  /// True iff `Next()` would hand out an assignment right now: a device
  /// slot is free and some tenant has an un-charged model remaining. False
  /// while everything remaining is in flight — drain completions and retry.
  virtual bool HasDispatchableWork() const;

  /// Picks the next (tenant, model) to train and marks it in flight. Fails
  /// with FailedPrecondition when all `num_devices` slots are occupied,
  /// when every remaining model is in flight, or when all tenants are
  /// exhausted.
  virtual Result<Assignment> Next();

  /// Reports the measured accuracy of a completed assignment; completions
  /// may arrive in any order. See the class comment for the Status-code
  /// taxonomy of rejected reports.
  virtual Status Report(const Assignment& assignment, double accuracy);

  /// Returns a live ticket without an observation (device failure, job
  /// abort): the (tenant, model) becomes dispatchable again as if never
  /// handed out. Validates exactly like `Report`.
  virtual Status Cancel(const Assignment& assignment);

  /// The issued in-flight assignment for a live ticket; NotFound when the
  /// ticket is not outstanding. This is the authoritative in-flight record
  /// — executors correlate completions through it instead of keeping their
  /// own table.
  virtual Result<Assignment> InFlightAssignment(int64_t ticket) const;

  /// Best model trained so far for `tenant` (what `infer` serves);
  /// NotFound before the first completed run.
  virtual Result<int> BestModel(int tenant) const;

  /// Best observed accuracy for `tenant`; 0 before the first run.
  virtual Result<double> BestAccuracy(int tenant) const;

  /// Rounds served so far for `tenant`.
  virtual Result<int> RoundsServed(int tenant) const;

  /// Read access to the scheduler policy (diagnostics: hybrid switch
  /// state, greedy rule). NOT covered by the sharded engine's
  /// thread-safety guarantee — the returned reference outlives any lock,
  /// so only inspect it while no other thread is driving the selector.
  const scheduler::SchedulerPolicy& scheduler_policy() const {
    return *scheduler_;
  }

  /// Invariant check for the candidate index (tests / debug tooling, never
  /// the serving path): re-derives every tenant key and replays every
  /// aggregate from scratch, failing with Internal on the first stale leaf,
  /// drifted exact sum, or out-of-date tournament node. OK when the index
  /// is disabled. The sharded override additionally locks and checks that
  /// every tenant ever added, retired ones included, sits on shard
  /// `t % N`, and that its live counts match.
  virtual Status ValidateIndex() const;

  /// Serializes the COMPLETE engine state (priors deduplicated by
  /// identity, per-tenant user + compact belief state, in-flight table,
  /// ticket/round counters, scheduler blob, WAL position) for a
  /// checkpoint. Every tenant runs the shared-prior belief (the only
  /// registration path), the one representation that serializes. The
  /// sharded override locks and drains the fold pipeline first, so the
  /// capture is quiesced.
  virtual Result<DurableSelectorState> CaptureDurableState() const;

  /// Restores a captured state into THIS engine, which must be freshly
  /// created with equivalent options (same scheduler kind, delta,
  /// cost-awareness, device count — configuration is not stored).
  /// Beliefs are rebuilt by replaying the observation history
  /// (bit-identical by determinism) and verified bit-for-bit against the
  /// stored Cholesky factor; DataLoss on any mismatch. FailedPrecondition
  /// when the engine already has state.
  virtual Status RestoreDurableState(const DurableSelectorState& state);

 protected:
  MultiTenantSelector(const SelectorOptions& options,
                      std::unique_ptr<scheduler::SchedulerPolicy> s)
      : options_(options), scheduler_(std::move(s)) {}

  // --- Churn hooks ----------------------------------------------------------
  //
  // Called from within AddTenant/RemoveTenant/RestoreDurableState while the
  // engine's synchronization (none here; the selector lock in the sharded
  // engine) is already in effect, so overrides must not re-enter the public
  // API.

  /// Placement hooks. The base add hook places the new tenant on shard 0
  /// (`AppendNewTenant`); the sharded engine places it on shard `t % N`
  /// and counts live tenants per shard. A new id is the largest ever
  /// issued, so an add lands at the tail of its shard. A removal moves no
  /// tenant: when the remove hook runs, the tenant's leaf is already
  /// neutral and its retirement already published.
  virtual void OnTenantAdded(int tenant) { AppendNewTenant(tenant, 0); }
  virtual void OnTenantRemoved(int tenant) { (void)tenant; }

  /// The add path both engines share: appends the new `tenant` to the tail
  /// of `shard`'s index tree in O(log T) amortized, then announces it to
  /// the observer (`OnTenantPlaced`, then its first tenant event).
  void AppendNewTenant(int tenant, int shard);

  // --- Report pipeline seams ----------------------------------------------
  //
  // `Report`/`Cancel` decompose into a COORDINATOR phase (`Begin*`:
  // validate the ticket against the in-flight table and retire the entry),
  // a FOLD phase (`Fold*`: the O(t^2) belief append / in-flight un-charge
  // plus the index-leaf refresh), and for Report a SEQUENCING phase
  // (`FinishReport`: scheduler outcome hook + global round advance). The
  // base engine runs all three inline. The sharded engine runs all three
  // under its coordinator lock too when the policy observes outcomes
  // (HYBRID); otherwise it ships the fold (and every cancel's fold) to the
  // tenant's owning shard worker through a per-shard FIFO report queue, so
  // completions for tenants on different shards fold concurrently.
  // Per-tenant fold order equals Begin* order, which keeps the selection
  // trace bit-identical to the inline pipeline.

  /// Coordinator phase: resolves `assignment` against the in-flight table
  /// (class-comment taxonomy), validates `accuracy`, and retires the
  /// ticket. Returns the ISSUED assignment the fold must apply.
  Result<Assignment> BeginReport(const Assignment& assignment,
                                 double accuracy);

  /// Fold phase: appends the observation to the tenant's belief and tracks
  /// the incumbent best model. `issued` must come from `BeginReport` — the
  /// fold of a validated ticket cannot fail (the arm is charged in flight
  /// and the tenant cannot be removed under an open ticket), so a rejection
  /// here aborts.
  void FoldReportedOutcome(const Assignment& issued, double accuracy);

  /// Sequencing phase: the scheduler's outcome hook (`OnOutcomeIndexed`
  /// when the index is on, else `OnOutcome`) + round advance. Policies
  /// whose `ObservesOutcomes()` is true read every tenant's post-fold state
  /// and the index here, so asynchronous engines must quiesce their fold
  /// pipeline first.
  void FinishReport(int tenant);

  /// Coordinator phase of `Cancel`: same validation and retirement as
  /// `BeginReport`, without an accuracy.
  Result<Assignment> BeginCancel(const Assignment& assignment);

  /// Fold phase of `Cancel`: un-charges the arm (it becomes dispatchable
  /// again). Aborts on rejection — impossible for a validated ticket.
  void FoldCancel(const Assignment& issued);

  // --- Candidate-index plumbing -------------------------------------------
  //
  // The base engine owns the index (absent when `use_candidate_index` is
  // off); the sharded engine swaps in an N-shard instance and places each
  // tenant on shard `t % N`. Every path that mutates a tenant refreshes that
  // tenant's leaf, so the index is fresh whenever PickTenant runs.

  /// The index, or nullptr when `use_candidate_index` is off.
  scheduler::CandidateIndex* candidate_index() { return index_.get(); }
  const scheduler::CandidateIndex* candidate_index() const {
    return index_.get();
  }

  /// Replaces the index with an empty `num_shards`-shard instance (the
  /// sharded engine calls this before any tenant exists). Keys track the
  /// line-8 gap only for schedulers that consume it (GREEDY/HYBRID), and
  /// the change log is on only for HYBRID, whose freeze detector reads it.
  void ResetIndex(int num_shards);

  /// Recomputes `tenant`'s key and replays its leaf path (no-op when
  /// disabled). Call after ANY event that changes the tenant's state.
  void RefreshIndexEntry(int tenant);

  /// The one source of the two no-work refusals (all exhausted vs
  /// everything in flight): the conformance suite compares Status TEXT
  /// between engines, so every pick path must emit identical strings.
  Status NoDispatchableWorkStatus() const;

  // --- Observation seam ---------------------------------------------------
  //
  // `NotifyTenantEvent` fires at exactly the seams that refresh the
  // candidate-index leaf (selection, fold, cancel, retire): wherever the
  // index would go stale, so would a dashboard. All of it is skipped in a
  // single branch when no observer is configured.

  /// The configured observer, or nullptr (the common case).
  SelectorObserver* observer() const { return options_.observer; }

  /// Publishes `tenant`'s fresh observation to the observer (no-op when
  /// none). Call AFTER `RefreshIndexEntry` — the gap is read back from the
  /// just-refreshed index key when the index tracks it.
  void NotifyTenantEvent(int tenant);

  /// Derives the observation `NotifyTenantEvent` publishes (also used by
  /// tests to compare a snapshot against live engine state).
  TenantObservation DeriveObservation(int tenant) const;

  // --- Durability seam ----------------------------------------------------
  //
  // Mirrors the observer seam: one branch when no WAL is configured. The
  // engines append AFTER applying (log order = validation order, and only
  // successful mutations are logged, so replay must succeed), and latch
  // the first WAL error — the selector fail-stops rather than let its
  // in-memory state silently outrun what recovery can reproduce.

  /// The configured durability log, or nullptr (the common case).
  DurabilityLog* wal() const { return options_.wal; }

  /// Fail-fast check every mutation runs first: OK without a WAL or while
  /// it is healthy, FailedPrecondition once a WAL write failed.
  Status WalGuard() const;

  /// Latches the first WAL error (and returns `status` unchanged).
  Status WalApply(Status status);

  /// Syncs the WAL (no-op without one), latching failure.
  Status SyncWal();

  const SelectorOptions& options() const { return options_; }
  std::vector<scheduler::UserState>& users() { return users_; }
  const std::vector<scheduler::UserState>& users() const { return users_; }
  scheduler::SchedulerPolicy& scheduler() { return *scheduler_; }
  const std::map<int64_t, Assignment>& in_flight() const { return in_flight_; }

 private:
  /// Picks the tenant to serve at global round `round`: the initialization
  /// sweep (Algorithm 2 lines 1-4, registration order) first, then the
  /// scheduler policy — from the candidate index when it is on, else the
  /// reference `PickUser` scan.
  Result<int> PickTenant(int round);

  Status ValidateTenant(int tenant) const;
  Result<int> AddTenantWithBelief(std::unique_ptr<gp::ArmBelief> belief,
                                  std::vector<double> costs);

  /// Shared Report/Cancel validation: resolves `assignment` to its live
  /// in-flight entry or the precise rejection Status (see class comment).
  Result<std::map<int64_t, Assignment>::iterator> FindIssuedEntry(
      const Assignment& assignment);

  SelectorOptions options_;
  std::unique_ptr<scheduler::SchedulerPolicy> scheduler_;
  /// Incremental candidate index (nullptr when disabled): per-shard
  /// tournament trees + exact threshold aggregates answering PickTenant in
  /// O(log T) instead of an O(T) scan.
  std::unique_ptr<scheduler::CandidateIndex> index_;
  std::vector<scheduler::UserState> users_;
  std::vector<int> best_model_;  // -1 until first report
  /// Outstanding assignments keyed by ticket id.
  std::map<int64_t, Assignment> in_flight_;
  int64_t next_ticket_ = 0;
  int round_ = 0;
  /// First WAL append/sync error, latched forever (fail-stop). Guarded by
  /// the engine's synchronization like every other engine field: all WAL
  /// calls, including Sync, run under it.
  Status wal_status_;
};

}  // namespace easeml::core

#endif  // EASEML_CORE_MULTI_TENANT_SELECTOR_H_
