#ifndef EASEML_CORE_SELECTOR_OBSERVER_H_
#define EASEML_CORE_SELECTOR_OBSERVER_H_

#include <cstdint>
#include <vector>

namespace easeml::core {

/// One tenant's published state at a fold boundary: everything a dashboard
/// or analytics scan wants to know about the tenant, derived from the same
/// sources as the candidate index's `TenantKey` (σ̃ bound, line-8 gap,
/// batched MaxUcb diagnostics) plus the serving-side bookkeeping the engine
/// already tracks. Plain data — snapshots of it are copied and published
/// wholesale, never pointed into engine state.
struct TenantObservation {
  int tenant = -1;
  bool retired = false;
  bool schedulable = false;
  bool uninitialized = false;  // awaiting its initialization-sweep round
  int rounds_served = 0;
  int in_flight = 0;    // tickets currently charged against the tenant
  int num_models = 0;   // candidate count K
  int best_model = -1;  // -1 until the first completed run
  double best_reward = 0.0;
  double consumed_cost = 0.0;
  /// σ̃ bound (the GREEDY threshold input); +inf before the first
  /// observation, -inf when not schedulable.
  double bound = 0.0;
  /// Line-8 gap MaxUcb − best_reward; -inf when unavailable (tenant not
  /// schedulable, or the policy exposes no confidence bounds).
  double gap = 0.0;
  /// Batched MaxUcb diagnostic; -inf when `gap` is -inf.
  double max_ucb = 0.0;
};

/// Engine-side observation seam. The selector engine calls these hooks
/// under its lock; implementations must be cheap, must never call back
/// into the selector, and must do their own cross-thread synchronization
/// for anything they publish to other threads (the obs layer's
/// `FleetObserver` is the canonical implementation).
///
/// Threading contract: every hook fires on the thread that called into the
/// engine, under the engine's lock. No engine starts a thread, so hooks of
/// one engine never run concurrently with each other. The observer learns
/// each tenant's shard from `OnTenantPlaced`, which always precedes the
/// tenant's events; a tenant never changes shard, and its removal arrives
/// as a retired `OnTenantEvent`.
///
/// Timing contract: every duration a hook receives is wall time
/// (`MonotonicSeconds()`) measured on the calling thread. A thread
/// preempted inside a section is charged the time it spent off the CPU,
/// so on an oversubscribed host the histograms carry scheduling delay as
/// well as work. The split of one `Report` is disjoint: its coordinator
/// time (`OnReport`) and its fold (`OnFold`) cover separate intervals of
/// the call, so together they never exceed its wall time.
///
/// Every hook has an empty default so implementations subscribe only to
/// what they consume. The engines skip all derivation work when
/// `SelectorOptions::observer` is null — the serving path is untouched
/// (and its traces bit-identical) with observation off.
class SelectorObserver {
 public:
  virtual ~SelectorObserver() = default;

  /// `tenant`'s state changed (selection, fold, cancel, retire): `obs` is
  /// its fresh summary.
  virtual void OnTenantEvent(const TenantObservation& obs) { (void)obs; }

  /// A new tenant appeared on `shard` (placement grows at the tail; no
  /// other tenant moved), where it stays for life. Fired before the
  /// tenant's first OnTenantEvent.
  virtual void OnTenantPlaced(int tenant, int shard) {
    (void)tenant;
    (void)shard;
  }

  /// Unused: no engine fires this hook. A tenant's shard is a function of
  /// its id and never changes after `OnTenantPlaced`, so there is no
  /// placement change to announce. Still declared because perfbench's
  /// `TracedObserver` overrides it; `shard_tenants[s]` would list shard
  /// `s`'s tenants in ascending id order.
  virtual void OnPlacementChanged(
      const std::vector<std::vector<int>>& shard_tenants) {
    (void)shard_tenants;
  }

  /// A `Next()` call finished its pick + arm-selection phases. `pick_us` is
  /// the tenant-pick (index descent / scan) wall time, `arm_us` the
  /// arm-selection time; `ok` is false when no assignment was handed out.
  virtual void OnNext(bool ok, double pick_us, double arm_us) {
    (void)ok;
    (void)pick_us;
    (void)arm_us;
  }

  /// A `Report()` finished successfully after `coord_us` wall
  /// microseconds on the calling thread (validation, ticket retirement,
  /// outcome hook, WAL sync), excluding the fold, which `OnFold` reports.
  /// The engine starts this clock once it holds its lock, so time spent
  /// waiting for the lock is in no hook.
  virtual void OnReport(double coord_us) { (void)coord_us; }

  /// A `Report()`/`Cancel()` ticket was rejected; `code` is the
  /// `StatusCode` of the precise rejection taxonomy (NotFound = unknown
  /// id, FailedPrecondition = stale/duplicate, InvalidArgument = forged
  /// entry or non-finite accuracy).
  virtual void OnTicketRejected(int code) { (void)code; }

  /// A belief fold (a report or a cancel) of a `shard` tenant is about to
  /// run on the calling thread. The engine fires it once per accepted
  /// `Report` and once per accepted `Cancel`.
  virtual void OnFoldQueued(int shard) { (void)shard; }

  /// A belief fold (report or cancel) of a `shard` tenant ran for
  /// `fold_us` wall microseconds on the calling thread. Fires once per
  /// `OnFoldQueued`.
  virtual void OnFold(int shard, double fold_us) {
    (void)shard;
    (void)fold_us;
  }

  /// Unused: no engine fires this hook, because every fold runs on the
  /// calling thread and no reader ever waits for one. Still declared
  /// because perfbench's `TracedObserver` overrides it; `wait_us` would be
  /// a reader's wall-microsecond stall behind queued folds.
  virtual void OnDrainWait(double wait_us) { (void)wait_us; }
};

}  // namespace easeml::core

#endif  // EASEML_CORE_SELECTOR_OBSERVER_H_
