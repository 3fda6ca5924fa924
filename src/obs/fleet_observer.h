#ifndef EASEML_OBS_FLEET_OBSERVER_H_
#define EASEML_OBS_FLEET_OBSERVER_H_

#include <memory>
#include <vector>

#include "core/multi_tenant_selector.h"
#include "core/selector_observer.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace easeml::obs {

struct FleetObserverOptions {
  /// Must equal the engine's shard count (1 for the sequential engine).
  int num_shards = 1;
  /// Tenant events between automatic per-shard snapshot publishes.
  int publish_interval = 32;
  /// Optional metrics sink; may be null (snapshots only). Non-owning; must
  /// outlive the observer.
  Registry* registry = nullptr;
};

/// The canonical `core::SelectorObserver`: routes tenant events and
/// placements into a `SnapshotPlane` and the timing hooks into
/// `Registry` instruments. Instrument pointers are resolved once at
/// construction, so every hook is a plane apply and/or a couple of relaxed
/// atomic RMWs — cheap enough for the `Next`/`Report`/`Cancel` paths it
/// sits on.
///
/// Instruments (all prefixed `easeml_`; every `_us` histogram is wall time,
/// see the timing contract in `core::SelectorObserver`):
///   next_total / next_rejected          Next() calls / calls with no work
///   next_pick_us / next_arm_us          tenant-pick and arm-selection time
///   report_total / report_coord_us      Report() successes / coordinator time
///   report_rejected_unknown_ticket      BeginReport/Cancel NotFound
///   report_rejected_stale_ticket        ... FailedPrecondition (duplicate)
///   report_rejected_mismatch_or_invalid ... InvalidArgument (forged/NaN)
///   report_rejected_other               any other rejection code
///   folds_queued / folds_executed       folds begun / finished (equal once
///                                       a call returns)
///   report_fold_us                      per-fold time (report or cancel)
///   tenant_events                       snapshot-plane applies
class FleetObserver final : public core::SelectorObserver {
 public:
  explicit FleetObserver(const FleetObserverOptions& options);

  SnapshotPlane& plane() { return plane_; }
  const SnapshotPlane& plane() const { return plane_; }

  // core::SelectorObserver hooks (threading contract in the base class).
  void OnTenantEvent(const core::TenantObservation& obs) override;
  void OnTenantPlaced(int tenant, int shard) override;
  void OnNext(bool ok, double pick_us, double arm_us) override;
  void OnReport(double coord_us) override;
  void OnTicketRejected(int code) override;
  void OnFoldQueued(int shard) override;
  void OnFold(int shard, double fold_us) override;

 private:
  SnapshotPlane plane_;
  // Resolved instruments; all null when no registry was supplied.
  Counter* next_total_ = nullptr;
  Counter* next_rejected_ = nullptr;
  Histogram* next_pick_us_ = nullptr;
  Histogram* next_arm_us_ = nullptr;
  Counter* report_total_ = nullptr;
  Histogram* report_coord_us_ = nullptr;
  Counter* rejected_unknown_ = nullptr;
  Counter* rejected_stale_ = nullptr;
  Counter* rejected_invalid_ = nullptr;
  Counter* rejected_other_ = nullptr;
  Counter* folds_queued_ = nullptr;
  Counter* folds_executed_ = nullptr;
  Histogram* fold_us_ = nullptr;
  Counter* tenant_events_ = nullptr;
};

/// An engine with its observation plane attached: `observer` outlives
/// `selector` (declaration order — the selector is destroyed first), and
/// `selector` was built with `SelectorOptions::observer` pointing at it.
struct ObservedSelector {
  std::unique_ptr<FleetObserver> observer;
  std::unique_ptr<core::MultiTenantSelector> selector;
};

/// Convenience: builds the engine `options` asks for (sequential or
/// sharded, via shard::MakeSelector) with a FleetObserver wired in.
/// `obs_options.num_shards` is overridden to match the engine.
Result<ObservedSelector> MakeObservedSelector(core::SelectorOptions options,
                                              FleetObserverOptions obs_options);

}  // namespace easeml::obs

#endif  // EASEML_OBS_FLEET_OBSERVER_H_
