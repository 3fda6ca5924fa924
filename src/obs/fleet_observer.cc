#include "obs/fleet_observer.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "shard/sharded_selector.h"

namespace easeml::obs {

FleetObserver::FleetObserver(const FleetObserverOptions& options)
    : plane_(options.num_shards, options.publish_interval) {
  Registry* reg = options.registry;
  if (reg == nullptr) return;
  next_total_ = reg->GetCounter("easeml_next_total");
  next_rejected_ = reg->GetCounter("easeml_next_rejected");
  next_pick_us_ = reg->GetHistogram("easeml_next_pick_us");
  next_arm_us_ = reg->GetHistogram("easeml_next_arm_us");
  report_total_ = reg->GetCounter("easeml_report_total");
  report_coord_us_ = reg->GetHistogram("easeml_report_coord_us");
  rejected_unknown_ = reg->GetCounter("easeml_report_rejected_unknown_ticket");
  rejected_stale_ = reg->GetCounter("easeml_report_rejected_stale_ticket");
  rejected_invalid_ =
      reg->GetCounter("easeml_report_rejected_mismatch_or_invalid");
  rejected_other_ = reg->GetCounter("easeml_report_rejected_other");
  folds_queued_ = reg->GetCounter("easeml_folds_queued");
  folds_executed_ = reg->GetCounter("easeml_folds_executed");
  fold_us_ = reg->GetHistogram("easeml_report_fold_us");
  drain_wait_us_ = reg->GetHistogram("easeml_drain_wait_us");
  tenant_events_ = reg->GetCounter("easeml_tenant_events");
}

void FleetObserver::OnTenantEvent(const core::TenantObservation& obs) {
  plane_.Apply(obs);
  if (tenant_events_ != nullptr) tenant_events_->Increment();
}

void FleetObserver::OnTenantPlaced(int tenant, int shard) {
  plane_.Place(tenant, shard);
}

void FleetObserver::OnNext(bool ok, double pick_us, double arm_us) {
  if (next_total_ == nullptr) return;
  next_total_->Increment();
  if (!ok) next_rejected_->Increment();
  next_pick_us_->Record(pick_us);
  if (ok) next_arm_us_->Record(arm_us);
}

void FleetObserver::OnReport(double coord_us) {
  if (report_total_ == nullptr) return;
  report_total_->Increment();
  report_coord_us_->Record(coord_us);
}

void FleetObserver::OnTicketRejected(int code) {
  if (rejected_other_ == nullptr) return;
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kNotFound:
      rejected_unknown_->Increment();
      break;
    case StatusCode::kFailedPrecondition:
      rejected_stale_->Increment();
      break;
    case StatusCode::kInvalidArgument:
      rejected_invalid_->Increment();
      break;
    default:
      rejected_other_->Increment();
      break;
  }
}

void FleetObserver::OnFoldQueued(int shard) {
  (void)shard;
  if (folds_queued_ != nullptr) folds_queued_->Increment();
}

void FleetObserver::OnFold(int shard, double fold_us) {
  (void)shard;
  if (folds_executed_ == nullptr) return;
  folds_executed_->Increment();
  fold_us_->Record(fold_us);
}

void FleetObserver::OnDrainWait(double wait_us) {
  if (drain_wait_us_ != nullptr) drain_wait_us_->Record(wait_us);
}

Result<ObservedSelector> MakeObservedSelector(
    core::SelectorOptions options, FleetObserverOptions obs_options) {
  obs_options.num_shards = std::max(1, options.num_shards);
  ObservedSelector out;
  out.observer = std::make_unique<FleetObserver>(obs_options);
  options.observer = out.observer.get();
  EASEML_ASSIGN_OR_RETURN(out.selector, shard::MakeSelector(options));
  return out;
}

}  // namespace easeml::obs
