#include "seams.h"

#include <utility>

#include "trace.h"

namespace perfbench {

using easeml::Status;

Status TracedDurabilityLog::LogAddTenant(
    int tenant, const std::shared_ptr<const easeml::gp::SharedGpPrior>& prior,
    const std::vector<double>& costs) {
  ScopedSpan span(Span::kWalAppend);
  records_.fetch_add(1, std::memory_order_relaxed);
  return inner_->LogAddTenant(tenant, prior, costs);
}

Status TracedDurabilityLog::LogRemoveTenant(int tenant) {
  ScopedSpan span(Span::kWalAppend);
  records_.fetch_add(1, std::memory_order_relaxed);
  return inner_->LogRemoveTenant(tenant);
}

Status TracedDurabilityLog::LogNext(int tenant, int model, int64_t ticket) {
  ScopedSpan span(Span::kWalAppend);
  records_.fetch_add(1, std::memory_order_relaxed);
  return inner_->LogNext(tenant, model, ticket);
}

Status TracedDurabilityLog::LogReport(int64_t ticket, int tenant, int model,
                                      double accuracy) {
  ScopedSpan span(Span::kWalAppend);
  records_.fetch_add(1, std::memory_order_relaxed);
  return inner_->LogReport(ticket, tenant, model, accuracy);
}

Status TracedDurabilityLog::LogCancel(int64_t ticket, int tenant, int model) {
  ScopedSpan span(Span::kWalAppend);
  records_.fetch_add(1, std::memory_order_relaxed);
  return inner_->LogCancel(ticket, tenant, model);
}

Status TracedDurabilityLog::Sync() {
  ScopedSpan span(Span::kWalSync);
  return inner_->Sync();
}

void TracedObserver::OnTenantEvent(const easeml::core::TenantObservation& obs) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnTenantEvent(obs);
}

void TracedObserver::OnTenantPlaced(int tenant, int shard) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnTenantPlaced(tenant, shard);
}

void TracedObserver::OnPlacementChanged(
    const std::vector<std::vector<int>>& shard_tenants) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnPlacementChanged(shard_tenants);
}

void TracedObserver::OnNext(bool ok, double pick_us, double arm_us) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnNext(ok, pick_us, arm_us);
}

void TracedObserver::OnReport(double coord_us) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnReport(coord_us);
}

void TracedObserver::OnTicketRejected(int code) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnTicketRejected(code);
}

void TracedObserver::OnFoldQueued(int shard) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnFoldQueued(shard);
}

void TracedObserver::OnFold(int shard, double fold_us) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnFold(shard, fold_us);
}

void TracedObserver::OnDrainWait(double wait_us) {
  ScopedSpan span(Span::kObsHook);
  Count();
  inner_->OnDrainWait(wait_us);
}

namespace {

class CountingFile final : public easeml::wal::WritableFile {
 public:
  CountingFile(std::unique_ptr<easeml::wal::WritableFile> inner, bool is_log,
               FileCounters* counters)
      : inner_(std::move(inner)), is_log_(is_log), counters_(counters) {}

  Status Append(std::string_view data) override {
    ScopedSpan span(is_log_ ? Span::kFileAppend : Span::kOtherFileAppend);
    auto& appends = is_log_ ? counters_->log_appends : counters_->other_appends;
    auto& bytes = is_log_ ? counters_->log_bytes : counters_->other_bytes;
    appends.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(static_cast<int64_t>(data.size()),
                    std::memory_order_relaxed);
    return inner_->Append(data);
  }
  Status Sync() override {
    ScopedSpan span(Span::kFileSync);
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return inner_->Sync();
  }
  Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<easeml::wal::WritableFile> inner_;
  const bool is_log_;
  FileCounters* const counters_;
};

}  // namespace

easeml::Result<std::unique_ptr<easeml::wal::WritableFile>>
CountingFileSystem::OpenAppendable(const std::string& path) {
  auto file = inner_->OpenAppendable(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<easeml::wal::WritableFile>(std::make_unique<CountingFile>(
      std::move(file).value(), path == log_path_, &counters_));
}

Status CountingFileSystem::SyncDir(const std::string& dir) {
  ScopedSpan span(Span::kFileSync);
  counters_.syncs.fetch_add(1, std::memory_order_relaxed);
  return inner_->SyncDir(dir);
}

}  // namespace perfbench
