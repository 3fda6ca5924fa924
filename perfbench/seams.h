#ifndef EASEML_PERFBENCH_SEAMS_H_
#define EASEML_PERFBENCH_SEAMS_H_

// Bench-side decorators at the library's public seams. Each forwards every
// call unchanged to the real implementation and adds a span plus a counter
// around it, so the traced run sees WAL, observer and filesystem work from
// outside the program. The untraced run wires the real implementations
// directly and never constructs these.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/durability_log.h"
#include "core/selector_observer.h"
#include "wal/file.h"

namespace perfbench {

/// `core::DurabilityLog` around the real WAL (`wal::SelectorWal`).
class TracedDurabilityLog final : public easeml::core::DurabilityLog {
 public:
  explicit TracedDurabilityLog(easeml::core::DurabilityLog* inner)
      : inner_(inner) {}

  easeml::Status LogAddTenant(
      int tenant,
      const std::shared_ptr<const easeml::gp::SharedGpPrior>& prior,
      const std::vector<double>& costs) override;
  easeml::Status LogRemoveTenant(int tenant) override;
  easeml::Status LogNext(int tenant, int model, int64_t ticket) override;
  easeml::Status LogReport(int64_t ticket, int tenant, int model,
                           double accuracy) override;
  easeml::Status LogCancel(int64_t ticket, int tenant, int model) override;
  easeml::Status Sync() override;
  bool SyncIsDeferred() const override { return inner_->SyncIsDeferred(); }
  Position position() const override { return inner_->position(); }

  /// Log* calls forwarded so far.
  int64_t records() const { return records_.load(std::memory_order_relaxed); }

 private:
  easeml::core::DurabilityLog* const inner_;
  std::atomic<int64_t> records_{0};
};

/// `core::SelectorObserver` around the real observer (`obs::FleetObserver`).
/// Hooks fire on the client thread and on shard workers concurrently.
class TracedObserver final : public easeml::core::SelectorObserver {
 public:
  explicit TracedObserver(easeml::core::SelectorObserver* inner)
      : inner_(inner) {}

  void OnTenantEvent(const easeml::core::TenantObservation& obs) override;
  void OnTenantPlaced(int tenant, int shard) override;
  void OnPlacementChanged(
      const std::vector<std::vector<int>>& shard_tenants) override;
  void OnNext(bool ok, double pick_us, double arm_us) override;
  void OnReport(double coord_us) override;
  void OnTicketRejected(int code) override;
  void OnFoldQueued(int shard) override;
  void OnFold(int shard, double fold_us) override;
  void OnDrainWait(double wait_us) override;

  /// Hook calls forwarded so far.
  int64_t hooks() const { return hooks_.load(std::memory_order_relaxed); }

 private:
  void Count() { hooks_.fetch_add(1, std::memory_order_relaxed); }

  easeml::core::SelectorObserver* const inner_;
  std::atomic<int64_t> hooks_{0};
};

/// Write counters of `CountingFileSystem`. The log file is told apart from
/// every other file (checkpoint temporaries) by its path.
struct FileCounters {
  std::atomic<int64_t> log_appends{0};
  std::atomic<int64_t> log_bytes{0};
  std::atomic<int64_t> other_appends{0};
  std::atomic<int64_t> other_bytes{0};
  std::atomic<int64_t> syncs{0};  // file syncs plus directory syncs
};

/// `wal::FileSystem` around another filesystem (the POSIX one) that counts
/// and spans every append and sync.
class CountingFileSystem final : public easeml::wal::FileSystem {
 public:
  CountingFileSystem(easeml::wal::FileSystem* inner, std::string log_path)
      : inner_(inner), log_path_(std::move(log_path)) {}

  easeml::Result<std::unique_ptr<easeml::wal::WritableFile>> OpenAppendable(
      const std::string& path) override;
  easeml::Result<std::string> ReadFile(const std::string& path) override {
    return inner_->ReadFile(path);
  }
  easeml::Result<bool> Exists(const std::string& path) override {
    return inner_->Exists(path);
  }
  easeml::Status Truncate(const std::string& path, uint64_t size) override {
    return inner_->Truncate(path, size);
  }
  easeml::Status Rename(const std::string& from,
                        const std::string& to) override {
    return inner_->Rename(from, to);
  }
  easeml::Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  easeml::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  easeml::Status SyncDir(const std::string& dir) override;

  const FileCounters& counters() const { return counters_; }

 private:
  easeml::wal::FileSystem* const inner_;
  const std::string log_path_;
  FileCounters counters_;
};

}  // namespace perfbench

#endif  // EASEML_PERFBENCH_SEAMS_H_
