/// Durability bench: what the write-ahead log costs on the serving hot
/// path, and what recovery costs at restart.
///
/// Section 1 (RECOVERY_SERVE) drives identical GREEDY+index campaigns
/// through four engines — WAL off; WAL in group-commit mode ("wal":
/// kDeferred, acks return from the process buffer, the file sees one
/// write per 64 KiB threshold crossing); WAL with a write() per ack
/// ("wal+write": kBuffered, survives process crash); and WAL with an
/// fsync per ack ("wal+fsync") — and reports per-call Next()/Report()
/// thread-CPU means, same protocol as bench/next_latency (per-call
/// CLOCK_THREAD_CPUTIME_ID on the driving thread, N=1). The group-commit
/// arm is the <10% Report-overhead hard gate in scripts/bench.sh: it
/// measures what the LOG costs the hot path (encode + memcpy + amortized
/// flush); the per-ack-syscall arms measure the kernel and the disk, and
/// are informational (fsync runs only at the small fleet size). All arms
/// of a fleet size run as simultaneous live campaigns with their
/// measurement windows interleaved round-robin, and each arm's mean is
/// the median over its 9 windows — host drift lands on every arm
/// equally instead of biasing whichever campaign ran later.
///
/// Section 2 (RECOVERY_TIME) measures restart cost against log length:
/// build a campaign of L Next/Report pairs, kill it, and time
/// wal::OpenOrRecover twice — once replaying the whole log, once after a
/// checkpoint was cut at the end (restore + scan, zero records replayed).
/// Recovery replays Reports through the engine's public API, so the
/// no-checkpoint arm pays the same belief folds the original campaign
/// paid; the checkpoint arm pays a state decode linear in the fleet.
///
/// Machine-readable rows for scripts/bench.sh:
///   RECOVERY_SERVE,<tenants>,<arm>,<next_us_mean>,<report_us_mean>
///   RECOVERY_TIME,<ops>,<tenants>,<checkpoint 0/1>,<recover_ms>,<replayed_records>,<log_bytes>
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/file.h"
#include "wal/recovery.h"
#include "wal/selector_wal.h"

namespace {

using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;
using easeml::wal::SelectorWalOptions;

constexpr int kModels = 6;
constexpr int kWindowSteps = 200;
constexpr int kWindows = 15;

const char kBenchDir[] = "/tmp/easeml_recovery_bench";

using easeml::ThreadCpuSeconds;

/// Deterministic ground-truth accuracy in (0, 1) via an integer hash
/// (same generator as bench/next_latency).
double Accuracy(int tenant, int model) {
  const uint64_t x = easeml::SplitMix64(static_cast<uint64_t>(tenant) *
                                            1000003u +
                                        static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

SelectorOptions ServeOptions() {
  SelectorOptions options;
  options.scheduler = SchedulerKind::kGreedy;
  options.cost_aware = true;
  options.num_devices = 1;
  options.num_shards = 1;
  return options;
}

void AddFleet(MultiTenantSelector* selector, int tenants) {
  auto prior = easeml::gp::MakeSharedGpPrior(
      easeml::linalg::Matrix::Identity(kModels), 1e-2);
  EASEML_CHECK(prior.ok()) << prior.status().ToString();
  for (int t = 0; t < tenants; ++t) {
    std::vector<double> costs;
    for (int m = 0; m < kModels; ++m) {
      costs.push_back(1.0 + 0.25 * ((t + m) % kModels));
    }
    EASEML_CHECK(selector->AddTenant(*prior, costs).ok());
  }
}

/// Wipes the bench directory's log/checkpoint so each cell starts fresh.
void WipeDir(easeml::wal::FileSystem* fs) {
  EASEML_CHECK(fs->CreateDir(kBenchDir).ok());
  (void)fs->Delete(easeml::wal::LogPath(kBenchDir));
  (void)fs->Delete(easeml::wal::CheckpointPath(kBenchDir));
}

struct Cell {
  double next_us = 0.0;
  double report_us = 0.0;
};

enum class WalArm { kOff, kDeferred, kBuffered, kFsync };

const char* ArmName(WalArm arm) {
  switch (arm) {
    case WalArm::kOff:
      return "off";
    case WalArm::kDeferred:
      return "wal";
    case WalArm::kBuffered:
      return "wal+write";
    case WalArm::kFsync:
      return "wal+fsync";
  }
  return "?";
}

SelectorWalOptions::Durability ArmDurability(WalArm arm) {
  switch (arm) {
    case WalArm::kBuffered:
      return SelectorWalOptions::Durability::kBuffered;
    case WalArm::kFsync:
      return SelectorWalOptions::Durability::kFsync;
    default:
      return SelectorWalOptions::Durability::kDeferred;
  }
}

/// One live campaign per arm; measurement windows are interleaved
/// round-robin across the arms so host drift (frequency steps, cache
/// pressure from neighbors) lands on every arm equally — the same
/// protocol bench/analytics_interference uses. The WAL deltas under test
/// (an encode + memcpy per call) are far below the drift between two
/// back-to-back whole campaigns.
struct ServeArm {
  WalArm kind;
  std::string dir;
  std::unique_ptr<easeml::wal::SelectorWal> wal;
  std::unique_ptr<MultiTenantSelector> selector;
  std::vector<double> next_means;
  std::vector<double> report_means;
};

std::vector<Cell> RunServeCampaigns(int tenants,
                                    const std::vector<WalArm>& arms) {
  easeml::wal::FileSystem* fs = easeml::wal::GetPosixFileSystem();
  // The arm directories live under kBenchDir, and CreateDir makes one
  // level only.
  EASEML_CHECK(fs->CreateDir(kBenchDir).ok());
  std::vector<ServeArm> live;
  for (size_t i = 0; i < arms.size(); ++i) {
    ServeArm arm;
    arm.kind = arms[i];
    arm.dir = std::string(kBenchDir) + "/arm" + std::to_string(i);
    EASEML_CHECK(fs->CreateDir(arm.dir).ok());
    (void)fs->Delete(easeml::wal::LogPath(arm.dir));
    (void)fs->Delete(easeml::wal::CheckpointPath(arm.dir));
    SelectorOptions options = ServeOptions();
    if (arm.kind != WalArm::kOff) {
      SelectorWalOptions wal_options;
      wal_options.durability = ArmDurability(arm.kind);
      auto opened = easeml::wal::SelectorWal::Open(
          fs, easeml::wal::LogPath(arm.dir), wal_options);
      EASEML_CHECK(opened.ok()) << opened.status().ToString();
      arm.wal = std::move(*opened);
      options.wal = arm.wal.get();
    }
    auto created = easeml::shard::MakeSelector(options);
    EASEML_CHECK(created.ok()) << created.status().ToString();
    arm.selector = std::move(*created);
    AddFleet(arm.selector.get(), tenants);
    // Initialization sweep (unmeasured): serve every tenant once so the
    // measured windows run in the regular GREEDY regime.
    for (int t = 0; t < tenants; ++t) {
      auto a = arm.selector->Next();
      EASEML_CHECK(a.ok()) << a.status().ToString();
      EASEML_CHECK(
          arm.selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
    }
    live.push_back(std::move(arm));
  }

  for (int w = 0; w < kWindows; ++w) {
    for (ServeArm& arm : live) {
      double next_us = 0.0, report_us = 0.0;
      for (int step = 0; step < kWindowSteps; ++step) {
        const double t0 = ThreadCpuSeconds();
        auto a = arm.selector->Next();
        const double t1 = ThreadCpuSeconds();
        EASEML_CHECK(a.ok()) << a.status().ToString();
        EASEML_CHECK(
            arm.selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
        const double t2 = ThreadCpuSeconds();
        next_us += (t1 - t0) * 1e6;
        report_us += (t2 - t1) * 1e6;
      }
      arm.next_means.push_back(next_us / kWindowSteps);
      arm.report_means.push_back(report_us / kWindowSteps);
    }
  }

  std::vector<Cell> cells;
  for (size_t i = 0; i < live.size(); ++i) {
    ServeArm& arm = live[i];
    // Raw per-window means (comment row): the estimator's input, kept in
    // the log so a surprising median can be diagnosed from the artifact.
    std::printf("# windows arm%zu=%s report:", i, ArmName(arm.kind));
    for (const double r : arm.report_means) std::printf(" %.3f", r);
    std::printf(" next:");
    for (const double n : arm.next_means) std::printf(" %.3f", n);
    std::printf("\n");
    std::sort(arm.next_means.begin(), arm.next_means.end());
    std::sort(arm.report_means.begin(), arm.report_means.end());
    // Lower-quartile window, not median: host contamination (kernel
    // writeback, neighbor bursts) is periodic and strictly additive — the
    // window dump above shows clean windows tightly clustered with every
    // ~3rd window inflated 2x — so a low quantile reads the clean-window
    // (intrinsic) cost for every arm alike while the median can land on a
    // contaminated window.
    Cell cell;
    cell.next_us = arm.next_means[kWindows / 4];
    cell.report_us = arm.report_means[kWindows / 4];
    cells.push_back(cell);
  }
  return cells;
}

struct RecoverCell {
  double recover_ms = 0.0;
  int64_t replayed_records = 0;
  int64_t log_bytes = 0;
};

RecoverCell TimeRecovery(easeml::wal::FileSystem* fs,
                         const SelectorOptions& options) {
  const double wall0 = easeml::MonotonicSeconds();
  auto recovered = easeml::wal::OpenOrRecover(fs, kBenchDir, options);
  const double wall1 = easeml::MonotonicSeconds();
  EASEML_CHECK(recovered.ok()) << recovered.status().ToString();
  RecoverCell cell;
  cell.recover_ms = (wall1 - wall0) * 1e3;
  cell.replayed_records = recovered->stats.replayed_records;
  cell.log_bytes = recovered->stats.log_bytes;
  return cell;
}

void RunRecoverySweep() {
  easeml::wal::FileSystem* fs = easeml::wal::GetPosixFileSystem();
  std::printf(
      "\n# Recovery time vs log length (GREEDY+index, K=%d, buffered WAL; "
      "recover_ms is wall time of wal::OpenOrRecover)\n",
      kModels);
  std::printf("%8s %8s %11s | %12s %17s %11s\n", "ops", "tenants",
              "checkpoint", "recover_ms", "replayed_records", "log_bytes");
  for (const int ops : {1000, 4000, 16000}) {
    // Fleet sized so the campaign never exhausts: ops/4 tenants hold
    // 1.5*ops arm plays.
    const int tenants = std::max(50, ops / 4);
    WipeDir(fs);
    SelectorOptions options = ServeOptions();
    {
      SelectorWalOptions wal_options;
      wal_options.durability = SelectorWalOptions::Durability::kBuffered;
      auto opened = easeml::wal::SelectorWal::Open(
          fs, easeml::wal::LogPath(kBenchDir), wal_options);
      EASEML_CHECK(opened.ok()) << opened.status().ToString();
      SelectorOptions wired = options;
      wired.wal = opened->get();
      auto created = easeml::shard::MakeSelector(wired);
      EASEML_CHECK(created.ok()) << created.status().ToString();
      MultiTenantSelector* selector = created->get();
      AddFleet(selector, tenants);
      for (int step = 0; step < ops; ++step) {
        auto a = selector->Next();
        EASEML_CHECK(a.ok()) << a.status().ToString();
        EASEML_CHECK(
            selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
      }
      // Engine and WAL destroyed here: the last Report's Sync already
      // wrote every record, so this is a clean process kill.
    }
    for (const bool with_checkpoint : {false, true}) {
      if (with_checkpoint) {
        // Cut the checkpoint through a recovered engine, then kill again.
        auto recovered = easeml::wal::OpenOrRecover(fs, kBenchDir, options);
        EASEML_CHECK(recovered.ok()) << recovered.status().ToString();
        EASEML_CHECK(easeml::wal::CutCheckpoint(fs, kBenchDir,
                                                recovered->wal.get(),
                                                *recovered->selector, nullptr)
                         .ok());
      }
      const RecoverCell cell = TimeRecovery(fs, options);
      std::printf("%8d %8d %11d | %12.2f %17lld %11lld\n", ops, tenants,
                  with_checkpoint ? 1 : 0, cell.recover_ms,
                  static_cast<long long>(cell.replayed_records),
                  static_cast<long long>(cell.log_bytes));
      std::printf("RECOVERY_TIME,%d,%d,%d,%.2f,%lld,%lld\n", ops, tenants,
                  with_checkpoint ? 1 : 0, cell.recover_ms,
                  static_cast<long long>(cell.replayed_records),
                  static_cast<long long>(cell.log_bytes));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --gate-only: just the T=1e5 serve campaigns the bench.sh gate reads —
  // the quick-turnaround mode for CI smoke legs and repeatability checks.
  const bool gate_only =
      argc > 1 && std::string_view(argv[1]) == "--gate-only";
  std::printf(
      "# WAL serving overhead: Next()/Report() per-call thread-CPU means "
      "(GREEDY+index, K=%d, D=1, N=1; median over %d interleaved windows "
      "of %d steps, one live campaign per arm). "
      "The group-commit arm is the <10%% Report gate; fsync is "
      "informational and runs only at the small fleet.\n",
      kModels, kWindows, kWindowSteps);
  std::printf("%8s %10s | %14s %14s\n", "tenants", "arm", "next_us_mean",
              "report_us_mean");
  for (const int tenants : {1000, 10000, 100000}) {
    if (gate_only && tenants != 100000) continue;
    // The gate fleet duplicates the off and group-commit arms: the WAL's
    // small structures (a 2.5 KiB slot array, a 64 KiB buffer) are subject
    // to per-allocation cache-set luck that can elevate one arm for a
    // whole run (interleaved windows cancel drift, not layout), so the
    // gate statistic is the MINIMUM delta over the off x wal pairs — the
    // intrinsic cost — and the off-vs-off spread is printed as the run's
    // noise floor.
    std::vector<WalArm> arms{WalArm::kOff, WalArm::kDeferred};
    if (tenants == 100000) {
      arms.push_back(WalArm::kOff);
      arms.push_back(WalArm::kDeferred);
      if (!gate_only) arms.push_back(WalArm::kBuffered);
    } else {
      arms.push_back(WalArm::kBuffered);
      if (tenants <= 1000) arms.push_back(WalArm::kFsync);
    }
    const std::vector<Cell> cells = RunServeCampaigns(tenants, arms);
    bool seen_off = false, seen_wal = false;
    for (size_t i = 0; i < arms.size(); ++i) {
      // Duplicate arms print once (first instance); all feed the gate row.
      const bool dup = (arms[i] == WalArm::kOff && seen_off) ||
                       (arms[i] == WalArm::kDeferred && seen_wal);
      seen_off = seen_off || arms[i] == WalArm::kOff;
      seen_wal = seen_wal || arms[i] == WalArm::kDeferred;
      if (dup) continue;
      std::printf("%8d %10s | %14.3f %14.3f\n", tenants, ArmName(arms[i]),
                  cells[i].next_us, cells[i].report_us);
      std::printf("RECOVERY_SERVE,%d,%s,%.3f,%.3f\n", tenants,
                  ArmName(arms[i]), cells[i].next_us, cells[i].report_us);
    }
    if (tenants == 100000) {
      std::vector<double> off_reports, wal_reports;
      for (size_t i = 0; i < arms.size(); ++i) {
        if (arms[i] == WalArm::kOff) off_reports.push_back(cells[i].report_us);
        if (arms[i] == WalArm::kDeferred) {
          wal_reports.push_back(cells[i].report_us);
        }
      }
      // Gate statistic: average the duplicate arms (halving
      // per-allocation layout luck), then the relative report delta.
      double off_avg = 0.0, wal_avg = 0.0;
      for (const double off : off_reports) off_avg += off;
      for (const double wal : wal_reports) wal_avg += wal;
      off_avg /= static_cast<double>(off_reports.size());
      wal_avg /= static_cast<double>(wal_reports.size());
      const double delta_pct = 100.0 * (wal_avg - off_avg) / off_avg;
      const double off_spread_pct =
          100.0 *
          (*std::max_element(off_reports.begin(), off_reports.end()) -
           *std::min_element(off_reports.begin(), off_reports.end())) /
          *std::min_element(off_reports.begin(), off_reports.end());
      std::printf(
          "# gate: report delta of avg-of-%zu wal arms vs avg-of-%zu off "
          "arms %+.2f%%; off-vs-off spread (noise floor) %.2f%%\n",
          wal_reports.size(), off_reports.size(), delta_pct, off_spread_pct);
      std::printf("RECOVERY_GATE,%d,%.2f,%.2f\n", tenants, delta_pct,
                  off_spread_pct);
    }
  }
  if (!gate_only) RunRecoverySweep();
  return 0;
}
