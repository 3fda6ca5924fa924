/// Analytics/serving interference: does a continuous full-fleet scan
/// through the snapshot plane perturb the Next()/Report() hot path?
///
/// The point of src/obs is that an analytics reader never touches the
/// selector lock: shard workers publish immutable copy-on-write summary
/// blocks at fold boundaries, and a scan walks the last published blocks.
/// This bench quantifies both halves of that claim at T up to 1e5 tenants
/// (GREEDY + candidate index, num_shards = 1, the serving configuration
/// next_latency sweeps):
///
///   arm "off"       observer unset — the PR8 baseline serving path.
///   arm "obs"       FleetObserver attached (snapshot plane + full metric
///                   registry), nobody reading — the cost of publication.
///   arm "obs+scan"  same, plus a scanner thread looping full-fleet
///                   Snapshot() walks for the whole measured window.
///
/// The acceptance gate compares "obs" vs "obs+scan": a continuous scan must
/// not SLOW next_us_mean / report_us_mean by 5% or more (scripts/bench.sh
/// computes the deltas). The gate is one-sided because the scan arm often
/// runs slightly faster: a scanner holding a snapshot keeps the previous
/// blocks alive across a publish, so their destruction migrates off the
/// publishing driver thread onto the scanner — an offload, not
/// interference. Timing is the single-core bench protocol — per-call
/// CLOCK_THREAD_CPUTIME_ID on the driving thread, which charges the driver
/// nothing for scanner CPU, so the gate measures interference (cache
/// pressure, publication-side contention), not core sharing.
///
/// Machine-readable rows for scripts/bench.sh:
///   ANALYTICS_IF,<tenants>,<arm>,<next_us_mean>,<report_us_mean>,<scans>,<scan_ms_mean>,<fleet_epoch>
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "shard/sharded_selector.h"

namespace {

using easeml::MonotonicSeconds;
using easeml::ThreadCpuSeconds;
using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;

constexpr int kModels = 6;
// Longer windows than next_latency's 200, and kReps interleaved measurement
// windows per arm (off, obs, obs+scan, off, obs, ...): the <5%
// obs-vs-obs+scan gate needs per-call means stable against scheduler jitter
// and slow frequency/thermal drift on the one-core container — interleaving
// spreads the drift evenly across the arms instead of biasing whichever ran
// last. Each arm's campaign is built ONCE and all its windows run on that
// live selector (every arm advances the same number of steps per rep, so
// belief states stay step-for-step comparable); rebuilding the 1e5-tenant
// fleet per rep would spend ~98% of the runtime on setup and starve the
// median of reps. Two further robustness layers, both standard for sub-10µs
// gates on a shared vCPU: within a rep the per-call mean drops the top
// kTrimPercent of samples (preemption and cache-refill spikes land on
// whichever call resumes first, uncorrelated with the arm), and across reps
// the reported value is the MEDIAN of the per-rep means, so one descheduled
// rep cannot drag an arm past the gate.
constexpr int kMeasureSteps = 5000;  // per window; capped at T/kReps in main
constexpr int kReps = 9;
constexpr int kTrimPercent = 2;
// Scanner cadence: one full-fleet walk every 5ms — 200 scans/s, orders of
// magnitude beyond any dashboard refresh (easeml_top defaults to 500ms),
// yet still a *paced* reader. A hot-spinning scanner on this one-core
// container would measure core sharing (preemption + cache refill charged
// to whichever call resumes first), not plane interference; pacing keeps
// the bench about the design claim — readers share no lock with serving.
// At the gated T=1e5 the measured window spans many scan periods (5000
// calls at a few µs each ≈ 7+ full scan cycles per rep), so each rep's
// mean is a steady-state average over the scanner's duty cycle, not a
// lucky or unlucky phase of it.
constexpr int kScanPeriodMs = 5;

/// Deterministic ground-truth accuracy in (0, 1) via an integer hash.
double Accuracy(int tenant, int model) {
  const uint64_t x = easeml::SplitMix64(static_cast<uint64_t>(tenant) *
                                            1000003u +
                                        static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

/// Mean of `samples` after dropping the top kTrimPercent (in place sort).
double TrimmedMean(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  const size_t keep =
      samples->size() - samples->size() * kTrimPercent / 100;
  double sum = 0.0;
  for (size_t i = 0; i < keep; ++i) sum += (*samples)[i];
  return keep == 0 ? 0.0 : sum / static_cast<double>(keep);
}

/// Median of the per-rep values in `v` (in place sort).
double Median(std::vector<double>* v) {
  std::sort(v->begin(), v->end());
  const size_t n = v->size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? (*v)[n / 2] : 0.5 * ((*v)[n / 2 - 1] + (*v)[n / 2]);
}

enum class Arm { kOff, kObs, kObsScan };

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kOff:
      return "off";
    case Arm::kObs:
      return "obs";
    case Arm::kObsScan:
      return "obs+scan";
  }
  return "?";
}

struct Cell {
  double next_us = 0.0;     // mean driver thread-CPU microseconds per Next()
  double report_us = 0.0;   // ... per Report()
  int64_t scans = 0;        // full-fleet walks completed during the window
  double scan_ms = 0.0;     // mean scanner thread-CPU milliseconds per walk
  uint64_t fleet_epoch = 0; // final published epoch (0 for arm "off")
};

/// Full-fleet walk: touch every published observation (sum a few fields so
/// the reads cannot be optimized away) and return the walked entry count.
int64_t ScanOnce(const easeml::obs::SnapshotPlane& plane, double* sink) {
  const easeml::obs::FleetSnapshot snap = plane.Snapshot();
  int64_t walked = 0;
  double acc = 0.0;
  snap.ForEachTenant(
      [&walked, &acc](int shard, const easeml::core::TenantObservation& o) {
        (void)shard;
        ++walked;
        acc += o.best_reward + static_cast<double>(o.rounds_served);
      });
  *sink += acc;
  return walked;
}

/// One arm's long-lived campaign state: the selector (with its observer for
/// the obs arms) is built and initialization-swept once, then every
/// measurement rep runs a window on it.
struct ArmState {
  Arm arm = Arm::kOff;
  std::unique_ptr<easeml::obs::Registry> registry;
  std::unique_ptr<easeml::obs::FleetObserver> observer;
  std::unique_ptr<MultiTenantSelector> selector;
};

ArmState MakeArm(int tenants, Arm arm) {
  ArmState state;
  state.arm = arm;
  SelectorOptions options;
  options.scheduler = SchedulerKind::kGreedy;
  options.cost_aware = true;
  options.num_devices = 1;
  options.num_shards = 1;  // the serving configuration next_latency sweeps

  if (arm != Arm::kOff) {
    state.registry = std::make_unique<easeml::obs::Registry>();
    easeml::obs::FleetObserverOptions obs_options;
    obs_options.num_shards = 1;
    obs_options.registry = state.registry.get();
    state.observer = std::make_unique<easeml::obs::FleetObserver>(obs_options);
    options.observer = state.observer.get();
  }
  auto created = easeml::shard::MakeSelector(options);
  EASEML_CHECK(created.ok()) << created.status().ToString();
  state.selector = std::move(*created);

  auto prior = easeml::gp::MakeSharedGpPrior(
      easeml::linalg::Matrix::Identity(kModels), 1e-2);
  EASEML_CHECK(prior.ok()) << prior.status().ToString();
  for (int t = 0; t < tenants; ++t) {
    std::vector<double> costs;
    for (int m = 0; m < kModels; ++m) {
      costs.push_back(1.0 + 0.25 * ((t + m) % kModels));
    }
    EASEML_CHECK(state.selector->AddTenant(*prior, costs).ok());
  }
  // Initialization sweep (unmeasured): serve every tenant once so the
  // measured windows run in the regular GREEDY regime.
  for (int t = 0; t < tenants; ++t) {
    auto a = state.selector->Next();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(
        state.selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
  }
  return state;
}

/// One measured window of `steps` Next+Report pairs on an arm's live
/// campaign. The scanner (obs+scan arm only) covers the whole window:
/// started before the first timed step, stopped after the last.
Cell MeasureWindow(ArmState& state, int steps) {
  MultiTenantSelector* selector = state.selector.get();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> scans{0};
  std::atomic<int64_t> walked_total{0};
  double scan_cpu_seconds = 0.0;
  std::thread scanner;
  if (state.arm == Arm::kObsScan) {
    easeml::obs::SnapshotPlane* plane = &state.observer->plane();
    scanner = std::thread([&, plane] {
      double sink = 0.0;
      const double c0 = ThreadCpuSeconds();
      while (!stop.load(std::memory_order_relaxed)) {
        walked_total.fetch_add(ScanOnce(*plane, &sink),
                               std::memory_order_relaxed);
        scans.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(kScanPeriodMs));
      }
      scan_cpu_seconds = ThreadCpuSeconds() - c0;
      // Keep the accumulated sink observable so the walk reads survive -O2.
      if (sink == 0.25) std::fprintf(stderr, "sink %f\n", sink);
    });
  }

  std::vector<double> next_samples, report_samples;
  next_samples.reserve(static_cast<size_t>(steps));
  report_samples.reserve(static_cast<size_t>(steps));
  for (int step = 0; step < steps; ++step) {
    const double t0 = ThreadCpuSeconds();
    auto a = selector->Next();
    const double t1 = ThreadCpuSeconds();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
    const double t2 = ThreadCpuSeconds();
    next_samples.push_back((t1 - t0) * 1e6);
    report_samples.push_back((t2 - t1) * 1e6);
  }
  Cell cell;
  cell.next_us = TrimmedMean(&next_samples);
  cell.report_us = TrimmedMean(&report_samples);

  if (state.arm == Arm::kObsScan) {
    stop.store(true, std::memory_order_relaxed);
    scanner.join();
    cell.scans = scans.load(std::memory_order_relaxed);
    cell.scan_ms =
        cell.scans == 0 ? 0.0 : scan_cpu_seconds * 1e3 / cell.scans;
  }
  return cell;
}

}  // namespace

int main() {
  std::printf("analytics_interference: full-fleet snapshot scans vs the "
              "serving hot path (GREEDY + index, 1 shard, %d measured "
              "steps)\n\n",
              kMeasureSteps);
  std::printf("%8s %9s %12s %14s %8s %12s %12s\n", "tenants", "arm",
              "next_us_mean", "report_us_mean", "scans", "scan_ms_mean",
              "fleet_epoch");
  constexpr Arm kArms[] = {Arm::kOff, Arm::kObs, Arm::kObsScan};
  for (int tenants : {10000, 100000}) {
    ArmState arms[3];
    for (int i = 0; i < 3; ++i) arms[i] = MakeArm(tenants, kArms[i]);
    // Cap the TOTAL measured steps per arm at one extra round per tenant:
    // GREEDY's per-Next cost is regime-dependent, and driving a small fleet
    // several rounds past the init sweep leaves the early-serving regime
    // next_latency sweeps (at T=1e4, Next climbs two orders of magnitude
    // once tenants pass ~2.5 rounds — a deep-campaign engine behavior, not
    // what this bench compares arms over).
    const int steps = std::min(kMeasureSteps, tenants / kReps);
    Cell total[3];
    std::vector<double> next_reps[3], report_reps[3];
    for (int rep = 0; rep < kReps; ++rep) {
      for (int i = 0; i < 3; ++i) {
        const Cell cell = MeasureWindow(arms[i], steps);
        next_reps[i].push_back(cell.next_us);
        report_reps[i].push_back(cell.report_us);
        total[i].scans += cell.scans;
        total[i].scan_ms += cell.scan_ms / kReps;
      }
    }
    for (int i = 0; i < 3; ++i) {
      if (arms[i].observer != nullptr) {
        // Engine idle (every fold ran on the caller): flush publishes
        // every remaining event.
        arms[i].observer->plane().FlushAll();
        total[i].fleet_epoch = arms[i].observer->plane().Snapshot().epoch();
      }
    }
    for (int i = 0; i < 3; ++i) {
      Cell& cell = total[i];
      cell.next_us = Median(&next_reps[i]);
      cell.report_us = Median(&report_reps[i]);
      std::printf("%8d %9s %12.3f %14.3f %8lld %12.3f %12llu\n", tenants,
                  ArmName(kArms[i]), cell.next_us, cell.report_us,
                  static_cast<long long>(cell.scans), cell.scan_ms,
                  static_cast<unsigned long long>(cell.fleet_epoch));
      std::printf("ANALYTICS_IF,%d,%s,%.3f,%.3f,%lld,%.3f,%llu\n", tenants,
                  ArmName(kArms[i]), cell.next_us, cell.report_us,
                  static_cast<long long>(cell.scans), cell.scan_ms,
                  static_cast<unsigned long long>(cell.fleet_epoch));
    }
  }
  return 0;
}
