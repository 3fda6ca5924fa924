/// Next() critical-path latency: O(T) scan vs incremental candidate index.
///
/// The serving hot path of the selector is the per-`Next()` user-picking
/// cost. The scan engines rescan all T tenants (GREEDY additionally reads
/// the batched MaxUcb diagnostics of every candidate) even though a Report
/// changes one tenant's summary; the candidate index replays one O(log T)
/// leaf path per event and answers the pick from its root. This
/// bench sweeps T with BOTH engines on identical campaigns (the traces are
/// bit-identical — pinned by the index/scan conformance suite) and reports
/// the per-call cost of `Next()` and `Report()` separately, because the
/// index deliberately moves work to the report path (the leaf refresh).
///
/// Timing follows the single-core bench protocol: CLOCK_THREAD_CPUTIME_ID
/// around each call on the driving thread (both engines run entirely on
/// it) — thread CPU clocks are not inflated by host oversubscription,
/// unlike wall time on a shared host.
///
/// A second section measures report throughput: the engine folds every
/// completion on the calling thread under its lock. Each burst fills all
/// D device slots, then hands the D completions back. `wall_us_mean` is
/// the wall time per completion from the start of the burst until its
/// last fold is applied (the last `Report` returns), for D in {1, 2, 4,
/// 8}. The shard count is not swept: with no observer attached it reaches
/// nothing on this path. The section is informational: it shows what the
/// device count costs the report path, and no gate reads it.
///
/// A third section times HYBRID's `Report()`, the paper's default policy.
/// After every outcome HYBRID's freeze detector tests whether the line-7
/// candidate set and the summed best reward changed: the scan engine runs
/// the reference `OnOutcome`, which rebuilds the set with one exact
/// `CompareScaled` per tenant; the index engine runs `OnOutcomeIndexed`,
/// which computes one exact mean cut of the index's running sum and then
/// re-reads only the tenants the index logged as changed, plus those whose
/// bound lies between the previous cut and this one. Same thread-CPU
/// protocol as the first section. Once the detector has fired, scheduling
/// is round-robin and the detector is off, so each row says whether it had
/// fired by the end of the measured steps. T=1e5 runs the index arm only:
/// the scan arm's initialization sweep (T reports, each an O(T) rebuild)
/// would take hours there, and its T=1e4 sweep already dominates this
/// section's runtime.
///
/// Machine-readable rows for scripts/bench.sh:
///   NEXT_LATENCY,<tenants>,<engine>,<next_us_mean>,<report_us_mean>
///   REPORT_TP,<tenants>,<devices>,<reports>,<wall_us_mean>
///   HYBRID_REPORT,<tenants>,<engine>,<report_us_mean>,<switched>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "gp/shared_prior_gp.h"
#include "linalg/matrix.h"
#include "scheduler/hybrid.h"
#include "shard/sharded_selector.h"

namespace {

using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;

constexpr int kModels = 6;
constexpr int kMeasureSteps = 200;

using easeml::ThreadCpuSeconds;

/// Deterministic ground-truth accuracy in (0, 1) via an integer hash.
double Accuracy(int tenant, int model) {
  const uint64_t x = easeml::SplitMix64(static_cast<uint64_t>(tenant) *
                                            1000003u +
                                        static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

struct Cell {
  double next_us = 0.0;    // mean thread-CPU microseconds per Next()
  double report_us = 0.0;  // mean thread-CPU microseconds per Report()
};

struct HybridCell {
  double report_us = 0.0;  // mean thread-CPU microseconds per Report()
  bool switched = false;   // freeze detector fired by the last step
};

/// The GREEDY campaign of the first section, or (`kind` = HYBRID) the
/// same campaign under the paper's default policy.
std::unique_ptr<MultiTenantSelector> StartCampaign(SchedulerKind kind,
                                                   int tenants,
                                                   bool use_index) {
  SelectorOptions options;
  options.scheduler = kind;
  options.cost_aware = true;
  options.num_devices = 1;
  options.use_candidate_index = use_index;
  auto created = easeml::shard::MakeSelector(options);
  EASEML_CHECK(created.ok()) << created.status().ToString();
  std::unique_ptr<MultiTenantSelector> selector = std::move(created).value();

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

  // Initialization sweep (Algorithm 2 lines 1-4): serve every tenant once
  // so measurement happens in the regular GREEDY regime.
  for (int t = 0; t < tenants; ++t) {
    auto a = selector->Next();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
  }
  return selector;
}

Cell RunCampaign(int tenants, bool use_index) {
  const std::unique_ptr<MultiTenantSelector> selector =
      StartCampaign(SchedulerKind::kGreedy, tenants, use_index);

  // Steady state: K-1 arms per tenant remain, far more than kMeasureSteps.
  Cell cell;
  for (int step = 0; step < kMeasureSteps; ++step) {
    const double t0 = ThreadCpuSeconds();
    auto a = selector->Next();
    const double t1 = ThreadCpuSeconds();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
    const double t2 = ThreadCpuSeconds();
    cell.next_us += (t1 - t0) * 1e6;
    cell.report_us += (t2 - t1) * 1e6;
  }
  cell.next_us /= kMeasureSteps;
  cell.report_us /= kMeasureSteps;
  return cell;
}

HybridCell RunHybridReport(int tenants, bool use_index) {
  const std::unique_ptr<MultiTenantSelector> selector =
      StartCampaign(SchedulerKind::kHybrid, tenants, use_index);
  HybridCell cell;
  for (int step = 0; step < kMeasureSteps; ++step) {
    auto a = selector->Next();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    const double t0 = ThreadCpuSeconds();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
    cell.report_us += (ThreadCpuSeconds() - t0) * 1e6;
  }
  cell.report_us /= kMeasureSteps;
  cell.switched = dynamic_cast<const easeml::scheduler::HybridScheduler&>(
                      selector->scheduler_policy())
                      .switched();
  return cell;
}

struct TpCell {
  int reports = 0;
  double wall_us = 0.0;  // wall per report, burst start to its last fold
};

/// One report-throughput campaign: D device slots, GREEDY + candidate
/// index (Report carries the leaf refresh). The campaign alternates
/// slot-filling Next() bursts with timed Report() bursts.
TpCell RunReportThroughput(int tenants, int devices) {
  SelectorOptions options;
  options.scheduler = SchedulerKind::kGreedy;
  options.cost_aware = true;
  options.num_devices = devices;
  auto created = easeml::shard::MakeSelector(options);
  EASEML_CHECK(created.ok()) << created.status().ToString();
  const std::unique_ptr<MultiTenantSelector> selector =
      std::move(created).value();

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
  // Initialization sweep, unmeasured.
  for (int t = 0; t < tenants; ++t) {
    auto a = selector->Next();
    EASEML_CHECK(a.ok()) << a.status().ToString();
    EASEML_CHECK(selector->Report(*a, Accuracy(a->tenant, a->model)).ok());
  }

  TpCell cell;
  std::vector<MultiTenantSelector::Assignment> batch;
  while (true) {
    batch.clear();
    while (static_cast<int>(batch.size()) < devices) {
      auto a = selector->Next();
      if (!a.ok()) break;  // slots full / everything in flight / exhausted
      batch.push_back(*a);
    }
    if (batch.empty()) break;
    // Every fold runs inside its Report() call, so the burst is fully
    // folded when the loop ends.
    const double wall0 = easeml::MonotonicSeconds();
    for (const auto& a : batch) {
      EASEML_CHECK(selector->Report(a, Accuracy(a.tenant, a.model)).ok());
    }
    cell.wall_us += (easeml::MonotonicSeconds() - wall0) * 1e6;
    cell.reports += static_cast<int>(batch.size());
  }
  EASEML_CHECK(cell.reports > 0);
  cell.wall_us /= cell.reports;
  return cell;
}

}  // namespace

int main() {
  std::printf(
      "# Next() critical path: scan vs candidate index (GREEDY, K=%d, D=1, "
      "shared prior, %d steady-state steps, thread-CPU clocks)\n",
      kModels, kMeasureSteps);
  std::printf("%8s %7s | %14s %14s | %13s\n", "tenants", "engine",
              "next_us_mean", "report_us_mean", "next_speedup");
  for (int tenants : {1000, 10000, 100000}) {
    Cell scan;
    for (const bool use_index : {false, true}) {
      const Cell cell = RunCampaign(tenants, use_index);
      if (!use_index) scan = cell;
      std::printf("%8d %7s | %14.3f %14.3f | %12.2fx\n", tenants,
                  use_index ? "index" : "scan", cell.next_us, cell.report_us,
                  use_index ? scan.next_us / cell.next_us : 1.0);
      std::printf("NEXT_LATENCY,%d,%s,%.3f,%.3f\n", tenants,
                  use_index ? "index" : "scan", cell.next_us, cell.report_us);
    }
  }

  std::printf(
      "\n# HYBRID Report(): freeze detector scan (OnOutcome) vs index "
      "(OnOutcomeIndexed) (K=%d, D=1, %d steady-state steps, thread-CPU "
      "clocks)\n",
      kModels, kMeasureSteps);
  std::printf("%8s %7s | %14s %9s\n", "tenants", "engine", "report_us_mean",
              "switched");
  for (int tenants : {1000, 10000, 100000}) {
    for (const bool use_index : {false, true}) {
      if (tenants > 10000 && !use_index) continue;  // see the file comment
      const HybridCell cell = RunHybridReport(tenants, use_index);
      const char* engine = use_index ? "index" : "scan";
      std::printf("%8d %7s | %14.3f %9d\n", tenants, engine, cell.report_us,
                  cell.switched ? 1 : 0);
      std::printf("HYBRID_REPORT,%d,%s,%.3f,%d\n", tenants, engine,
                  cell.report_us, cell.switched ? 1 : 0);
    }
  }

  constexpr int kTpTenants = 240;
  std::printf(
      "\n# Report throughput: every fold on the calling thread (GREEDY+index, "
      "T=%d, K=%d; wall_us_mean = wall per completion, burst start to its "
      "last fold)\n",
      kTpTenants, kModels);
  std::printf("%8s | %12s\n", "devices", "wall_us_mean");
  for (const int devices : {1, 2, 4, 8}) {
    const TpCell cell = RunReportThroughput(kTpTenants, devices);
    std::printf("%8d | %12.3f\n", devices, cell.wall_us);
    std::printf("REPORT_TP,%d,%d,%d,%.3f\n", kTpTenants, devices,
                cell.reports, cell.wall_us);
  }
  return 0;
}
