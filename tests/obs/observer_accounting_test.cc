/// The observer's accounting read off a live engine. Drives
/// `obs::MakeObservedSelector` with a metrics registry through a short D=2
/// campaign (reports, cancels, one unknown, one stale and one forged
/// ticket) on both engines (N ∈ {1,2}), under HYBRID, whose report folds
/// run inline on the caller, and GREEDY, whose report folds the 2-shard
/// engine queues on its workers. The registry must agree with the calls
/// the test made:
///   - the next/report totals and each rejection counter;
///   - folds_queued == folds_executed == reports + cancels once a
///     quiescing call returns, on both engines;
///   - every timing histogram counts exactly what its counter counts, and
///     the drain histogram counts one sample per drain;
///   - an inline-fold Report's coordinator + fold + drain microseconds fit
///     inside the test's own monotonic span around the call (the split is
///     disjoint), and a drain with nothing queued reports 0.
/// The tsan leg repeats this suite: at N=2 the shard workers fold cancels
/// and GREEDY reports while the coordinator records.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/multi_tenant_selector.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"

namespace easeml::obs {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using Assignment = MultiTenantSelector::Assignment;

// The engine and the test difference the same monotonic clock, and the
// histograms truncate samples to whole nanoseconds; the slack only absorbs
// floating-point rounding in the engine's subtraction.
constexpr double kSlackUs = 1e-3;

class ObserverAccountingTest
    : public ::testing::TestWithParam<std::tuple<int, SchedulerKind>> {};

TEST_P(ObserverAccountingTest, RegistryMatchesTheCallsMade) {
  const int num_shards = std::get<0>(GetParam());
  const SchedulerKind kind = std::get<1>(GetParam());
  constexpr int kTenants = 5;
  constexpr int kModels = 4;
  constexpr int kDevices = 2;

  core::SelectorOptions options;
  options.scheduler = kind;
  options.num_devices = kDevices;
  options.num_shards = num_shards;
  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.registry = &registry;
  auto observed = MakeObservedSelector(options, obs_options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  MultiTenantSelector& selector = *observed->selector;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(selector
                    .AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }

  const Counter& next_total = *registry.GetCounter("easeml_next_total");
  const Counter& next_rejected = *registry.GetCounter("easeml_next_rejected");
  const Counter& report_total = *registry.GetCounter("easeml_report_total");
  const Counter& unknown =
      *registry.GetCounter("easeml_report_rejected_unknown_ticket");
  const Counter& stale =
      *registry.GetCounter("easeml_report_rejected_stale_ticket");
  const Counter& invalid =
      *registry.GetCounter("easeml_report_rejected_mismatch_or_invalid");
  const Counter& other = *registry.GetCounter("easeml_report_rejected_other");
  const Counter& folds_queued = *registry.GetCounter("easeml_folds_queued");
  const Counter& folds_executed =
      *registry.GetCounter("easeml_folds_executed");
  const Histogram& pick_us = *registry.GetHistogram("easeml_next_pick_us");
  const Histogram& arm_us = *registry.GetHistogram("easeml_next_arm_us");
  const Histogram& coord_us =
      *registry.GetHistogram("easeml_report_coord_us");
  const Histogram& fold_us = *registry.GetHistogram("easeml_report_fold_us");
  const Histogram& drain_us = *registry.GetHistogram("easeml_drain_wait_us");

  // Only the 2-shard engine drains: once per Next, and once per HYBRID
  // Report before its inline fold. The base engine folds every report
  // inline; the 2-shard engine does so under HYBRID only.
  const bool sharded = num_shards > 1;
  const bool hybrid = kind == SchedulerKind::kHybrid;
  const bool inline_folds = !sharded || hybrid;
  uint64_t drains = drain_us.Count();  // the adds' drains
  int nexts = 0;
  int failed_nexts = 0;
  int reports = 0;
  int cancels = 0;
  bool rejections_sent = false;
  std::vector<Assignment> in_flight;
  Rng rng(1901);
  for (int round = 0; round < 200; ++round) {
    while (static_cast<int>(in_flight.size()) < kDevices) {
      auto a = selector.Next();
      ++nexts;
      if (sharded) ++drains;
      EXPECT_EQ(drain_us.Count(), drains) << "Next " << nexts;
      if (!a.ok()) {
        ++failed_nexts;
        break;
      }
      in_flight.push_back(*a);
    }
    if (in_flight.empty()) break;  // every arm has been played
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(in_flight.size()) - 1));
    const Assignment a = in_flight[pick];
    in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    if (round % 4 == 3) {
      // Queued on the owner's worker at N=2; the next Next drains it.
      ASSERT_TRUE(selector.Cancel(a).ok());
      ++cancels;
      EXPECT_EQ(drain_us.Count(), drains) << "Cancel in round " << round;
      continue;
    }

    const double coord0 = coord_us.SumUs();
    const double fold0 = fold_us.SumUs();
    const double drain0 = drain_us.SumUs();
    const double t0 = MonotonicSeconds();
    ASSERT_TRUE(selector.Report(a, 0.1 + 0.8 * rng.Uniform()).ok());
    const double span_us = (MonotonicSeconds() - t0) * 1e6;
    ++reports;
    if (sharded && hybrid) ++drains;
    EXPECT_EQ(drain_us.Count(), drains) << "Report in round " << round;
    const double coord = coord_us.SumUs() - coord0;
    EXPECT_LE(coord, span_us + kSlackUs) << "Report in round " << round;
    if (inline_folds) {
      // No worker is busy here (the Nexts above drained every cancel), so
      // the fold samples in the window are this Report's own fold, and its
      // drain, if any, found nothing queued.
      const double fold = fold_us.SumUs() - fold0;
      const double drain = drain_us.SumUs() - drain0;
      EXPECT_LE(coord + fold + drain, span_us + kSlackUs)
          << "Report in round " << round << ": coordinator " << coord
          << " + fold " << fold << " + drain " << drain << " us";
      EXPECT_EQ(drain, 0.0) << "Report in round " << round;
    }

    if (!rejections_sent) {
      // An unknown ticket, the ticket just reported (stale), and a live
      // ticket with a forged model.
      rejections_sent = true;
      Assignment never_issued = a;
      never_issued.id = int64_t{1} << 40;
      EXPECT_EQ(selector.Report(never_issued, 0.5).code(),
                StatusCode::kNotFound);
      EXPECT_EQ(selector.Report(a, 0.5).code(),
                StatusCode::kFailedPrecondition);
      ASSERT_FALSE(in_flight.empty());
      Assignment forged = in_flight.front();
      forged.model = (forged.model + 1) % kModels;
      EXPECT_EQ(selector.Report(forged, 0.5).code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(drain_us.Count(), drains) << "a rejection drained";
    }
  }
  ASSERT_TRUE(in_flight.empty()) << "campaign did not run to exhaustion";
  ASSERT_TRUE(rejections_sent);
  ASSERT_GT(cancels, 0);

  // Quiesce: at N=2 this drains the folds still queued on the workers.
  EXPECT_TRUE(selector.Exhausted());
  if (sharded) ++drains;

  EXPECT_EQ(next_total.Value(), static_cast<uint64_t>(nexts));
  EXPECT_EQ(next_rejected.Value(), static_cast<uint64_t>(failed_nexts));
  EXPECT_EQ(report_total.Value(), static_cast<uint64_t>(reports));
  EXPECT_EQ(unknown.Value(), 1u);
  EXPECT_EQ(stale.Value(), 1u);
  EXPECT_EQ(invalid.Value(), 1u);
  EXPECT_EQ(other.Value(), 0u);
  // Every accepted report and cancel is one fold on both engines: the
  // 2-shard engine folds a cancel on its worker, the base engine inline.
  const uint64_t folds = static_cast<uint64_t>(reports + cancels);
  EXPECT_EQ(folds_queued.Value(), folds);
  EXPECT_EQ(folds_executed.Value(), folds);

  EXPECT_EQ(pick_us.Count(), next_total.Value());
  EXPECT_EQ(arm_us.Count(), next_total.Value() - next_rejected.Value());
  EXPECT_EQ(coord_us.Count(), report_total.Value());
  EXPECT_EQ(fold_us.Count(), folds_executed.Value());
  EXPECT_EQ(drain_us.Count(), drains);
  if (!sharded) {
    EXPECT_EQ(drains, 0u);
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<int, SchedulerKind>>& info) {
  return "N" + std::to_string(std::get<0>(info.param)) + "_" +
         core::SchedulerKindName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ObserverAccountingTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(SchedulerKind::kHybrid,
                                         SchedulerKind::kGreedy)),
    ParamName);

}  // namespace
}  // namespace easeml::obs
