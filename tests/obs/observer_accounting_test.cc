/// The observer's accounting read off a live engine. Drives
/// `shard::MakeSelector` with a `FleetObserver` and a metrics registry
/// through a short D=2 campaign (reports, cancels, one unknown, one stale
/// and one forged ticket) on both engines (N ∈ {1,2}), under HYBRID and
/// GREEDY. The registry must agree with the calls the test made:
///   - the next/report totals and each rejection counter;
///   - folds_queued == folds_executed == reports + cancels, on both
///     engines;
///   - every timing histogram counts exactly what its counter counts, and
///     no drain is ever reported or exported;
///   - a Report's coordinator + fold microseconds fit inside the test's own
///     monotonic span around the call (the split is disjoint).
/// Every hook, on both engines, must fire on the thread that drives the
/// engine: no engine starts a thread of its own.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/multi_tenant_selector.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "shard/sharded_selector.h"

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

/// Forwards every hook to a `FleetObserver` and counts the hooks that fire
/// on a thread other than `driver`.
class ThreadCheckingObserver final : public core::SelectorObserver {
 public:
  ThreadCheckingObserver(core::SelectorObserver* inner, std::thread::id driver)
      : inner_(inner), driver_(driver) {}

  void OnTenantEvent(const core::TenantObservation& obs) override {
    Check();
    inner_->OnTenantEvent(obs);
  }
  void OnTenantPlaced(int tenant, int shard) override {
    Check();
    inner_->OnTenantPlaced(tenant, shard);
  }
  void OnPlacementChanged(
      const std::vector<std::vector<int>>& shard_tenants) override {
    Check();
    inner_->OnPlacementChanged(shard_tenants);
  }
  void OnNext(bool ok, double pick_us, double arm_us) override {
    Check();
    inner_->OnNext(ok, pick_us, arm_us);
  }
  void OnReport(double coord_us) override {
    Check();
    inner_->OnReport(coord_us);
  }
  void OnTicketRejected(int code) override {
    Check();
    inner_->OnTicketRejected(code);
  }
  void OnFoldQueued(int shard) override {
    Check();
    inner_->OnFoldQueued(shard);
  }
  void OnFold(int shard, double fold_us) override {
    Check();
    inner_->OnFold(shard, fold_us);
  }
  void OnDrainWait(double wait_us) override {
    Check();
    ++drains_;
    inner_->OnDrainWait(wait_us);
  }

  int hooks() const { return hooks_; }
  int foreign_hooks() const { return foreign_hooks_; }
  int drains() const { return drains_; }

 private:
  // Plain ints: a hook on another thread would race here as well, which
  // the tsan leg reports on top of the count.
  void Check() {
    ++hooks_;
    if (std::this_thread::get_id() != driver_) ++foreign_hooks_;
  }

  core::SelectorObserver* inner_;
  const std::thread::id driver_;
  int hooks_ = 0;
  int foreign_hooks_ = 0;
  int drains_ = 0;
};

TEST_P(ObserverAccountingTest, RegistryMatchesTheCallsMade) {
  const int num_shards = std::get<0>(GetParam());
  const SchedulerKind kind = std::get<1>(GetParam());
  constexpr int kTenants = 5;
  constexpr int kModels = 4;
  constexpr int kDevices = 2;

  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.num_shards = num_shards;
  obs_options.registry = &registry;
  FleetObserver fleet(obs_options);
  ThreadCheckingObserver observer(&fleet, std::this_thread::get_id());
  core::SelectorOptions options;
  options.scheduler = kind;
  options.num_devices = kDevices;
  options.num_shards = num_shards;
  options.observer = &observer;
  auto created = shard::MakeSelector(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiTenantSelector& selector = **created;
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
      ASSERT_TRUE(selector.Cancel(a).ok());
      ++cancels;
      EXPECT_EQ(folds_executed.Value(), folds_queued.Value())
          << "Cancel in round " << round;
      continue;
    }

    const double coord0 = coord_us.SumUs();
    const double fold0 = fold_us.SumUs();
    const double t0 = MonotonicSeconds();
    ASSERT_TRUE(selector.Report(a, 0.1 + 0.8 * rng.Uniform()).ok());
    const double span_us = (MonotonicSeconds() - t0) * 1e6;
    ++reports;
    EXPECT_EQ(folds_executed.Value(), folds_queued.Value())
        << "Report in round " << round;
    // The fold samples in the window are this Report's own fold.
    const double coord = coord_us.SumUs() - coord0;
    const double fold = fold_us.SumUs() - fold0;
    EXPECT_LE(coord + fold, span_us + kSlackUs)
        << "Report in round " << round << ": coordinator " << coord
        << " + fold " << fold << " us";

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
    }
  }
  ASSERT_TRUE(in_flight.empty()) << "campaign did not run to exhaustion";
  ASSERT_TRUE(rejections_sent);
  ASSERT_GT(cancels, 0);

  EXPECT_TRUE(selector.Exhausted());

  EXPECT_EQ(next_total.Value(), static_cast<uint64_t>(nexts));
  EXPECT_EQ(next_rejected.Value(), static_cast<uint64_t>(failed_nexts));
  EXPECT_EQ(report_total.Value(), static_cast<uint64_t>(reports));
  EXPECT_EQ(unknown.Value(), 1u);
  EXPECT_EQ(stale.Value(), 1u);
  EXPECT_EQ(invalid.Value(), 1u);
  EXPECT_EQ(other.Value(), 0u);
  // Every accepted report and cancel is one fold on both engines.
  const uint64_t folds = static_cast<uint64_t>(reports + cancels);
  EXPECT_EQ(folds_queued.Value(), folds);
  EXPECT_EQ(folds_executed.Value(), folds);

  EXPECT_EQ(pick_us.Count(), next_total.Value());
  EXPECT_EQ(arm_us.Count(), next_total.Value() - next_rejected.Value());
  EXPECT_EQ(coord_us.Count(), report_total.Value());
  EXPECT_EQ(fold_us.Count(), folds_executed.Value());
  EXPECT_EQ(observer.drains(), 0);
  EXPECT_EQ(registry.ExportText().find("drain"), std::string::npos);

  // Every hook fired on this thread, the one driving the engine.
  EXPECT_GT(observer.hooks(), 0);
  EXPECT_EQ(observer.foreign_hooks(), 0);
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
