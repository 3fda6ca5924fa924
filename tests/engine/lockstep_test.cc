/// Every engine configuration against the scan reference, one profile at a
/// time: each test runs a named `Profile` through `RunLockstep` (see
/// harness.h for the four subjects and what is compared), for every
/// scheduler policy.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "harness.h"

namespace easeml::engine_test {
namespace {

/// Slot-filling campaigns to exhaustion at D in {1, 3}, without and with
/// tenant churn.
class ShardedConformanceTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {};

TEST_P(ShardedConformanceTest, ReplaysUnshardedBitIdentically) {
  RunLockstep(std::get<0>(GetParam()),
              DriveProfile(std::get<1>(GetParam()), /*churn=*/false,
                           /*tenants=*/13, /*models=*/5));
}

TEST_P(ShardedConformanceTest, ReplaysUnshardedUnderTenantChurn) {
  RunLockstep(std::get<0>(GetParam()),
              DriveProfile(std::get<1>(GetParam()), /*churn=*/true,
                           /*tenants=*/11, /*models=*/4));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ShardedConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<std::tuple<SchedulerKind, int>>& info) {
      return KindParamName(std::get<0>(info.param)) + "_D" +
             std::to_string(std::get<1>(info.param));
    });

/// 10k drawn ops over every op kind: Next, in- and out-of-order Report,
/// Cancel, stale/forged/unknown replays, AddTenant, RemoveTenant (valid,
/// refused in flight, out of range).
class IndexFuzzConformanceTest
    : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(IndexFuzzConformanceTest, IndexedPicksEqualScanPicksEventForEvent) {
  RunLockstep(GetParam(), IndexFuzzProfile());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, IndexFuzzConformanceTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      return KindParamName(info.param);
    });

/// Traffic the paper never ran.
class EngineLockstepTest : public ::testing::TestWithParam<SchedulerKind> {};

// One K=64 tenant beside 7 K=3 tenants and 4 added ones, run to
// exhaustion: every arm of every tenant, the 64 of the long one included,
// is reported exactly once.
TEST_P(EngineLockstepTest, HeavyTailedModelCounts) {
  LockstepSummary run;
  RunLockstep(GetParam(), HeavyTailProfile(), &run);
  EXPECT_EQ(run.reports, 64 + 7 * 3 + 4 * 3);
}

// All D=8 slots filled, then the batch reported newest first, until the
// 12 tenants of 5 models are exhausted.
TEST_P(EngineLockstepTest, DelayedReportsInReverseIssueOrder) {
  LockstepSummary run;
  RunLockstep(GetParam(), DelayedReportProfile(), &run);
  EXPECT_EQ(run.reports, 12 * 5);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, EngineLockstepTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<SchedulerKind>& info) {
      return KindParamName(info.param);
    });

/// D=8 bursts of Next with completions handed back in a seeded permuted
/// order, plus cancels and churn: picks read post-fold belief bits, so a
/// per-tenant fold out of call order shows up as a diverging pick. GREEDY
/// holds its index subjects and its scan subject in two tests; HYBRID
/// holds all four in one.
TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyIndexed) {
  RunLockstep(SchedulerKind::kGreedy, OutOfOrderProfile(), nullptr,
              Subjects::kIndexed);
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyScan) {
  RunLockstep(SchedulerKind::kGreedy, OutOfOrderProfile(), nullptr,
              Subjects::kScan);
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityHybridIndexed) {
  RunLockstep(SchedulerKind::kHybrid, OutOfOrderProfile());
}

/// HYBRID's freeze detector on the index (`OnOutcomeIndexed`) against its
/// scan (`OnOutcome`): the runner compares the policies' durable bytes
/// (switch flag, frozen-step count, candidate snapshot, summed best
/// reward, nested GREEDY/ROUNDROBIN state) after every accepted report.
/// Not vacuous: the switch fires after the first report and before the
/// last, so both phases and the switch itself are covered.
TEST(HybridFreezeParityTest, IndexedDetectorMatchesScanAfterEveryReport) {
  for (int devices : {1, 3}) {
    for (bool churn : {false, true}) {
      const Profile profile =
          DriveProfile(devices, churn, /*tenants=*/11, /*models=*/6);
      SCOPED_TRACE(profile.name + "/D=" + std::to_string(devices));
      LockstepSummary run;
      RunLockstep(SchedulerKind::kHybrid, profile, &run);
      if (HasFatalFailure()) return;
      EXPECT_GT(run.switched_at, 1) << "fired at the first report, or never";
      EXPECT_LT(run.switched_at, run.reports) << "fired at the last report";
    }
  }
}

/// The same comparison under traffic that moves many keys between two
/// outcomes: cancel storms and churn storms. Every subject is captured and
/// restored (the WAL subject through a checkpoint) after 30 reports, well
/// before the switch, so the detector's rebuild after a load is held to
/// the scan too.
TEST(HybridFreezeParityTest, IncrementalDetectorMatchesScanUnderStorms) {
  for (int devices : {1, 3}) {
    const Profile profile = StormProfile(devices);
    SCOPED_TRACE(profile.name);
    LockstepSummary run;
    RunLockstep(SchedulerKind::kHybrid, profile, &run);
    if (HasFatalFailure()) return;
    EXPECT_TRUE(run.restarted);
    EXPECT_GT(run.switched_at, profile.restart_after)
        << "switched before the restart, or never";
    EXPECT_LT(run.switched_at, run.reports) << "fired at the last report";
  }
}

}  // namespace
}  // namespace easeml::engine_test
