/// Stress and parity battery for the engine's report path at N shards,
/// where every `Report`/`Cancel` validates its ticket and folds on the
/// calling thread under the engine lock.
///
/// Three angles:
///
///  1. TSan-raced batteries: D concurrent reporters across N in {1,2,4,7}
///     shards with interleaved Cancel/RemoveTenant churn and raced
///     ValidateIndex()/ShardCpuSeconds() sweeps — once on GREEDY and once
///     on HYBRID, whose outcome hook reads the index change log.
///  2. Run-to-exhaustion parity: a raced campaign must land on exactly the
///     sequential engine's final per-tenant state (bit-equal BestAccuracy,
///     same BestModel/RoundsServed) — the completion set is
///     interleaving-invariant at exhaustion.
///  3. Deterministic lockstep parity: a single-threaded driver replays the
///     SAME out-of-order completion schedule (D=8 permuted reports,
///     cancels, tenant churn) against the sharded and the sequential
///     engine and compares every event — picks, tickets, refusal Status
///     text, periodic per-tenant state. Picks depend on belief BITS, so
///     this pins the sharded engine's per-tenant fold order to the
///     sequential engine's.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "shard/sharded_selector.h"

namespace easeml::shard {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;
using Assignment = MultiTenantSelector::Assignment;

/// Deterministic ground-truth accuracy in (0, 1): an integer hash, NOT
/// libm transcendentals, so every thread and engine computes identical
/// bits (same helper as the conformance suite).
double Accuracy(int tenant, int model) {
  const uint64_t x = SplitMix64(static_cast<uint64_t>(tenant) * 1000003u +
                                static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

std::vector<double> Costs(int tenant, int models) {
  std::vector<double> costs;
  for (int m = 0; m < models; ++m) {
    costs.push_back(1.0 + 0.25 * ((tenant + m) % models));
  }
  return costs;
}

Result<std::unique_ptr<MultiTenantSelector>> MakeSharded(
    SchedulerKind kind, int shards, int devices, int tenants, int models) {
  SelectorOptions options;
  options.scheduler = kind;
  options.hybrid_patience = 3;
  options.num_devices = devices;
  options.num_shards = shards;
  auto created = MakeSelector(options);
  if (!created.ok()) return created.status();
  for (int t = 0; t < tenants; ++t) {
    auto id = (*created)->AddTenantWithDefaultPrior(models, Costs(t, models));
    if (!id.ok()) return id.status();
  }
  return created;
}

/// Angle 1: the raced battery. Reporters keep their own outstanding lists
/// and fire Report/Cancel (plus duplicate-report probes and raced reads of
/// the locked accessors) while a churn thread removes/adds tenants and
/// sweeps ValidateIndex against live traffic.
void RunRacedReportBattery(SchedulerKind kind, int shards) {
  constexpr int kTenants = 20;
  constexpr int kModels = 6;
  constexpr int kDevices = 8;
  constexpr int kReporters = 3;
  constexpr int kOpsPerReporter = 250;

  auto created = MakeSharded(kind, shards, kDevices, kTenants, kModels);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiTenantSelector* selector = created->get();

  std::atomic<int> reported{0};
  std::atomic<bool> failed{false};

  auto reporter = [&](int thread_id) {
    Rng rng(7000 + static_cast<uint64_t>(thread_id));
    std::vector<Assignment> mine;
    for (int op = 0; op < kOpsPerReporter && !failed.load(); ++op) {
      const int dice = rng.UniformInt(0, 9);
      if (mine.empty() || dice < 4) {
        auto a = selector->Next();
        if (a.ok()) {
          mine.push_back(*a);
        } else if (a.status().code() != StatusCode::kFailedPrecondition) {
          ADD_FAILURE() << "Next: " << a.status().ToString();
          failed = true;
        }
      } else {
        const int pick = rng.UniformInt(0, static_cast<int>(mine.size()) - 1);
        const Assignment a = mine[pick];
        mine.erase(mine.begin() + pick);
        const Status st = dice == 9
                              ? selector->Cancel(a)
                              : selector->Report(a, Accuracy(a.tenant, a.model));
        if (st.ok()) {
          if (dice != 9) ++reported;
        } else {
          ADD_FAILURE() << "Report/Cancel: " << st.ToString();
          failed = true;
        }
        // The ticket is retired before Report returns, so the duplicate
        // taxonomy must hold IMMEDIATELY.
        const Status dup = selector->Report(a, 0.5);
        if (dup.ok() || (dup.code() != StatusCode::kFailedPrecondition &&
                         dup.code() != StatusCode::kInvalidArgument)) {
          ADD_FAILURE() << "duplicate report accepted: " << dup.ToString();
          failed = true;
        }
      }
      if (dice == 5) {
        // Raced reads mid-traffic: BestAccuracy takes the selector lock,
        // and ShardCpuSeconds keeps one entry per shard.
        const int t = rng.UniformInt(0, selector->num_tenants() - 1);
        auto acc = selector->BestAccuracy(t);
        if (acc.ok() && (*acc < 0.0 || *acc >= 1.0)) {
          ADD_FAILURE() << "BestAccuracy out of range: " << *acc;
          failed = true;
        }
        if (selector->ShardCpuSeconds().size() !=
            static_cast<size_t>(shards)) {
          ADD_FAILURE() << "ShardCpuSeconds: wrong arity";
          failed = true;
        }
      }
    }
    for (const Assignment& a : mine) selector->Cancel(a);
  };

  std::atomic<bool> stop_churn{false};
  auto churn = [&]() {
    // Hold off the first removal until a client has reported: otherwise
    // this loop can retire the whole fleet before any client's first
    // Next(), which then refuses correctly and leaves `reported` at 0.
    while (reported.load() == 0 && !stop_churn.load()) {
      std::this_thread::yield();
    }
    Rng rng(999);
    int added = 0;
    while (!stop_churn.load()) {
      const int tenant = rng.UniformInt(0, selector->num_tenants() - 1);
      const Status st = selector->RemoveTenant(tenant);
      if (!st.ok() && st.code() != StatusCode::kFailedPrecondition &&
          st.code() != StatusCode::kOutOfRange) {
        ADD_FAILURE() << "RemoveTenant: " << st.ToString();
        failed = true;
      }
      if (rng.UniformInt(0, 15) == 0) {
        const Status valid = selector->ValidateIndex();
        if (!valid.ok()) {
          ADD_FAILURE() << "ValidateIndex: " << valid.ToString();
          failed = true;
        }
      }
      if (added < 6 && rng.UniformInt(0, 2) == 0) {
        auto id = selector->AddTenantWithDefaultPrior(
            kModels, std::vector<double>(kModels, 1.0));
        if (id.ok()) {
          ++added;
        } else {
          ADD_FAILURE() << "AddTenant: " << id.status().ToString();
          failed = true;
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(churn);
  for (int c = 0; c < kReporters; ++c) threads.emplace_back(reporter, c);
  for (size_t i = 1; i < threads.size(); ++i) threads[i].join();
  stop_churn = true;
  threads[0].join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(selector->num_in_flight(), 0);
  EXPECT_GT(reported.load(), 0);
  // Conservation: every reported completion folded into exactly one
  // tenant's round count.
  int rounds = 0;
  for (int t = 0; t < selector->num_tenants(); ++t) {
    auto served = selector->RoundsServed(t);
    ASSERT_TRUE(served.ok());
    rounds += *served;
  }
  EXPECT_EQ(rounds, reported.load());
  const Status valid = selector->ValidateIndex();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(ReportPipelineStressTest, RacedReportersAsyncGreedy) {
  for (int shards : {1, 2, 4, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunRacedReportBattery(SchedulerKind::kGreedy, shards);
  }
}

TEST(ReportPipelineStressTest, RacedReportersDrainingHybrid) {
  for (int shards : {1, 2, 4, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunRacedReportBattery(SchedulerKind::kHybrid, shards);
  }
}

/// Angle 2: whatever the thread interleaving, a raced campaign driven to
/// exhaustion folds the SAME completion set as the sequential engine —
/// final per-tenant state must match it bit for bit.
TEST(ReportPipelineStressTest, RacedExhaustionMatchesSequentialEngine) {
  constexpr int kTenants = 12;
  constexpr int kModels = 5;
  constexpr int kDevices = 8;
  constexpr int kReporters = 4;

  for (int shards : {2, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto created =
        MakeSharded(SchedulerKind::kGreedy, shards, kDevices, kTenants, kModels);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    MultiTenantSelector* sharded = created->get();

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int r = 0; r < kReporters; ++r) {
      threads.emplace_back([&] {
        while (!sharded->Exhausted() && !failed.load()) {
          auto a = sharded->Next();
          if (!a.ok()) {
            if (a.status().code() != StatusCode::kFailedPrecondition) {
              ADD_FAILURE() << "Next: " << a.status().ToString();
              failed = true;
            }
            std::this_thread::yield();
            continue;
          }
          const Status st = sharded->Report(*a, Accuracy(a->tenant, a->model));
          if (!st.ok()) {
            ADD_FAILURE() << "Report: " << st.ToString();
            failed = true;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    EXPECT_EQ(sharded->num_in_flight(), 0);

    // Sequential reference: same tenants, same ground truth, D=1.
    SelectorOptions ref_options;
    ref_options.scheduler = SchedulerKind::kGreedy;
    auto ref = MultiTenantSelector::Create(ref_options);
    ASSERT_TRUE(ref.ok());
    for (int t = 0; t < kTenants; ++t) {
      ASSERT_TRUE(
          ref->AddTenantWithDefaultPrior(kModels, Costs(t, kModels)).ok());
    }
    while (!ref->Exhausted()) {
      auto a = ref->Next();
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(ref->Report(*a, Accuracy(a->tenant, a->model)).ok());
    }

    for (int t = 0; t < kTenants; ++t) {
      SCOPED_TRACE("tenant=" + std::to_string(t));
      EXPECT_EQ(sharded->RoundsServed(t).value(), ref->RoundsServed(t).value());
      EXPECT_EQ(sharded->BestModel(t).value(), ref->BestModel(t).value());
      // Bit-equal doubles: the best reward is a comparison over the same
      // hash-accuracy set, no arithmetic.
      EXPECT_EQ(sharded->BestAccuracy(t).value(), ref->BestAccuracy(t).value());
    }
    EXPECT_TRUE(sharded->ValidateIndex().ok());
  }
}

/// Angle 3: deterministic lockstep driver. Both engines see the identical
/// op schedule — slot-filling Next bursts, then completions handed back in
/// a seeded PERMUTED order (with cancels and tenant churn) — and must
/// agree on every event. Sharded picks read post-fold belief bits, so any
/// deviation in per-tenant fold order shows up as a diverging pick.
void RunOutOfOrderLockstep(SchedulerKind kind, int shards, bool use_index) {
  constexpr int kTenants = 9;
  constexpr int kModels = 5;
  constexpr int kDevices = 8;
  constexpr int kOps = 700;

  SelectorOptions options;
  options.scheduler = kind;
  options.hybrid_patience = 3;
  options.num_devices = kDevices;
  options.use_candidate_index = use_index;
  auto ref = MultiTenantSelector::Create(options);
  ASSERT_TRUE(ref.ok());
  options.num_shards = shards;
  auto sharded = MakeSelector(options);
  ASSERT_TRUE(sharded.ok());
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        ref->AddTenantWithDefaultPrior(kModels, Costs(t, kModels)).ok());
    ASSERT_TRUE((*sharded)
                    ->AddTenantWithDefaultPrior(kModels, Costs(t, kModels))
                    .ok());
  }

  Rng rng(4242);
  std::vector<Assignment> open_ref;
  std::vector<Assignment> open_sharded;
  int added = 0;
  for (int op = 0; op < kOps; ++op) {
    const int dice = rng.UniformInt(0, 19);
    if (open_ref.empty() || dice < 8) {
      auto a = ref->Next();
      auto b = (*sharded)->Next();
      ASSERT_EQ(a.ok(), b.ok()) << "op " << op << ": "
                                << a.status().ToString() << " vs "
                                << b.status().ToString();
      if (a.ok()) {
        ASSERT_EQ(a->tenant, b->tenant) << "op " << op;
        ASSERT_EQ(a->model, b->model) << "op " << op;
        ASSERT_EQ(a->id, b->id) << "op " << op;
        open_ref.push_back(*a);
        open_sharded.push_back(*b);
      } else {
        // Refusals must match by TEXT, not just code.
        ASSERT_EQ(a.status().ToString(), b.status().ToString());
      }
    } else if (dice < 17) {
      // Out-of-order completion: hand back a seeded-random outstanding
      // ticket — the same index in both engines' (identical) lists.
      const int pick =
          rng.UniformInt(0, static_cast<int>(open_ref.size()) - 1);
      const Assignment a = open_ref[pick];
      const Assignment b = open_sharded[pick];
      open_ref.erase(open_ref.begin() + pick);
      open_sharded.erase(open_sharded.begin() + pick);
      if (dice == 16) {
        ASSERT_EQ(ref->Cancel(a).ToString(),
                  (*sharded)->Cancel(b).ToString());
      } else {
        const double acc = Accuracy(a.tenant, a.model);
        ASSERT_EQ(ref->Report(a, acc).ToString(),
                  (*sharded)->Report(b, acc).ToString());
      }
    } else {
      const int tenant = rng.UniformInt(0, ref->num_tenants() - 1);
      ASSERT_EQ(ref->RemoveTenant(tenant).ToString(),
                (*sharded)->RemoveTenant(tenant).ToString());
      if (added < 4 && rng.UniformInt(0, 1) == 0) {
        const int t = kTenants + added++;
        auto ida =
            ref->AddTenantWithDefaultPrior(kModels, Costs(t, kModels));
        auto idb =
            (*sharded)->AddTenantWithDefaultPrior(kModels, Costs(t, kModels));
        ASSERT_TRUE(ida.ok() && idb.ok());
        ASSERT_EQ(*ida, *idb);
      }
    }
    if (op % 97 == 0) {
      for (int t = 0; t < ref->num_tenants(); ++t) {
        ASSERT_EQ(ref->RoundsServed(t).value(),
                  (*sharded)->RoundsServed(t).value());
        ASSERT_EQ(ref->BestAccuracy(t).value(),
                  (*sharded)->BestAccuracy(t).value());
      }
    }
  }
  // Drain every outstanding ticket in a final permuted order.
  while (!open_ref.empty()) {
    const int pick = rng.UniformInt(0, static_cast<int>(open_ref.size()) - 1);
    const Assignment a = open_ref[pick];
    const Assignment b = open_sharded[pick];
    open_ref.erase(open_ref.begin() + pick);
    open_sharded.erase(open_sharded.begin() + pick);
    const double acc = Accuracy(a.tenant, a.model);
    ASSERT_EQ(ref->Report(a, acc).ToString(),
              (*sharded)->Report(b, acc).ToString());
  }
  for (int t = 0; t < ref->num_tenants(); ++t) {
    SCOPED_TRACE("tenant=" + std::to_string(t));
    EXPECT_EQ(ref->RoundsServed(t).value(),
              (*sharded)->RoundsServed(t).value());
    EXPECT_EQ(ref->BestModel(t).status().ToString(),
              (*sharded)->BestModel(t).status().ToString());
    if (ref->BestModel(t).ok()) {
      EXPECT_EQ(ref->BestModel(t).value(), (*sharded)->BestModel(t).value());
    }
    EXPECT_EQ(ref->BestAccuracy(t).value(),
              (*sharded)->BestAccuracy(t).value());
  }
  EXPECT_TRUE((*sharded)->ValidateIndex().ok());
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyIndexed) {
  for (int shards : {1, 2, 4, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunOutOfOrderLockstep(SchedulerKind::kGreedy, shards, /*use_index=*/true);
  }
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityHybridIndexed) {
  for (int shards : {1, 2, 4, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunOutOfOrderLockstep(SchedulerKind::kHybrid, shards, /*use_index=*/true);
  }
}

TEST(ReportPipelineStressTest, OutOfOrderLockstepParityGreedyScan) {
  for (int shards : {2, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunOutOfOrderLockstep(SchedulerKind::kGreedy, shards, /*use_index=*/false);
  }
}

}  // namespace
}  // namespace easeml::shard
