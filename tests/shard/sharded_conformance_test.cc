/// Conformance suite for the sharded selector engine: for every scheduler
/// policy, shard count N in {1, 2, 4, 7} and candidate-index mode (scan vs
/// index-backed picks), a full campaign driven through
/// `ShardedMultiTenantSelector` must replay the UNSHARDED, scan-backed
/// `MultiTenantSelector` bit-identically — same (tenant, model, ticket)
/// trace from `Next()`, same refusal statuses, same final per-tenant state —
/// including under multi-device operation and tenant churn
/// (RemoveTenant/AddTenant mid-campaign). A pinned golden trace guards the
/// whole stack against silent drift.
#include "shard/sharded_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "scheduler/hybrid.h"

namespace easeml::shard {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;
using Assignment = MultiTenantSelector::Assignment;

constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kHybrid, SchedulerKind::kGreedy, SchedulerKind::kRoundRobin,
    SchedulerKind::kRandom, SchedulerKind::kFcfs};

/// Deterministic ground-truth accuracy in (0, 1): an integer hash, NOT libm
/// transcendentals, so every platform and thread computes identical bits.
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

/// One event of a campaign trace. `op` is 'N' (Next), 'R' (Report),
/// 'C' (Cancel), '-' (RemoveTenant), '+' (AddTenant); `code` records the
/// Status code so refusals must match across engines too.
struct Event {
  char op;
  int tenant;
  int model;
  int64_t id;
  int code;

  bool operator==(const Event& other) const {
    return op == other.op && tenant == other.tenant && model == other.model &&
           id == other.id && code == other.code;
  }
};

std::string ToString(const Event& e) {
  return std::string(1, e.op) + "(" + std::to_string(e.tenant) + "," +
         std::to_string(e.model) + "," + std::to_string(e.id) + ")s" +
         std::to_string(e.code);
}

/// Drives one full campaign: keep every device slot filled, then hand back
/// a pseudo-randomly chosen outstanding completion (the same seeded choice
/// sequence for every engine), optionally cancelling some completions and
/// churning tenants. Calls `after_report` (when set) after every
/// successful Report. Returns the full event trace.
std::vector<Event> Drive(MultiTenantSelector* selector, int tenants,
                         int models, bool churn,
                         const std::function<void()>& after_report = {}) {
  Rng rng(2026);
  std::vector<Event> trace;
  std::vector<Assignment> outstanding;
  for (int t = 0; t < tenants; ++t) {
    EXPECT_TRUE(
        selector->AddTenantWithDefaultPrior(models, Costs(t, models)).ok());
  }
  int reports = 0;
  int added = 0;
  while (true) {
    while (selector->HasDispatchableWork()) {
      auto a = selector->Next();
      if (!a.ok()) {
        ADD_FAILURE() << a.status().ToString();
        return trace;
      }
      trace.push_back({'N', a->tenant, a->model, a->id, 0});
      outstanding.push_back(*a);
    }
    if (outstanding.empty()) break;
    const int pick =
        rng.UniformInt(0, static_cast<int>(outstanding.size()) - 1);
    const Assignment a = outstanding[pick];
    outstanding.erase(outstanding.begin() + pick);
    if (rng.UniformInt(0, 9) == 0) {
      // Occasional device failure: the ticket is returned via Cancel and
      // the (tenant, model) becomes dispatchable again.
      const Status st = selector->Cancel(a);
      trace.push_back(
          {'C', a.tenant, a.model, a.id, static_cast<int>(st.code())});
    } else {
      const Status st = selector->Report(a, Accuracy(a.tenant, a.model));
      trace.push_back(
          {'R', a.tenant, a.model, a.id, static_cast<int>(st.code())});
      ++reports;
      if (st.ok() && after_report) after_report();
    }
    if (churn) {
      if (reports % 7 == 3) {
        // May be refused (in-flight tickets) — the refusal must replay too.
        const int victim = reports % selector->num_tenants();
        const Status st = selector->RemoveTenant(victim);
        trace.push_back({'-', victim, -1, -1, static_cast<int>(st.code())});
      }
      if (reports % 11 == 5 && added < 3) {
        auto id = selector->AddTenantWithDefaultPrior(
            models, Costs(selector->num_tenants(), models));
        EXPECT_TRUE(id.ok());
        trace.push_back({'+', id.ok() ? *id : -1, -1, -1, 0});
        ++added;
      }
    }
  }
  // Final per-tenant state must agree as well; fold it into the trace.
  for (int t = 0; t < selector->num_tenants(); ++t) {
    auto best = selector->BestModel(t);
    auto rounds = selector->RoundsServed(t);
    trace.push_back({'B', t, best.ok() ? *best : -1,
                     rounds.ok() ? static_cast<int64_t>(*rounds) : -1,
                     static_cast<int>(best.status().code())});
  }
  return trace;
}

SelectorOptions MakeOptions(SchedulerKind kind, int devices, int shards,
                            bool use_index = false) {
  SelectorOptions options;
  options.scheduler = kind;
  options.hybrid_patience = 3;  // small enough to exercise the freeze switch
  options.seed = 7;
  options.num_devices = devices;
  options.num_shards = shards;
  options.use_candidate_index = use_index;
  return options;
}

void ExpectSameTrace(const std::vector<Event>& expected,
                     const std::vector<Event>& actual,
                     const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i] == actual[i])
        << label << ": divergence at event " << i << ": expected "
        << ToString(expected[i]) << ", got " << ToString(actual[i]);
  }
}

class ShardedConformanceTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, int>> {};

TEST_P(ShardedConformanceTest, ReplaysUnshardedBitIdentically) {
  const SchedulerKind kind = std::get<0>(GetParam());
  const int devices = std::get<1>(GetParam());
  constexpr int kTenants = 13;
  constexpr int kModels = 5;

  auto sequential =
      MultiTenantSelector::Create(MakeOptions(kind, devices, 1));
  ASSERT_TRUE(sequential.ok());
  const std::vector<Event> reference =
      Drive(&sequential.value(), kTenants, kModels, /*churn=*/false);

  for (int shards : {1, 2, 4, 7}) {
    for (bool use_index : {false, true}) {
      auto engine =
          MakeSelector(MakeOptions(kind, devices, shards, use_index));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const std::vector<Event> trace =
          Drive(engine->get(), kTenants, kModels, /*churn=*/false);
      ExpectSameTrace(reference, trace,
                      core::SchedulerKindName(kind) + "/D=" +
                          std::to_string(devices) + "/N=" +
                          std::to_string(shards) +
                          (use_index ? "/index" : "/scan"));
      EXPECT_TRUE((*engine)->ValidateIndex().ok());
    }
  }
}

TEST_P(ShardedConformanceTest, ReplaysUnshardedUnderTenantChurn) {
  const SchedulerKind kind = std::get<0>(GetParam());
  const int devices = std::get<1>(GetParam());
  constexpr int kTenants = 11;
  constexpr int kModels = 4;

  auto sequential =
      MultiTenantSelector::Create(MakeOptions(kind, devices, 1));
  ASSERT_TRUE(sequential.ok());
  const std::vector<Event> reference =
      Drive(&sequential.value(), kTenants, kModels, /*churn=*/true);

  for (int shards : {1, 2, 4, 7}) {
    for (bool use_index : {false, true}) {
      if (shards == 1 && !use_index) continue;  // that IS the reference
      auto engine =
          MakeSelector(MakeOptions(kind, devices, shards, use_index));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      const std::vector<Event> trace =
          Drive(engine->get(), kTenants, kModels, /*churn=*/true);
      ExpectSameTrace(reference, trace,
                      core::SchedulerKindName(kind) + "/churn/D=" +
                          std::to_string(devices) + "/N=" +
                          std::to_string(shards) +
                          (use_index ? "/index" : "/scan"));
      // Churn is where placement and leaves could desynchronize: the
      // rebuilt index must replay every aggregate from scratch cleanly.
      const Status valid = (*engine)->ValidateIndex();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<SchedulerKind, int>>& info) {
  std::string name = core::SchedulerKindName(std::get<0>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_D" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ShardedConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(1, 3)),
    ParamName);

/// HYBRID's freeze detector on the index (`OnOutcomeIndexed`: one exact
/// mean cut from the merged shard aggregates, then the tenants the index
/// logged as changed) against its scan reference (`OnOutcome`:
/// ComputeCandidateSet). The pick trace
/// would expose a difference only once it changed a later pick; this
/// compares the detector state itself: after every successful Report the
/// policy's durable bytes (switch flag, frozen-step count, candidate
/// snapshot, summed best reward, nested GREEDY/ROUNDROBIN state) must be
/// identical. The switch must fire mid-campaign, so both phases and the
/// switch itself are covered.
TEST(HybridFreezeParityTest, IndexedDetectorMatchesScanAfterEveryReport) {
  // Sized so that, with patience 3, the switch fires between a third and
  // half-way through every configuration below, churn included.
  constexpr int kTenants = 11;
  constexpr int kModels = 6;
  for (int shards : {1, 2}) {
    for (int devices : {1, 3}) {
      for (bool churn : {false, true}) {
        const std::string label = "N=" + std::to_string(shards) +
                                  "/D=" + std::to_string(devices) +
                                  (churn ? "/churn" : "");
        std::vector<std::string> states[2];
        std::vector<bool> switched;
        std::vector<Event> traces[2];
        for (bool use_index : {false, true}) {
          auto engine = MakeSelector(
              MakeOptions(SchedulerKind::kHybrid, devices, shards, use_index));
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          const MultiTenantSelector* selector = engine->get();
          const auto& policy = dynamic_cast<const scheduler::HybridScheduler&>(
              selector->scheduler_policy());
          std::vector<std::string>& out = states[use_index ? 1 : 0];
          traces[use_index ? 1 : 0] =
              Drive(engine->get(), kTenants, kModels, churn, [&] {
                out.emplace_back();
                policy.SaveDurable(&out.back());
                if (use_index) switched.push_back(policy.switched());
              });
        }
        ExpectSameTrace(traces[0], traces[1], label);
        ASSERT_EQ(states[0].size(), states[1].size()) << label;
        for (size_t i = 0; i < states[0].size(); ++i) {
          ASSERT_EQ(states[0][i], states[1][i])
              << label << ": freeze state diverged after report " << i;
        }
        // Not vacuous: the detector ran in both phases and fired between.
        const auto first_switched =
            std::find(switched.begin(), switched.end(), true);
        ASSERT_NE(first_switched, switched.end()) << label << ": never fired";
        EXPECT_GT(first_switched - switched.begin(), 0) << label;
        EXPECT_LT(first_switched - switched.begin(),
                  static_cast<std::ptrdiff_t>(switched.size()) - 1)
            << label << ": fired only at the last report";
      }
    }
  }
}

/// HYBRID's incremental freeze detector (the index engine) against the
/// scan detector (the index-off engine) in lockstep, under traffic that
/// moves many keys between two outcomes: cancel storms (most completions
/// handed back, so most folds are cancels) and churn
/// storms (a removal and an add after every completion), at D in {1, 3}
/// and N in {1, 2, 4}. Every call must return the same result on both,
/// and after every successful Report the policies' durable bytes must
/// match, so the switch fires at the same report. After 30 reports, well
/// before the switch, the index engine is captured and restored into a
/// fresh engine that carries on in lockstep, so the detector's rebuild
/// after a load is held to the scan as well.
TEST(HybridFreezeParityTest, IncrementalDetectorMatchesScanUnderStorms) {
  constexpr int kTenants = 12;
  constexpr int kModels = 6;
  constexpr int kMaxTenants = 40;
  constexpr int kPhase = 15;  // reports per traffic phase
  const auto hybrid = [](const MultiTenantSelector& s) -> const auto& {
    return dynamic_cast<const scheduler::HybridScheduler&>(
        s.scheduler_policy());
  };
  for (int devices : {1, 3}) {
    for (int shards : {1, 2, 4}) {
      const std::string label =
          "D=" + std::to_string(devices) + "/N=" + std::to_string(shards);
      auto scan_engine =
          MakeSelector(MakeOptions(SchedulerKind::kHybrid, devices, 1));
      auto index_engine = MakeSelector(
          MakeOptions(SchedulerKind::kHybrid, devices, shards, true));
      ASSERT_TRUE(scan_engine.ok() && index_engine.ok()) << label;
      MultiTenantSelector* scan = scan_engine->get();
      std::unique_ptr<MultiTenantSelector> subject = std::move(*index_engine);
      int tenants = 0;
      const auto add_tenant = [&] {
        const std::vector<double> costs = Costs(tenants, kModels);
        auto want = scan->AddTenantWithDefaultPrior(kModels, costs);
        auto got = subject->AddTenantWithDefaultPrior(kModels, costs);
        ASSERT_TRUE(want.ok() && got.ok()) << label;
        ASSERT_EQ(*want, *got) << label;
        ++tenants;
      };
      for (int t = 0; t < kTenants; ++t) add_tenant();

      Rng rng(4242u + static_cast<uint64_t>(10 * devices + shards));
      std::vector<Assignment> outstanding;
      int reports = 0;
      int switched_at = -1;
      bool restored = false;
      while (true) {
        while (scan->HasDispatchableWork()) {
          auto want = scan->Next();
          auto got = subject->Next();
          ASSERT_TRUE(want.ok() && got.ok()) << label;
          ASSERT_EQ(want->tenant, got->tenant) << label;
          ASSERT_EQ(want->model, got->model) << label;
          ASSERT_EQ(want->id, got->id) << label;
          outstanding.push_back(*want);
        }
        ASSERT_FALSE(subject->HasDispatchableWork()) << label;
        if (outstanding.empty()) break;
        const int phase = (reports / kPhase) % 3;  // 0 calm, 1 cancel, 2 churn
        const int pick =
            rng.UniformInt(0, static_cast<int>(outstanding.size()) - 1);
        const Assignment a = outstanding[pick];
        outstanding.erase(outstanding.begin() + pick);
        if (rng.UniformInt(0, 9) < (phase == 1 ? 7 : 1)) {
          ASSERT_EQ(scan->Cancel(a).code(), subject->Cancel(a).code())
              << label;
        } else {
          const double accuracy = Accuracy(a.tenant, a.model);
          ASSERT_TRUE(scan->Report(a, accuracy).ok()) << label;
          ASSERT_TRUE(subject->Report(a, accuracy).ok()) << label;
          ++reports;
          std::string want;
          std::string got;
          hybrid(*scan).SaveDurable(&want);
          hybrid(*subject).SaveDurable(&got);
          ASSERT_EQ(want, got)
              << label << ": freeze state diverged after report " << reports;
          if (switched_at < 0 && hybrid(*scan).switched()) {
            switched_at = reports;
          }
        }
        if (phase == 2) {
          // May be refused (tickets in flight); the refusal must match.
          const int victim = rng.UniformInt(0, tenants - 1);
          ASSERT_EQ(scan->RemoveTenant(victim).code(),
                    subject->RemoveTenant(victim).code())
              << label;
          if (tenants < kMaxTenants) add_tenant();
        }
        if (!restored && reports == 2 * kPhase) {
          // Mid-campaign checkpoint of the index engine, restored into a
          // fresh one that replaces it.
          ASSERT_LT(switched_at, 0) << label << ": switched before restore";
          auto state = subject->CaptureDurableState();
          ASSERT_TRUE(state.ok()) << label << ": " << state.status().ToString();
          auto fresh = MakeSelector(
              MakeOptions(SchedulerKind::kHybrid, devices, shards, true));
          ASSERT_TRUE(fresh.ok()) << label;
          const Status loaded = (*fresh)->RestoreDurableState(*state);
          ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.ToString();
          subject = std::move(*fresh);
          restored = true;
        }
      }
      EXPECT_TRUE(restored) << label;
      // Not vacuous: the detector ran after the restore and fired later.
      ASSERT_GT(switched_at, 2 * kPhase) << label << ": never fired after "
                                         << "the restore";
      EXPECT_LT(switched_at, reports) << label << ": fired at the last report";
      EXPECT_TRUE(hybrid(*subject).switched()) << label;
      const Status valid = subject->ValidateIndex();
      EXPECT_TRUE(valid.ok()) << label << ": " << valid.ToString();
    }
  }
}

/// The factory must return the plain engine at 1 shard and the sharded one
/// above, both accepting the full ticketed protocol.
TEST(MakeSelectorTest, SelectsEngineByShardCount) {
  auto plain = MakeSelector(MakeOptions(SchedulerKind::kGreedy, 1, 1));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(dynamic_cast<ShardedMultiTenantSelector*>(plain->get()), nullptr);
  EXPECT_EQ((*plain)->num_shards(), 1);
  EXPECT_EQ((*plain)->ShardCpuSeconds(), std::vector<double>{0.0});

  auto sharded = MakeSelector(MakeOptions(SchedulerKind::kGreedy, 1, 4));
  ASSERT_TRUE(sharded.ok());
  EXPECT_NE(dynamic_cast<ShardedMultiTenantSelector*>(sharded->get()),
            nullptr);
  EXPECT_EQ((*sharded)->num_shards(), 4);
  EXPECT_EQ((*sharded)->ShardCpuSeconds().size(), 4u);

  auto bad = MakeSelector(MakeOptions(SchedulerKind::kGreedy, 1, 0));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

/// Golden trace: the full HYBRID campaign (T=6, K=3, D=2) on the 4-shard
/// engine, pinned event by event. Guards the whole stack — placement, the
/// sharded index, exact candidate threshold, argmax tie-breaks, ticket
/// accounting — against silent drift; by the conformance tests above the
/// same trace is what the sequential engine and every other shard count
/// produce.
TEST(ShardedGoldenTraceTest, PinnedHybridCampaign) {
  static const char* const kGolden[] = {
      "N 0 0 0",   "N 1 2 1",   "R 0 0 0",   "N 2 1 2",   "R 2 1 2",
      "N 3 0 3",   "R 1 2 1",   "N 4 2 4",   "R 4 2 4",   "N 5 1 5",
      "R 3 0 3",   "N 3 1 6",   "R 3 1 6",   "N 5 2 7",   "R 5 1 5",
      "N 2 2 8",   "R 2 2 8",   "N 2 0 9",   "R 2 0 9",   "N 3 2 10",
      "R 5 2 7",   "N 1 0 11",  "R 3 2 10",  "N 4 0 12",  "R 1 0 11",
      "N 1 1 13",  "R 4 0 12",  "N 4 1 14",  "R 1 1 13",  "N 5 0 15",
      "R 4 1 14",  "N 0 1 16",  "R 0 1 16",  "N 0 2 17",  "R 0 2 17",
      "R 5 0 15",  "B 0 0",     "B 1 2",     "B 2 1",     "B 3 2",
      "B 4 2",     "B 5 2",
  };
  auto engine = MakeSelector(MakeOptions(SchedulerKind::kHybrid, 2, 4));
  ASSERT_TRUE(engine.ok());
  MultiTenantSelector* selector = engine->get();
  constexpr int kTenants = 6;
  constexpr int kModels = 3;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        selector->AddTenantWithDefaultPrior(kModels, Costs(t, kModels)).ok());
  }
  Rng rng(2026);
  std::vector<Assignment> outstanding;
  std::vector<std::string> trace;
  while (true) {
    while (selector->HasDispatchableWork()) {
      auto a = selector->Next();
      ASSERT_TRUE(a.ok());
      trace.push_back("N " + std::to_string(a->tenant) + " " +
                      std::to_string(a->model) + " " + std::to_string(a->id));
      outstanding.push_back(*a);
    }
    if (outstanding.empty()) break;
    const int pick =
        rng.UniformInt(0, static_cast<int>(outstanding.size()) - 1);
    const Assignment a = outstanding[pick];
    outstanding.erase(outstanding.begin() + pick);
    ASSERT_TRUE(selector->Report(a, Accuracy(a.tenant, a.model)).ok());
    trace.push_back("R " + std::to_string(a.tenant) + " " +
                    std::to_string(a.model) + " " + std::to_string(a.id));
  }
  for (int t = 0; t < kTenants; ++t) {
    trace.push_back("B " + std::to_string(t) + " " +
                    std::to_string(selector->BestModel(t).value_or(-1)));
  }
  ASSERT_EQ(trace.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], kGolden[i]) << "golden-trace drift at event " << i;
  }
}

/// Placement is a function of the id: adds spread tenants round-robin over
/// the shards, and a removal retires its tenant in place — only its own
/// shard's live count drops and no other tenant moves. The 1-shard engine
/// reports every live tenant on its one shard.
TEST(MakeSelectorTest, RemovalShrinksOnlyItsOwnShard) {
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto engine =
        MakeSelector(MakeOptions(SchedulerKind::kFcfs, 1, num_shards));
    ASSERT_TRUE(engine.ok());
    MultiTenantSelector* selector = engine->get();
    std::vector<int> expected(static_cast<size_t>(num_shards), 0);
    for (int t = 0; t < 18; ++t) {
      ASSERT_TRUE(selector->AddTenantWithDefaultPrior(3, {1.0, 1.0, 1.0}).ok());
      ++expected[static_cast<size_t>(t % num_shards)];
    }
    EXPECT_EQ(selector->ShardSizes(), expected);
    for (int victim : {2, 9, 6}) {
      ASSERT_TRUE(selector->RemoveTenant(victim).ok());
      --expected[static_cast<size_t>(victim % num_shards)];
      EXPECT_EQ(selector->ShardSizes(), expected) << "removed " << victim;
      const Status valid = selector->ValidateIndex();
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }
}

}  // namespace
}  // namespace easeml::shard
