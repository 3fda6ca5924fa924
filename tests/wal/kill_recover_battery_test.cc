// The randomized kill-and-recover battery: drive a durable selector
// through a churny workload, crash it at scripted points under four fault
// models (process kill, power loss, torn write, bit flip), recover, and
// prove the recovered engine is BIT-FOR-BIT the engine that never crashed:
//
//   1. Every acknowledged Add/Remove/Report/Cancel survives recovery
//      (its epoch is <= the recovered last_epoch); tickets (Next) are
//      explicitly not in the guarantee.
//   2. A reference engine replaying exactly the durable journal prefix
//      captures an identical DurableSelectorState encoding (posterior
//      sums, Cholesky bits, schedulers, tickets — everything).
//   3. Operations the crash swallowed are cleanly absent (implied by 2).
//   4. Both engines continue in lockstep after recovery and still agree.
//
// The matrix covers all five policies, 1 and 4 shards, candidate index on
// and off, with and without a mid-run checkpoint.

#include <algorithm>
#include <array>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/durable_state.h"
#include "core/multi_tenant_selector.h"
#include "gtest/gtest.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/recovery.h"
#include "wal_test_util.h"

namespace easeml::wal {
namespace {

using core::MultiTenantSelector;
using core::SelectorOptions;

enum class Scenario {
  kKillKeepPending,      // process dies; the page cache survives
  kPowerLossDropPending, // everything unsynced is gone
  kTornTail,             // a prefix of the unsynced suffix hit the medium
  kBitFlipTail,          // silent corruption near the durable tail
};

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kKillKeepPending: return "kill-keep-pending";
    case Scenario::kPowerLossDropPending: return "power-loss";
    case Scenario::kTornTail: return "torn-tail";
    case Scenario::kBitFlipTail: return "bit-flip";
  }
  return "?";
}

// One journaled operation. Every ATTEMPT is journaled — including the op a
// scripted crash interrupts, whose WAL records may still (partially)
// survive; `epoch` is the epoch its LAST record would carry, so "op.epoch
// <= recovered last_epoch" selects exactly the ops recovery replayed.
struct Op {
  enum Kind { kAdd, kRemove, kNext, kReport, kCancel };
  Kind kind = kNext;
  int shape = 0;              // kAdd: which shared-prior shape
  std::vector<double> costs;  // kAdd
  int tenant = -1;            // kAdd (predicted id) / kRemove
  MultiTenantSelector::Assignment assignment;  // kNext/kReport/kCancel
  double accuracy = 0.0;      // kReport
  int64_t epoch = 0;
  bool acked = false;  // returned OK from a synced-before-ack operation
};

using PriorSet = std::array<std::shared_ptr<const gp::SharedGpPrior>, 2>;

PriorSet MakePriorSet() {
  return {MakeTestPrior(3, 0.5), MakeTestPrior(3, 0.2)};
}

std::string StateFingerprint(const MultiTenantSelector& s) {
  auto state = s.CaptureDurableState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (!state.ok()) return "<capture failed>";
  state->wal_epoch = 0;
  state->wal_offset = 0;
  std::string bytes;
  EncodeDurableSelectorState(&bytes, *state);
  return bytes;
}

// Drives up to `budget` randomized ops. Returns false when an op failed
// (the scripted crash point fired, or the engine refused benignly) — the
// caller crashes and recovers from there either way.
bool RunWorkload(MultiTenantSelector& s, const PriorSet& priors, Rng& rng,
                 int budget, bool registered[2], int64_t* epoch,
                 std::vector<int>* live, std::vector<Op>* journal) {
  for (int i = 0; i < budget; ++i) {
    const int dice = rng.UniformInt(0, 99);
    // Tenants exhaust after each model is played once, so churn is the
    // normal state of this workload: when the whole fleet is exhausted,
    // admit a new tenant instead of idling.
    const bool must_add = s.Exhausted() && live->size() < 6;
    if ((dice < 10 || must_add) && live->size() < 6) {
      Op op;
      op.kind = Op::kAdd;
      op.shape = rng.UniformInt(0, 1);
      op.costs = {1.0, 1.0 + rng.UniformInt(0, 3), 1.0 + rng.UniformInt(0, 5)};
      // First use of a prior shape also appends its REGISTER_PRIOR record.
      op.epoch = *epoch + (registered[op.shape] ? 1 : 2);
      // Tenant slots are append-only (removal retires, never reuses), so
      // the next id is the number of adds that reached the engine.
      int adds = 0;
      for (const Op& o : *journal) {
        if (o.kind == Op::kAdd) ++adds;
      }
      op.tenant = adds;
      journal->push_back(op);
      auto id = s.AddTenant(priors[op.shape], op.costs);
      if (!id.ok()) return false;
      EXPECT_EQ(*id, op.tenant);
      *epoch = op.epoch;
      registered[op.shape] = true;
      journal->back().acked = true;
      live->push_back(*id);
    } else if (dice < 16 && live->size() > 1) {
      Op op;
      op.kind = Op::kRemove;
      op.tenant =
          (*live)[rng.UniformInt(0, static_cast<int>(live->size()) - 1)];
      op.epoch = *epoch + 1;
      journal->push_back(op);
      if (!s.RemoveTenant(op.tenant).ok()) return false;
      *epoch = op.epoch;
      journal->back().acked = true;
      live->erase(std::find(live->begin(), live->end(), op.tenant));
    } else {
      if (s.Exhausted()) break;
      Op next;
      next.kind = Op::kNext;
      next.epoch = *epoch + 1;
      auto a = s.Next();
      if (!a.ok()) {
        journal->push_back(next);
        return false;
      }
      next.assignment = *a;
      journal->push_back(next);
      *epoch = next.epoch;  // acked stays false: a ticket is not durable

      Op close;
      close.assignment = *a;
      close.epoch = *epoch + 1;
      if (std::bernoulli_distribution(0.15)(rng.engine())) {
        close.kind = Op::kCancel;
        journal->push_back(close);
        if (!s.Cancel(*a).ok()) return false;
      } else {
        close.kind = Op::kReport;
        close.accuracy = rng.Uniform(0.0, 1.0);
        journal->push_back(close);
        if (!s.Report(*a, close.accuracy).ok()) return false;
      }
      *epoch = close.epoch;
      journal->back().acked = true;
    }
  }
  return true;
}

void ApplyCrash(FaultInjectingFileSystem& fs, Scenario sc, Rng& rng,
                const std::string& log) {
  switch (sc) {
    case Scenario::kKillKeepPending:
      break;
    case Scenario::kPowerLossDropPending:
      fs.CrashDropPending();
      break;
    case Scenario::kTornTail: {
      const auto pending = fs.PendingBytes(log);
      const uint64_t p = pending.ok() ? *pending : 0;
      if (p == 0) {
        fs.CrashDropPending();
        break;
      }
      fs.CrashKeepPendingPrefix(
          log, static_cast<uint64_t>(
                   rng.UniformInt(0, static_cast<int>(p) - 1)));
      break;
    }
    case Scenario::kBitFlipTail: {
      fs.CrashDropPending();
      const auto bytes = fs.ReadFile(log);
      if (!bytes.ok() || bytes->empty()) break;
      const int span = std::min<int>(64, static_cast<int>(bytes->size()));
      const uint64_t byte_index =
          bytes->size() - 1 -
          static_cast<uint64_t>(rng.UniformInt(0, span - 1));
      ASSERT_TRUE(fs.FlipDurableBit(log, byte_index, rng.UniformInt(0, 7))
                      .ok());
      break;
    }
  }
}

// Replays the durable journal prefix (ops whose last record's epoch is at
// or below `last_epoch`) into the reference engine, asserting the engine
// reproduces the journaled decisions exactly.
void ReplayPrefix(MultiTenantSelector& ref, const PriorSet& priors,
                  const std::vector<Op>& journal, int64_t last_epoch) {
  for (const Op& op : journal) {
    if (op.epoch > last_epoch) break;
    switch (op.kind) {
      case Op::kAdd: {
        auto id = ref.AddTenant(priors[op.shape], op.costs);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(*id, op.tenant);
        break;
      }
      case Op::kRemove:
        WAL_ASSERT_OK(ref.RemoveTenant(op.tenant));
        break;
      case Op::kNext: {
        WAL_ASSERT_OK_AND_ASSIGN(const MultiTenantSelector::Assignment a,
                                 ref.Next());
        ASSERT_EQ(a.tenant, op.assignment.tenant);
        ASSERT_EQ(a.model, op.assignment.model);
        ASSERT_EQ(a.id, op.assignment.id);
        break;
      }
      case Op::kReport:
        WAL_ASSERT_OK(ref.Report(op.assignment, op.accuracy));
        break;
      case Op::kCancel:
        WAL_ASSERT_OK(ref.Cancel(op.assignment));
        break;
    }
  }
}

void RunOne(core::SchedulerKind kind, int shards, bool index, Scenario sc,
            int64_t fail_after, bool with_checkpoint, uint64_t seed) {
  SelectorOptions options;
  options.scheduler = kind;
  options.num_shards = shards;
  options.use_candidate_index = index;
  options.seed = 77;

  FaultInjectingFileSystem fs;
  std::vector<Op> journal;
  std::vector<int> live;
  bool registered[2] = {false, false};
  int64_t epoch = 0;
  Rng rng(seed);
  {
    auto opened = OpenOrRecover(&fs, "/d", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    RecoveredSelector r = std::move(opened).value();
    const PriorSet priors = MakePriorSet();
    const bool alive = RunWorkload(*r.selector, priors, rng, 14, registered,
                                   &epoch, &live, &journal);
    if (::testing::Test::HasFatalFailure()) return;
    if (alive && with_checkpoint) {
      WAL_ASSERT_OK(
          CutCheckpoint(&fs, "/d", r.wal.get(), *r.selector, nullptr));
    }
    if (alive) {
      if (fail_after >= 0) fs.ArmFailAfterOps(fail_after);
      RunWorkload(*r.selector, priors, rng, 22, registered, &epoch, &live,
                  &journal);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }  // the process dies: engine and WAL buffer are gone

  fs.ClearFaults();
  ApplyCrash(fs, sc, rng, LogPath("/d"));
  if (::testing::Test::HasFatalFailure()) return;

  auto reopened = OpenOrRecover(&fs, "/d", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  RecoveredSelector r = std::move(reopened).value();

  // 1. Acked ops survive. (Bit flips are MEDIA corruption: the ack
  //    guarantee covers crashes, not a disk that lies; the deterministic
  //    truncate-and-match checks below still apply.)
  if (sc != Scenario::kBitFlipTail) {
    for (const Op& op : journal) {
      if (op.acked) {
        EXPECT_LE(op.epoch, r.stats.last_epoch)
            << "acknowledged " << static_cast<int>(op.kind)
            << " lost by recovery";
      }
    }
  }

  // 2. Recovered state is bit-identical to a never-crashed reference
  //    engine that ran exactly the durable prefix.
  auto ref_or = shard::MakeSelector(options);
  ASSERT_TRUE(ref_or.ok()) << ref_or.status().ToString();
  std::unique_ptr<MultiTenantSelector> ref = std::move(ref_or).value();
  const PriorSet ref_priors = MakePriorSet();  // a restarted process's priors
  ReplayPrefix(*ref, ref_priors, journal, r.stats.last_epoch);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(StateFingerprint(*r.selector), StateFingerprint(*ref));
  WAL_ASSERT_OK(r.selector->ValidateIndex());
  WAL_ASSERT_OK(ref->ValidateIndex());

  // 4. Close any ticket the crash left in flight, then continue both
  //    engines in lockstep — the recovered WAL is live again.
  auto st = r.selector->CaptureDurableState();
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  for (const auto& t : st->in_flight) {
    MultiTenantSelector::Assignment a;
    a.tenant = t.tenant;
    a.model = t.model;
    a.id = t.id;
    WAL_ASSERT_OK(r.selector->Cancel(a));
    WAL_ASSERT_OK(ref->Cancel(a));
  }
  for (int i = 0; i < 10 && !ref->Exhausted() && !r.selector->Exhausted();
       ++i) {
    auto a = r.selector->Next();
    auto b = ref->Next();
    ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (!a.ok()) break;
    ASSERT_EQ(a->tenant, b->tenant);
    ASSERT_EQ(a->model, b->model);
    ASSERT_EQ(a->id, b->id);
    const double accuracy = rng.Uniform(0.0, 1.0);
    WAL_ASSERT_OK(r.selector->Report(*a, accuracy));
    WAL_ASSERT_OK(ref->Report(*b, accuracy));
  }
  EXPECT_EQ(StateFingerprint(*r.selector), StateFingerprint(*ref));
}

TEST(KillRecoverBattery, RecoveredStateIsBitIdenticalAcrossTheMatrix) {
  const core::SchedulerKind kinds[] = {
      core::SchedulerKind::kHybrid, core::SchedulerKind::kGreedy,
      core::SchedulerKind::kRoundRobin, core::SchedulerKind::kRandom,
      core::SchedulerKind::kFcfs};
  int run = 0;
  for (const core::SchedulerKind kind : kinds) {
    for (const int shards : {1, 4}) {
      for (const bool index : {false, true}) {
        for (int rep = 0; rep < 2; ++rep, ++run) {
          const Scenario sc = static_cast<Scenario>(run % 4);
          // rep 0 crashes wherever the workload budget ends; rep 1 arms a
          // scripted mid-operation crash point.
          const int64_t fail_after = rep == 0 ? -1 : 6 + run % 9;
          const bool with_checkpoint = run % 3 == 0;
          SCOPED_TRACE(std::string("policy=") +
                       core::SchedulerKindName(kind) +
                       " shards=" + std::to_string(shards) +
                       " index=" + std::to_string(index) +
                       " scenario=" + ScenarioName(sc) +
                       " fail_after=" + std::to_string(fail_after) +
                       " checkpoint=" + std::to_string(with_checkpoint));
          RunOne(kind, shards, index, sc, fail_after, with_checkpoint,
                 1000 + static_cast<uint64_t>(run) * 7);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace easeml::wal
