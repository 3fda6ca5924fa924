#include "harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "obs/fleet_observer.h"
#include "scheduler/hybrid.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/recovery.h"

namespace easeml::engine_test {

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

SelectorOptions MakeOptions(SchedulerKind kind, int devices, int shards,
                            bool use_index) {
  SelectorOptions options;
  options.scheduler = kind;
  options.hybrid_patience = 3;
  options.seed = 7;
  options.num_devices = devices;
  options.num_shards = shards;
  options.use_candidate_index = use_index;
  return options;
}

std::string KindParamName(SchedulerKind kind) {
  std::string name = core::SchedulerKindName(kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

namespace {

std::string TicketString(const Assignment& a) {
  return "(" + std::to_string(a.tenant) + "," + std::to_string(a.model) +
         ",#" + std::to_string(a.id) + ")";
}

}  // namespace

std::string Op::ToString() const {
  switch (kind) {
    case kDone: return "Done";
    case kNext: return fill ? "Next(fill)" : "Next";
    case kReport: return "Report" + TicketString(ticket);
    case kCancel: return "Cancel" + TicketString(ticket);
    case kReplay:
      return "Replay" + TicketString(ticket) + "->" +
             std::string(StatusCodeToString(expect));
    case kRemove: return "Remove(" + std::to_string(tenant) + ")";
    case kAdd:
      return "Add(" + std::to_string(tenant) + ",K=" +
             std::to_string(models) + ")";
    case kRestart: return "Restart";
  }
  return "?";
}

std::string Outcome::ToString() const {
  std::string out = status.ToString();
  if (issued.id >= 0) out += " " + TicketString(issued);
  if (tenant >= 0) out += " tenant " + std::to_string(tenant);
  return out;
}

Outcome Apply(MultiTenantSelector& engine, const Op& op) {
  Outcome out;
  switch (op.kind) {
    case Op::kNext: {
      const Result<Assignment> a = engine.Next();
      out.status = a.status();
      if (a.ok()) out.issued = *a;
      break;
    }
    case Op::kReport:
      out.status = engine.Report(
          op.ticket, Accuracy(op.ticket.tenant, op.ticket.model));
      break;
    case Op::kReplay:
      out.status = engine.Report(op.ticket, 0.5);
      break;
    case Op::kCancel:
      out.status = engine.Cancel(op.ticket);
      break;
    case Op::kRemove:
      out.status = engine.RemoveTenant(op.tenant);
      break;
    case Op::kAdd: {
      const Result<int> id = engine.AddTenantWithDefaultPrior(
          op.models, Costs(op.tenant, op.models));
      out.status = id.status();
      if (id.ok()) out.tenant = *id;
      break;
    }
    case Op::kDone:
    case Op::kRestart:
      break;
  }
  return out;
}

bool Documented(const Op& op, const Status& status) {
  const StatusCode code = status.code();
  switch (op.kind) {
    case Op::kNext:
      return status.ok() ||
             (!op.fill && code == StatusCode::kFailedPrecondition);
    case Op::kReplay:
      return code == op.expect;
    case Op::kRemove:
      return status.ok() || code == StatusCode::kFailedPrecondition ||
             code == StatusCode::kOutOfRange;
    default:
      return status.ok();
  }
}

// Mix fields in order: next, report, cancel, replay, add, remove.

Profile DriveProfile(int devices, bool churn, int tenants, int models) {
  Profile p;
  p.name = churn ? "drive/churn" : "drive";
  p.devices = devices;
  p.tenants = tenants;
  p.models = models;
  p.fill = Fill::kAlways;
  p.phases = {churn ? Mix{0, 63, 7, 0, 6, 9} : Mix{0, 9, 1, 0, 0, 0}};
  p.max_adds = 3;
  // With HYBRID patience 3 and 11 tenants of 6 models, this stream crosses
  // the freeze switch between a third and half-way through the campaign at
  // D in {1, 3}, churn on and off (HybridFreezeParityTest).
  p.seed = 2028;
  return p;
}

Profile IndexFuzzProfile() {
  Profile p;
  p.name = "index-fuzz";
  p.devices = 3;
  p.ops = 10000;
  p.phases = {Mix{40, 30, 10, 6, 8, 6}};
  p.seed = 20260730;
  return p;
}

Profile OutOfOrderProfile() {
  Profile p;
  p.name = "out-of-order";
  p.devices = 8;
  p.tenants = 9;
  p.models = 5;
  p.ops = 700;
  p.phases = {Mix{8, 8, 1, 1, 1, 2}};
  p.max_adds = 4;
  p.seed = 4242;
  return p;
}

Profile StormProfile(int devices) {
  Profile p;
  p.name = "storms/D=" + std::to_string(devices);
  p.devices = devices;
  p.models = 6;
  p.fill = Fill::kAlways;
  // Calm, then a cancel storm (most completions handed back), then a
  // churn storm (about one removal and one add per completion).
  p.phases = {Mix{0, 9, 1, 0, 0, 0}, Mix{0, 3, 7, 0, 0, 0},
              Mix{0, 9, 1, 0, 10, 10}};
  p.phase_reports = 15;
  p.max_adds = 28;
  p.restart_after = 30;
  p.seed = 4242u + static_cast<uint64_t>(devices);
  return p;
}

Profile HeavyTailProfile() {
  Profile p;
  p.name = "heavy-tail";
  p.devices = 3;
  p.tenants = 8;
  p.models = 3;
  p.heavy_models = 64;
  p.fill = Fill::kAlways;
  // No removals: every arm is reported, the 64 of the K=64 tenant and
  // the 3 of each of the 4 added tenants included.
  p.phases = {Mix{0, 9, 1, 1, 1, 0}};
  p.max_adds = 4;
  p.seed = 6464;
  return p;
}

Profile DelayedReportProfile() {
  Profile p;
  p.name = "delayed-reports";
  p.devices = 8;
  p.models = 5;
  p.fill = Fill::kBatch;
  p.lifo = true;
  p.phases = {Mix{0, 1, 0, 0, 0, 0}};
  p.seed = 8888;
  return p;
}

OpGenerator::OpGenerator(Profile profile, uint64_t seed)
    : profile_(std::move(profile)), rng_(seed) {}

Op OpGenerator::Next(const MultiTenantSelector& engine) {
  Op op;
  if (registered_ < profile_.tenants) {
    op.kind = Op::kAdd;
    op.tenant = registered_;
    op.models = registered_ == 0 && profile_.heavy_models > 0
                    ? profile_.heavy_models
                    : profile_.models;
    ++registered_;
    return op;
  }
  if (!restarted_ && profile_.restart_after >= 0 &&
      reports_ >= profile_.restart_after) {
    restarted_ = true;
    op.kind = Op::kRestart;
    return op;
  }
  if (profile_.ops > 0 && ops_ >= profile_.ops) {
    return outstanding_.empty() ? op : Complete(Op::kReport);
  }
  if (profile_.fill == Fill::kAlways ||
      (profile_.fill == Fill::kBatch && outstanding_.empty())) {
    filling_ = true;
  }
  if (filling_) {
    if (engine.HasDispatchableWork()) {
      op.kind = Op::kNext;
      op.fill = true;
      return op;
    }
    filling_ = false;
    if (outstanding_.empty()) return op;  // nothing left to complete
  }
  ++ops_;
  const size_t phase =
      profile_.phase_reports > 0
          ? static_cast<size_t>(reports_ / profile_.phase_reports) %
                profile_.phases.size()
          : 0;
  const Mix& mix = profile_.phases[phase];
  const int weights[] = {mix.next,   mix.report,
                         mix.cancel, mix.replay,
                         adds_ < profile_.max_adds ? mix.add : 0,
                         mix.remove};
  const Op::Kind kinds[] = {Op::kNext,   Op::kReport, Op::kCancel,
                            Op::kReplay, Op::kAdd,    Op::kRemove};
  int total = 0;
  for (const int w : weights) total += w;
  int dice = rng_.UniformInt(0, total - 1);
  size_t k = 0;
  while (dice >= weights[k]) dice -= weights[k++];
  op.kind = kinds[k];
  // An op with nothing to act on becomes the nearest op that has.
  if ((op.kind == Op::kReport || op.kind == Op::kCancel) &&
      outstanding_.empty()) {
    op.kind = Op::kNext;
  }
  if (op.kind == Op::kReplay && outstanding_.empty() && closed_.empty()) {
    op.kind = Op::kNext;
  }
  switch (op.kind) {
    case Op::kReport:
    case Op::kCancel:
      return Complete(op.kind);
    case Op::kReplay:
      return Replay();
    case Op::kRemove:
      return Remove(engine);
    case Op::kAdd:
      ++adds_;
      op.tenant = engine.num_tenants();
      op.models = profile_.models;
      return op;
    default:
      return op;
  }
}

Op OpGenerator::Complete(Op::Kind kind) {
  const int last = static_cast<int>(outstanding_.size()) - 1;
  const int pick = profile_.lifo ? last : rng_.UniformInt(0, last);
  Op op;
  op.kind = kind;
  op.ticket = outstanding_[static_cast<size_t>(pick)];
  outstanding_.erase(outstanding_.begin() + pick);
  closed_.push_back(op.ticket);
  return op;
}

Op OpGenerator::Replay() {
  const auto any = [this](const std::vector<Assignment>& from) {
    return from[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int>(from.size()) - 1))];
  };
  Op op;
  op.kind = Op::kReplay;
  const int flavor = rng_.UniformInt(0, 2);
  if (flavor == 0 && !closed_.empty()) {
    op.ticket = any(closed_);  // already reported or cancelled
    op.expect = StatusCode::kFailedPrecondition;
  } else if (flavor == 1 && !outstanding_.empty()) {
    op.ticket = any(outstanding_);  // live id, forged arm
    op.ticket.model += 1;
    op.expect = StatusCode::kInvalidArgument;
  } else {
    op.ticket = any(closed_.empty() ? outstanding_ : closed_);
    op.ticket.id += 1000000;  // never issued
    op.expect = StatusCode::kNotFound;
  }
  return op;
}

Op OpGenerator::Remove(const MultiTenantSelector& engine) {
  Op op;
  op.kind = Op::kRemove;
  if (!outstanding_.empty() && rng_.UniformInt(0, 2) == 0) {
    // A tenant with a ticket in flight: the removal must be refused.
    op.tenant = outstanding_[static_cast<size_t>(rng_.UniformInt(
                                 0, static_cast<int>(outstanding_.size()) -
                                        1))]
                    .tenant;
  } else {
    // Live, retired, or one of the two ids past the last (OutOfRange).
    op.tenant = rng_.UniformInt(0, engine.num_tenants() + 1);
  }
  return op;
}

void OpGenerator::Record(const Op& op, const Outcome& outcome) {
  if (!outcome.status.ok()) return;
  if (op.kind == Op::kNext) outstanding_.push_back(outcome.issued);
  if (op.kind == Op::kReport) ++reports_;
}

namespace {

constexpr char kWalDir[] = "/engine";

struct EngineSpec {
  const char* label;
  int shards;
  bool use_index;
  bool observed;
  bool durable;
};

constexpr EngineSpec kReferenceSpec = {"scan/N=1", 1, false, false, false};
constexpr EngineSpec kSubjectSpecs[] = {
    {"index/N=1", 1, true, false, false},
    {"index/N=3/observer", 3, true, true, false},
    {"scan/N=3/observer", 3, false, true, false},
    {"index/N=1/wal", 1, true, false, true},
};

/// An engine the runner drives and what hangs off it. The selector is
/// declared last, so it is destroyed before its observer and its WAL.
struct Engine {
  EngineSpec spec{};
  SelectorOptions options;
  std::unique_ptr<wal::FaultInjectingFileSystem> fs;
  std::unique_ptr<obs::FleetObserver> observer;
  std::unique_ptr<wal::SelectorWal> wal;
  std::unique_ptr<MultiTenantSelector> selector;
};

/// (Re)builds `e.selector`: the durable engine recovers whatever its
/// directory holds; the others start empty.
Status Open(Engine& e) {
  e.selector.reset();
  e.observer.reset();
  e.wal.reset();
  if (e.spec.durable) {
    if (e.fs == nullptr) {
      e.fs = std::make_unique<wal::FaultInjectingFileSystem>();
    }
    wal::SelectorWalOptions wal_options;
    wal_options.durability = wal::SelectorWalOptions::Durability::kDeferred;
    EASEML_ASSIGN_OR_RETURN(
        wal::RecoveredSelector recovered,
        wal::OpenOrRecover(e.fs.get(), kWalDir, e.options, wal_options));
    e.wal = std::move(recovered.wal);
    e.selector = std::move(recovered.selector);
    return Status::OK();
  }
  if (e.spec.observed) {
    EASEML_ASSIGN_OR_RETURN(
        obs::ObservedSelector made,
        obs::MakeObservedSelector(e.options, obs::FleetObserverOptions()));
    e.observer = std::move(made.observer);
    e.selector = std::move(made.selector);
    return Status::OK();
  }
  EASEML_ASSIGN_OR_RETURN(e.selector, shard::MakeSelector(e.options));
  return Status::OK();
}

/// Captures `e` and restores it into a fresh engine of its configuration;
/// the durable engine cuts a checkpoint and recovers from it instead.
Status Restart(Engine& e) {
  if (e.spec.durable) {
    EASEML_RETURN_NOT_OK(wal::CutCheckpoint(e.fs.get(), kWalDir, e.wal.get(),
                                            *e.selector, nullptr));
    return Open(e);
  }
  EASEML_ASSIGN_OR_RETURN(const core::DurableSelectorState state,
                          e.selector->CaptureDurableState());
  EASEML_RETURN_NOT_OK(Open(e));
  return e.selector->RestoreDurableState(state);
}

std::string PolicyBytes(const MultiTenantSelector& engine) {
  std::string out;
  engine.scheduler_policy().SaveDurable(&out);
  return out;
}

bool HybridSwitched(const MultiTenantSelector& engine) {
  const auto* hybrid = dynamic_cast<const scheduler::HybridScheduler*>(
      &engine.scheduler_policy());
  return hybrid != nullptr && hybrid->switched();
}

/// Tenant `t`'s read side: BestModel (value or Status text), RoundsServed
/// and the bits of BestAccuracy.
std::string TenantLine(const MultiTenantSelector& engine, int t) {
  const Result<int> best = engine.BestModel(t);
  const Result<int> rounds = engine.RoundsServed(t);
  const Result<double> accuracy = engine.BestAccuracy(t);
  uint64_t bits = 0;
  if (accuracy.ok()) std::memcpy(&bits, &*accuracy, sizeof(bits));
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(bits));
  return "tenant " + std::to_string(t) + ": best " +
         (best.ok() ? std::to_string(*best) : best.status().ToString()) +
         ", rounds " +
         (rounds.ok() ? std::to_string(*rounds) : rounds.status().ToString()) +
         ", accuracy " + (accuracy.ok() ? hex : accuracy.status().ToString());
}

std::string EngineLine(const MultiTenantSelector& engine) {
  return "tenants " + std::to_string(engine.num_tenants()) + ", in flight " +
         std::to_string(engine.num_in_flight()) + ", dispatchable " +
         std::to_string(engine.HasDispatchableWork()) + ", exhausted " +
         std::to_string(engine.Exhausted());
}

void CompareTenants(const std::vector<Engine>& engines,
                    const std::string& where) {
  const MultiTenantSelector& ref = *engines[0].selector;
  for (size_t i = 1; i < engines.size(); ++i) {
    const MultiTenantSelector& subject = *engines[i].selector;
    ASSERT_EQ(EngineLine(subject), EngineLine(ref))
        << where << " " << engines[i].spec.label;
    for (int t = 0; t < ref.num_tenants(); ++t) {
      ASSERT_EQ(TenantLine(subject, t), TenantLine(ref, t))
          << where << " " << engines[i].spec.label;
    }
  }
}

/// After every op: the reference holds at most `devices` tickets, and
/// every subject answers `HasDispatchableWork()` as it does. The generator
/// fills from the reference's answer, and a fill Next must be served, so
/// these two bound every fill.
void CompareSlots(const std::vector<Engine>& engines, int devices,
                  const std::string& where) {
  const MultiTenantSelector& ref = *engines[0].selector;
  ASSERT_LE(ref.num_in_flight(), devices) << where;
  const bool dispatchable = ref.HasDispatchableWork();
  for (size_t i = 1; i < engines.size(); ++i) {
    ASSERT_EQ(engines[i].selector->HasDispatchableWork(), dispatchable)
        << where << " " << engines[i].spec.label;
  }
}

void ValidateAll(const std::vector<Engine>& engines, const std::string& where) {
  for (const Engine& e : engines) {
    const Status valid = e.selector->ValidateIndex();
    ASSERT_TRUE(valid.ok()) << where << " " << e.spec.label << ": "
                            << valid.ToString();
  }
}

}  // namespace

void RunLockstep(SchedulerKind kind, const Profile& profile,
                 LockstepSummary* summary, Subjects subjects) {
  LockstepSummary local;
  LockstepSummary& out = summary != nullptr ? *summary : local;
  out = LockstepSummary();
  const std::string run = core::SchedulerKindName(kind) + "/" + profile.name;
  std::vector<Engine> engines(1);
  engines[0].spec = kReferenceSpec;
  for (const EngineSpec& spec : kSubjectSpecs) {
    if (subjects == Subjects::kAll ||
        spec.use_index == (subjects == Subjects::kIndexed)) {
      engines.emplace_back().spec = spec;
    }
  }
  for (Engine& e : engines) {
    e.options = MakeOptions(kind, profile.devices, e.spec.shards,
                            e.spec.use_index);
    const Status opened = Open(e);
    ASSERT_TRUE(opened.ok()) << run << " " << e.spec.label << ": "
                             << opened.ToString();
  }
  MultiTenantSelector& ref = *engines[0].selector;  // never restarted

  OpGenerator generator(profile, profile.seed);
  for (int step = 0;; ++step) {
    const Op op = generator.Next(ref);
    if (op.kind == Op::kDone) break;
    const std::string where = run + " op " + std::to_string(step) + " " +
                              op.ToString();
    if (op.kind == Op::kRestart) {
      for (size_t i = 1; i < engines.size(); ++i) {
        const Status restarted = Restart(engines[i]);
        ASSERT_TRUE(restarted.ok()) << where << " " << engines[i].spec.label
                                    << ": " << restarted.ToString();
      }
      out.restarted = true;
      CompareSlots(engines, profile.devices, where);
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }
    const Outcome want = Apply(ref, op);
    const std::string want_text = want.ToString();
    ASSERT_TRUE(Documented(op, want.status)) << where << ": " << want_text;
    for (size_t i = 1; i < engines.size(); ++i) {
      ASSERT_EQ(Apply(*engines[i].selector, op).ToString(), want_text)
          << where << " " << engines[i].spec.label;
    }
    generator.Record(op, want);
    CompareSlots(engines, profile.devices, where);
    if (::testing::Test::HasFatalFailure()) return;
    if (op.kind == Op::kReport && want.status.ok()) {
      ++out.reports;
      const std::string policy = PolicyBytes(ref);
      for (size_t i = 1; i < engines.size(); ++i) {
        ASSERT_EQ(PolicyBytes(*engines[i].selector), policy)
            << where << " " << engines[i].spec.label
            << ": scheduler state diverged after report " << out.reports;
      }
      if (out.switched_at < 0 && HybridSwitched(ref)) {
        out.switched_at = out.reports;
      }
    }
    if (step % 97 == 0) {
      CompareTenants(engines, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (step % 512 == 511) {
      ValidateAll(engines, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  CompareTenants(engines, run + " at the end");
  if (::testing::Test::HasFatalFailure()) return;
  ValidateAll(engines, run + " at the end");
}

void RunRacedBattery(const Battery& b) {
  constexpr int kDevices = 8;
  auto made = shard::MakeSelector(
      MakeOptions(b.kind, kDevices, b.shards, b.use_index));
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  MultiTenantSelector& engine = **made;
  for (int t = 0; t < b.tenants; ++t) {
    ASSERT_TRUE(
        engine.AddTenantWithDefaultPrior(b.models, Costs(t, b.models)).ok());
  }
  const bool churn = b.ops > 0;
  std::atomic<int> reported{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> stop_churn{false};
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      ADD_FAILURE() << what;
      failed = true;
    }
  };

  // Clients: Next, completions and replays of their own tickets, and raced
  // reads of the locked accessors.
  Profile client;
  client.name = "raced-client";
  client.tenants = 0;
  client.phases = {churn ? Mix{4, 4, 1, 2, 0, 0} : Mix{1, 1, 0, 1, 0, 0}};
  const auto run_client = [&](int id) {
    OpGenerator generator(client, 1000u + static_cast<uint64_t>(id));
    for (int n = 0; !failed.load() && (churn ? n < b.ops : !engine.Exhausted());
         ++n) {
      const Op op = generator.Next(engine);
      const Outcome got = Apply(engine, op);
      check(Documented(op, got.status), op.ToString() + ": " + got.ToString());
      generator.Record(op, got);
      if (op.kind == Op::kReport && got.status.ok()) ++reported;
      if ((op.kind == Op::kReport || op.kind == Op::kCancel) &&
          got.status.ok()) {
        // The ticket is retired before the call returns, so its replay is
        // refused at once.
        Op dup;
        dup.kind = Op::kReplay;
        dup.ticket = op.ticket;
        dup.expect = StatusCode::kFailedPrecondition;
        const Outcome again = Apply(engine, dup);
        check(Documented(dup, again.status),
              dup.ToString() + ": " + again.ToString());
      }
      if (n % 10 == 5) {
        const Result<double> acc = engine.BestAccuracy(n % b.tenants);
        check(!acc.ok() || (*acc >= 0.0 && *acc < 1.0),
              "BestAccuracy out of range");
        check(engine.ShardCpuSeconds().size() ==
                      static_cast<size_t>(b.shards) &&
                  engine.ShardSizes().size() == static_cast<size_t>(b.shards),
              "one ShardCpuSeconds and ShardSizes entry per shard");
      }
    }
    // Hand back what this client still holds so the accounting closes.
    for (const Assignment& a : generator.outstanding()) {
      const Status cancelled = engine.Cancel(a);
      check(cancelled.ok(), "drain: " + cancelled.ToString());
    }
  };

  // Churn: removals and adds from their own stream, with ValidateIndex()
  // sweeps raced against the clients' traffic (the check locks the
  // engine, so it sees a quiescent index).
  Profile churner;
  churner.name = "raced-churn";
  churner.tenants = 0;
  churner.models = b.models;
  churner.phases = {Mix{0, 0, 0, 0, 1, 3}};
  churner.max_adds = b.max_adds;
  const auto run_churn = [&] {
    // Hold off the first removal until a client has reported: otherwise
    // this loop can retire the whole fleet before any client's first
    // Next(), which then refuses correctly and leaves `reported` at 0.
    while (reported.load() == 0 && !stop_churn.load()) {
      std::this_thread::yield();
    }
    OpGenerator generator(churner, 999);
    for (int n = 0; !stop_churn.load(); ++n) {
      const Op op = generator.Next(engine);
      const Outcome got = Apply(engine, op);
      check(Documented(op, got.status), op.ToString() + ": " + got.ToString());
      if (n % 16 == 0) {
        const Status valid = engine.ValidateIndex();
        check(valid.ok(), "ValidateIndex: " + valid.ToString());
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < b.clients; ++c) clients.emplace_back(run_client, c);
  std::thread churn_thread;
  if (churn) churn_thread = std::thread(run_churn);
  for (std::thread& t : clients) t.join();
  stop_churn = true;
  if (churn_thread.joinable()) churn_thread.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(engine.num_in_flight(), 0);  // every client drained
  EXPECT_GT(reported.load(), 0);
  // Conservation: every accepted report is a served round of some
  // still-queryable tenant (removal keeps history readable).
  int rounds = 0;
  for (int t = 0; t < engine.num_tenants(); ++t) {
    const Result<int> served = engine.RoundsServed(t);
    ASSERT_TRUE(served.ok());
    rounds += *served;
    const Result<double> acc = engine.BestAccuracy(t);
    ASSERT_TRUE(acc.ok());
    EXPECT_GE(*acc, 0.0);
    EXPECT_LT(*acc, 1.0);
  }
  EXPECT_EQ(rounds, reported.load());
  const Status valid = engine.ValidateIndex();
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  if (churn) return;

  // Whatever the interleaving, a campaign run to exhaustion folds the same
  // completion set as the sequential engine: the final per-tenant state
  // must match it bit for bit.
  EXPECT_TRUE(engine.Exhausted());
  auto sequential =
      MultiTenantSelector::Create(MakeOptions(b.kind, 1, 1, true));
  ASSERT_TRUE(sequential.ok());
  for (int t = 0; t < b.tenants; ++t) {
    ASSERT_TRUE(sequential
                    ->AddTenantWithDefaultPrior(b.models, Costs(t, b.models))
                    .ok());
  }
  while (!sequential->Exhausted()) {
    const Result<Assignment> a = sequential->Next();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(sequential->Report(*a, Accuracy(a->tenant, a->model)).ok());
  }
  for (int t = 0; t < b.tenants; ++t) {
    EXPECT_EQ(TenantLine(engine, t), TenantLine(*sequential, t));
  }
}

}  // namespace easeml::engine_test
