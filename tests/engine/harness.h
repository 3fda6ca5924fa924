#ifndef EASEML_TESTS_ENGINE_HARNESS_H_
#define EASEML_TESTS_ENGINE_HARNESS_H_

// The engine test harness: one seeded op generator, one lockstep runner
// that holds every engine configuration to the scan reference, and one
// raced battery. The suites in tests/engine/ drive the selector through
// these three pieces; the factory and golden-trace cases beside them
// share its `Accuracy`, `Costs` and `MakeOptions`.
//
// A campaign is a stream of `Op`s. `OpGenerator` draws it from a named
// `Profile` (an op mix plus a campaign shape) and a seed, reading only the
// engine's public accessors, so the same profile and seed replay the same
// stream against the same engine answers.
//
// `RunLockstep` applies every op to the reference engine (scan picks, one
// shard, no observer, no WAL) and to four subjects, and compares every
// answer: each `Assignment`, each Status code and its text, each added
// tenant id; after every op, `HasDispatchableWork()`, with the reference's
// in-flight count held to D; after every accepted Report, the scheduler's
// durable bytes (HYBRID's freeze detector included); every 97 ops and at
// the end, each tenant's BestModel, RoundsServed and BestAccuracy bits;
// and every 512 ops and at the end, `ValidateIndex()` on every subject.
//
// `RunRacedBattery` races client threads, each drawing from its own
// generator stream, against a churn thread on one engine, and asserts the
// documented Status codes, in-flight accounting and ticket conservation;
// without churn it runs the campaign to exhaustion and matches the
// sequential engine's final per-tenant state.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/multi_tenant_selector.h"

namespace easeml::engine_test {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;
using Assignment = MultiTenantSelector::Assignment;

inline constexpr SchedulerKind kAllKinds[] = {
    SchedulerKind::kHybrid, SchedulerKind::kGreedy, SchedulerKind::kRoundRobin,
    SchedulerKind::kRandom, SchedulerKind::kFcfs};

/// Deterministic ground-truth accuracy in (0, 1): an integer hash, NOT libm
/// transcendentals, so every platform and thread computes identical bits.
double Accuracy(int tenant, int model);

/// Per-model training costs of `tenant`: 1.0 + 0.25 * ((tenant + m) % K).
std::vector<double> Costs(int tenant, int models);

/// Engine options every harness engine starts from: HYBRID patience 3
/// (small enough that campaigns cross the freeze switch), RANDOM seed 7.
SelectorOptions MakeOptions(SchedulerKind kind, int devices, int shards = 1,
                            bool use_index = false);

/// gtest parameter name of a policy ("round_robin").
std::string KindParamName(SchedulerKind kind);

/// One engine call of a campaign.
struct Op {
  enum Kind {
    kDone,     // the campaign is over
    kNext,
    kReport,   // an outstanding ticket, with its `Accuracy`
    kCancel,   // an outstanding ticket
    kReplay,   // Report of a stale, forged or never-issued ticket
    kRemove,   // `tenant`: live, in flight, retired or out of range
    kAdd,      // `models` arms; the tenant gets id `tenant`
    kRestart,  // capture every subject and restore it into a fresh engine
  };
  Kind kind = kDone;
  /// kNext issued to fill free slots while work is dispatchable; it must
  /// be served.
  bool fill = false;
  Assignment ticket;
  int tenant = -1;
  int models = 0;
  /// The documented refusal a kReplay must get.
  StatusCode expect = StatusCode::kOk;

  std::string ToString() const;
};

/// What an engine answered to one op; the runner compares `ToString()`.
struct Outcome {
  Status status;
  Assignment issued;  // kNext
  int tenant = -1;    // kAdd

  std::string ToString() const;
};

/// Applies `op` (not kDone or kRestart) to `engine`.
Outcome Apply(MultiTenantSelector& engine, const Op& op);

/// True iff `status` is an answer the engine documents for `op`: a fill
/// Next is served, a drawn Next is served or refused with
/// FailedPrecondition, an outstanding ticket's Report or Cancel is
/// accepted, a replay gets exactly its `expect`, a removal is accepted,
/// refused (FailedPrecondition) or OutOfRange, and an add is accepted.
bool Documented(const Op& op, const Status& status);

/// Relative weights of the op kinds a campaign step draws.
struct Mix {
  int next = 0;
  int report = 0;
  int cancel = 0;
  int replay = 0;
  int add = 0;
  int remove = 0;
};

/// When a campaign issues Next without drawing it from the mix.
enum class Fill {
  kNone,
  kAlways,  // before every drawn op, while work is dispatchable
  kBatch,   // only once nothing is outstanding: fill, then drain the batch
};

/// A named op mix and campaign shape.
struct Profile {
  std::string name;
  int devices = 1;
  int tenants = 12;      // registered before the first drawn op
  int models = 4;        // arms of every tenant...
  int heavy_models = 0;  // ...except tenant 0, when this is positive
  int max_adds = 1 << 20;  // after this many drawn adds, adds are not drawn
  /// Drawn ops before the drain, which reports every outstanding ticket.
  /// 0: no drain; the campaign ends when nothing is outstanding or
  /// dispatchable, which needs a fill.
  int ops = 0;
  Fill fill = Fill::kNone;
  bool lifo = false;  // complete the newest ticket, not a seeded-random one
  /// Mixes rotated every `phase_reports` accepted reports (0: the first).
  std::vector<Mix> phases;
  int phase_reports = 0;
  /// Accepted reports before the one kRestart (negative: none).
  int restart_after = -1;
  uint64_t seed = 2026;
};

/// Slot-filling campaign to exhaustion: every dispatchable Next first,
/// then one seeded-random completion (1 in 10 cancelled); with `churn`,
/// removals and up to 3 adds ride along.
Profile DriveProfile(int devices, bool churn, int tenants, int models);
/// 10k drawn ops at D=3 over every op kind, the index fuzz mix.
Profile IndexFuzzProfile();
/// 700 drawn ops at D=8: bursts of Next, out-of-order completions,
/// churn; then a drain.
Profile OutOfOrderProfile();
/// HYBRID's storms at D devices: phases of 15 reports, calm, then a
/// cancel storm, then a churn storm, with every subject restarted after
/// 30 reports.
Profile StormProfile(int devices);
/// One K=64 tenant beside K=3 tenants, with cancels, replays and up to
/// 4 adds but no removals, run to exhaustion.
Profile HeavyTailProfile();
/// Fill all D=8 slots, then report the batch in reverse issue order.
Profile DelayedReportProfile();

/// Draws a campaign's ops from a profile and a seed.
class OpGenerator {
 public:
  OpGenerator(Profile profile, uint64_t seed);

  /// The next op, reading `engine`'s public accessors (the reference in
  /// lockstep; the shared engine in the raced battery).
  Op Next(const MultiTenantSelector& engine);

  /// Feeds back what `op` returned: issued tickets join the outstanding
  /// list, accepted reports advance the phase and the restart point.
  void Record(const Op& op, const Outcome& outcome);

  const std::vector<Assignment>& outstanding() const { return outstanding_; }

 private:
  Op Complete(Op::Kind kind);
  Op Replay();
  Op Remove(const MultiTenantSelector& engine);

  Profile profile_;
  Rng rng_;
  std::vector<Assignment> outstanding_;  // issue order
  std::vector<Assignment> closed_;
  int registered_ = 0;
  int ops_ = 0;
  int adds_ = 0;
  int reports_ = 0;
  bool filling_ = false;
  bool restarted_ = false;
};

/// What a lockstep run saw on the reference.
struct LockstepSummary {
  int reports = 0;       // accepted reports
  int switched_at = -1;  // accepted reports when HYBRID switched (-1: never)
  bool restarted = false;
};

/// Which subjects a lockstep run holds to the reference.
enum class Subjects {
  kAll,
  kIndexed,  // the three with index picks
  kScan,     // scan N=3 with a FleetObserver
};

/// Runs `profile` under `kind` on the reference and the four subjects
/// (index N=1; index N=3 with a FleetObserver; scan N=3 with a
/// FleetObserver; index N=1 with a deferred SelectorWal on a
/// FaultInjectingFileSystem), or those `subjects` names, and compares
/// them as the file comment says.
void RunLockstep(SchedulerKind kind, const Profile& profile,
                 LockstepSummary* summary = nullptr,
                 Subjects subjects = Subjects::kAll);

/// One raced engine configuration.
struct Battery {
  SchedulerKind kind = SchedulerKind::kHybrid;
  int shards = 1;
  bool use_index = true;
  int tenants = 20;
  int models = 6;
  int clients = 3;
  /// Ops per client, raced against a churn thread. 0: no churn; the
  /// clients run the campaign to exhaustion, and the final per-tenant
  /// state must match the sequential engine's.
  int ops = 250;
  int max_adds = 6;  // churn-thread adds
};

void RunRacedBattery(const Battery& battery);

}  // namespace easeml::engine_test

#endif  // EASEML_TESTS_ENGINE_HARNESS_H_
