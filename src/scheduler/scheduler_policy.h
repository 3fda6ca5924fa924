#ifndef EASEML_SCHEDULER_SCHEDULER_POLICY_H_
#define EASEML_SCHEDULER_SCHEDULER_POLICY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {

class CandidateIndex;

/// User-picking phase of the multi-tenant selection loop (Section 4).
///
/// At each global round the simulator (or the live service) asks the
/// scheduler which tenant to serve next; that tenant then runs one step of
/// its own model-picking policy. Exhausted tenants (all models trained) must
/// never be returned.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Picks the next user to serve. `round` is the global round counter,
  /// 1-based. Fails with FailedPrecondition when every user is exhausted.
  /// This O(T) scan is the reference pick: the engines serve from it only
  /// when the candidate index is off, and the conformance and fuzz suites
  /// hold `PickUserIndexed` to it bit-for-bit.
  virtual Result<int> PickUser(const std::vector<UserState>& users,
                               int round) = 0;

  /// Index-backed twin of `PickUser`: answers the pick from the selector's
  /// incremental candidate index (one tournament root + pruned descents,
  /// see scheduler/candidate_index.h) in O(log T) instead of rescanning
  /// all T users — and must pick the SAME user `PickUser` would,
  /// bit-identically, with identical consumption of any policy state
  /// (cursors, RNG streams). The caller guarantees the index is fresh
  /// (every tenant event was `Refresh`ed). The default falls back to the
  /// sequential scan — correct for any policy, just not indexed; a pick
  /// the index cannot answer (GREEDY's random line-8 rule, a candidate-rank
  /// draw under a threshold-dependent candidate set) calls the scan too.
  virtual Result<int> PickUserIndexed(const std::vector<UserState>& users,
                                      int round, const CandidateIndex& index) {
    (void)index;
    return PickUser(users, round);
  }

  /// Called after the served user's outcome has been recorded; lets
  /// stateful schedulers (HYBRID's freeze detector) observe progress. The
  /// reference path: engines call it when the candidate index is off, and
  /// the conformance suite holds `OnOutcomeIndexed` to it.
  virtual void OnOutcome(const std::vector<UserState>& users,
                         int served_user) {
    (void)users;
    (void)served_user;
  }

  /// Index-fed twin of `OnOutcome`, as `PickUserIndexed` is of `PickUser`:
  /// engines with the candidate index on call it in place of `OnOutcome`,
  /// and it must leave the policy in the SAME state, bit-for-bit. It is
  /// called on a fully folded engine whose index is fresh (every tenant
  /// event `Refresh`ed). The index is mutable so that a policy may drain
  /// its change log (`TakeChanged`); nothing else in it may change here.
  /// The default calls `OnOutcome`.
  virtual void OnOutcomeIndexed(const std::vector<UserState>& users,
                                int served_user, CandidateIndex& index) {
    (void)index;
    OnOutcome(users, served_user);
  }

  virtual std::string name() const = 0;

  /// Appends the policy's complete mutable state (cursors, RNG streams,
  /// freeze detectors — everything not derivable from construction
  /// options) to `out` in the binary_io encoding. Stateless policies keep
  /// the default no-op. Checkpoint recovery calls `LoadDurable` on a
  /// policy built from the SAME options, so configuration is never stored.
  virtual void SaveDurable(std::string* out) const { (void)out; }

  /// Consumes exactly what `SaveDurable` appended from the front of `in`,
  /// restoring the mutable state bit-exactly. DataLoss on malformed input.
  virtual Status LoadDurable(std::string_view* in) {
    (void)in;
    return Status::OK();
  }

 protected:
  /// Indices of users a scheduler may serve now (see
  /// UserState::Schedulable).
  static std::vector<int> ActiveUsers(const std::vector<UserState>& users);
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_SCHEDULER_POLICY_H_
