#ifndef EASEML_SCHEDULER_HYBRID_H_
#define EASEML_SCHEDULER_HYBRID_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "scheduler/candidate_index.h"
#include "scheduler/greedy.h"
#include "scheduler/round_robin.h"
#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// HYBRID (Section 4.4), ease.ml's default multi-tenant scheduler.
///
/// Runs GREEDY until it detects the "freezing stage": the candidate set has
/// stayed identical and the global objective (sum of best observed
/// accuracies, the observable complement of total regret) has not improved
/// for `patience` consecutive outcomes. It then switches to ROUNDROBIN so
/// the remaining users keep making progress. The paper uses s = 10.
class HybridScheduler : public SchedulerPolicy {
 public:
  explicit HybridScheduler(int patience = 10,
                           Line8Rule rule = Line8Rule::kMaxUcbGap,
                           uint64_t seed = 0)
      : patience_(patience), greedy_(rule, seed) {}

  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// Delegates to the active phase's indexed pick (GREEDY before the
  /// freeze, ROUNDROBIN after), so HYBRID's Next() is fully indexed either
  /// way. The freeze detector runs on the report path instead.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  /// The reference freeze detector: rebuilds the candidate set with the
  /// scan's ComputeCandidateSet, one exact CompareScaled per tenant.
  void OnOutcome(const std::vector<UserState>& users,
                 int served_user) override;
  /// The serving freeze detector, bit-identical to OnOutcome: the same
  /// switch round and the same SaveDurable bytes. It keeps its own copy of
  /// the last candidate set and the last best rewards, and updates them
  /// from the index's change log in O(log T + changed tenants + candidacy
  /// flips): each changed tenant is re-read, and an unchanged tenant can
  /// change membership only when its bound lies between the previous cut
  /// and this one, a range of an ordered set. The summed best reward moves
  /// only with a changed tenant's best, and a rounding bound settles the
  /// regret test without the sum in all but rare near-ties (see
  /// TotalBestRose). The one O(T) pass left rebuilds that state on the
  /// first outcome after construction or LoadDurable, or when the index
  /// keeps no change log. An instance is driven either by OnOutcome or by
  /// OnOutcomeIndexed, never both, as an engine's index setting is fixed.
  void OnOutcomeIndexed(const std::vector<UserState>& users, int served_user,
                        CandidateIndex& index) override;
  std::string name() const override { return "hybrid"; }

  /// Freeze-detector state + both phases' nested policy state.
  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

  /// True once the freeze detector has fired and scheduling is round-robin.
  bool switched() const { return switched_; }

 private:
  /// Re-reads one tenant's key: updates its finite bound in `bounds_` and
  /// its membership bit under `candidacy`. True when the bit flipped.
  bool Reclassify(int id, const CandidateIndex::TenantKey& key,
                  const CandidateIndex::Candidacy& candidacy);
  /// The regret half of the freeze test: "the summed best reward rose by
  /// more than the scan's 1e-12 slack", bit-identical to the scan's naive
  /// sums, and updates the remembered best rewards. `all` re-reads every
  /// tenant, otherwise only those in `changed_`.
  bool TotalBestRose(const std::vector<UserState>& users, bool all);

  int patience_;
  GreedyScheduler greedy_;
  RoundRobinScheduler round_robin_;

  bool switched_ = false;
  int frozen_steps_ = 0;
  bool have_snapshot_ = false;
  // The scan's snapshot of the last outcome. OnOutcomeIndexed keeps it in
  // the tracked state below instead, and SaveDurable writes it from there.
  std::vector<int> last_candidates_;
  double last_total_best_ = 0.0;

  // OnOutcomeIndexed's state (not durable: SaveDurable writes the
  // snapshot it stands for, and LoadDurable drops it so the next outcome
  // rebuilds it). Valid while `tracking_`; per-tenant vectors are sized
  // to the tenant count of the last outcome.
  bool tracking_ = false;
  std::vector<uint8_t> member_;  // in the last candidate set
  std::vector<double> bound_;    // finite schedulable bound, NaN if none
  std::vector<double> best_;     // best reward at the last outcome
  std::set<std::pair<double, int>> bounds_;  // (bound_[id], id), finite
  CandidateIndex::Candidacy last_candidacy_;
  // last_total_best_ equals the naive sum of best_ (false after a rise
  // settled by the rounding bound, which never computes the sum).
  bool total_exact_ = true;
  double max_best_ = 0.0;     // max of best_
  bool plain_bests_ = true;   // every best_ is finite and >= 0
  std::vector<int> changed_;  // TakeChanged buffer
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_HYBRID_H_
