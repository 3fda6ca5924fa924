#ifndef EASEML_SCHEDULER_HYBRID_H_
#define EASEML_SCHEDULER_HYBRID_H_

#include <vector>

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
  /// The serving freeze detector, bit-identical to OnOutcome. The freeze
  /// test compares whole candidate SETS, so it stays one O(T) pass, but a
  /// cheap one: the threshold comes from the index's merged shard
  /// aggregates, its exact cut is computed once, and each tenant costs one
  /// double compare on its cached index key. Allocation-free once warm:
  /// the set is built in a member buffer that is then swapped with the
  /// snapshot.
  void OnOutcomeIndexed(const std::vector<UserState>& users, int served_user,
                        const CandidateIndex& index) override;
  /// The freeze detector reads every tenant's candidacy and best reward
  /// after each outcome, so the sharded engine folds HYBRID's reports
  /// inline, on its quiesced coordinator, before sequencing it.
  bool ObservesOutcomes() const override { return true; }
  std::string name() const override { return "hybrid"; }

  /// Freeze-detector state + both phases' nested policy state.
  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

  /// True once the freeze detector has fired and scheduling is round-robin.
  bool switched() const { return switched_; }

 private:
  int patience_;
  GreedyScheduler greedy_;
  RoundRobinScheduler round_robin_;

  bool switched_ = false;
  int frozen_steps_ = 0;
  bool have_snapshot_ = false;
  std::vector<int> last_candidates_;
  double last_total_best_ = 0.0;
  // OnOutcomeIndexed's scratch set (not durable state: rebuilt from
  // scratch on every call).
  std::vector<int> candidates_;
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_HYBRID_H_
