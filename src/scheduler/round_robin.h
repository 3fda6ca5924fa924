#ifndef EASEML_SCHEDULER_ROUND_ROBIN_H_
#define EASEML_SCHEDULER_ROUND_ROBIN_H_

#include "scheduler/scheduler_policy.h"

namespace easeml::scheduler {

/// ROUNDROBIN (Section 4.2): serves users cyclically, skipping exhausted
/// ones. Enforces absolute fairness; Theorem 2 proves its regret bound.
class RoundRobinScheduler : public SchedulerPolicy {
 public:
  Result<int> PickUser(const std::vector<UserState>& users,
                       int round) override;
  /// Index-backed pick: the cursor shift is applied at READ time (lowest
  /// schedulable id >= cursor via suffix descent, else the root minimum),
  /// so advancing the cursor never touches a leaf.
  Result<int> PickUserIndexed(const std::vector<UserState>& users, int round,
                              const CandidateIndex& index) override;
  std::string name() const override { return "round-robin"; }

  void SaveDurable(std::string* out) const override;
  Status LoadDurable(std::string_view* in) override;

 private:
  int cursor_ = 0;  // next user position to try
};

}  // namespace easeml::scheduler

#endif  // EASEML_SCHEDULER_ROUND_ROBIN_H_
