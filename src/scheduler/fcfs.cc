#include "scheduler/fcfs.h"

#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

Result<int> FcfsScheduler::PickUser(const std::vector<UserState>& users,
                                    int round) {
  (void)round;
  for (size_t i = 0; i < users.size(); ++i) {
    if (users[i].Schedulable()) return static_cast<int>(i);
  }
  return Status::FailedPrecondition("FCFS: all users exhausted");
}

Result<int> FcfsScheduler::PickUserIndexed(const std::vector<UserState>& users,
                                           int round,
                                           const CandidateIndex& index) {
  (void)users;
  (void)round;
  // The root's min_schedulable is the scan's first hit, read in O(1).
  const int winner = index.Root().min_schedulable;
  if (winner == CandidateIndex::kNone) {
    return Status::FailedPrecondition("FCFS: all users exhausted");
  }
  return winner;
}

}  // namespace easeml::scheduler
