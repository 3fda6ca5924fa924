#include "scheduler/fcfs.h"

#include <algorithm>

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
  // min_schedulable is maintained at every tournament root; the min-merge
  // across shards is the scan's first hit, read in O(N) with no scan.
  int winner = CandidateIndex::kNone;
  for (int s = 0; s < index.num_shards(); ++s) {
    winner = std::min(winner, index.Root(s).min_schedulable);
  }
  if (winner == CandidateIndex::kNone) {
    return Status::FailedPrecondition("FCFS: all users exhausted");
  }
  return winner;
}

}  // namespace easeml::scheduler
