#include "scheduler/random_scheduler.h"

#include "common/binary_io.h"
#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

Result<int> RandomScheduler::PickUser(const std::vector<UserState>& users,
                                      int round) {
  (void)round;
  const std::vector<int> active = ActiveUsers(users);
  if (active.empty()) {
    return Status::FailedPrecondition("Random: all users exhausted");
  }
  return active[rng_.UniformInt(0, static_cast<int>(active.size()) - 1)];
}

Result<int> RandomScheduler::PickUserIndexed(
    const std::vector<UserState>& users, int round,
    const CandidateIndex& index) {
  (void)users;
  (void)round;
  // The scan draws active[j] from the ascending active list. The index
  // recovers the same user without materializing the list: the
  // schedulable total is a root field (one UniformInt — the RNG stream is
  // identical), and one O(log T) rank descent finds the j-th schedulable
  // id.
  const int total = index.Root().cnt_schedulable;
  if (total == 0) {
    return Status::FailedPrecondition("Random: all users exhausted");
  }
  return index.SchedulableAtRank(rng_.UniformInt(0, total - 1));
}

void RandomScheduler::SaveDurable(std::string* out) const {
  PutString(out, rng_.SaveState());
}

Status RandomScheduler::LoadDurable(std::string_view* in) {
  std::string state;
  EASEML_RETURN_NOT_OK(GetString(in, &state));
  return rng_.LoadState(state);
}

}  // namespace easeml::scheduler
