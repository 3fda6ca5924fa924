#include "scheduler/round_robin.h"

#include <cstdint>

#include "common/binary_io.h"
#include "scheduler/candidate_index.h"

namespace easeml::scheduler {

Result<int> RoundRobinScheduler::PickUser(const std::vector<UserState>& users,
                                          int round) {
  (void)round;
  const int n = static_cast<int>(users.size());
  if (n == 0) return Status::InvalidArgument("RoundRobin: no users");
  for (int step = 0; step < n; ++step) {
    const int candidate = (cursor_ + step) % n;
    if (users[candidate].Schedulable()) {
      cursor_ = (candidate + 1) % n;
      return candidate;
    }
  }
  return Status::FailedPrecondition("RoundRobin: all users exhausted");
}

Result<int> RoundRobinScheduler::PickUserIndexed(
    const std::vector<UserState>& users, int round,
    const CandidateIndex& index) {
  (void)round;
  const int n = static_cast<int>(users.size());
  if (n == 0) return Status::InvalidArgument("RoundRobin: no users");
  // The cursor is a QUERY parameter, not leaf state: the cyclically
  // closest schedulable user is the lowest schedulable id at or after the
  // cursor (an O(log T) suffix descent), else the overall minimum (a root
  // read) once the scan wraps around. The cursor advance is identical.
  int pick = index.MinSchedulableAtLeast(cursor_);
  if (pick == CandidateIndex::kNone) pick = index.Root().min_schedulable;
  if (pick == CandidateIndex::kNone) {
    return Status::FailedPrecondition("RoundRobin: all users exhausted");
  }
  cursor_ = (pick + 1) % n;  // same cursor advance as PickUser
  return pick;
}

void RoundRobinScheduler::SaveDurable(std::string* out) const {
  PutI32(out, cursor_);
}

Status RoundRobinScheduler::LoadDurable(std::string_view* in) {
  int32_t cursor = 0;
  EASEML_RETURN_NOT_OK(GetI32(in, &cursor));
  // Every cursor the scheduler writes is a tenant position, never
  // negative; a negative one would index before the first tenant.
  if (cursor < 0) return Status::DataLoss("round-robin: negative cursor");
  cursor_ = cursor;
  return Status::OK();
}

}  // namespace easeml::scheduler
