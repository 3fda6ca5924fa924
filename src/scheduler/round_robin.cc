#include "scheduler/round_robin.h"

#include <algorithm>
#include <utility>

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
  // The cursor is a QUERY parameter, not leaf state: per shard, the
  // cyclically-closest schedulable user is the lowest schedulable id at or
  // after the cursor (an O(log T) suffix descent) — whose distance always
  // beats any wrapped-around id — else the shard's overall minimum (root
  // read). Distances are distinct across users, so the min-merge has the
  // scan's unique winner; the cursor advance is identical.
  constexpr int kNone = CandidateIndex::kNone;
  std::pair<int, int> winner{kNone, kNone};  // (cyclic distance, user)
  for (int s = 0; s < index.num_shards(); ++s) {
    int pick = index.MinSchedulableAtLeast(s, cursor_);
    if (pick == kNone) pick = index.Root(s).min_schedulable;
    if (pick == kNone) continue;
    winner = std::min(winner, {(pick - cursor_ + n) % n, pick});
  }
  if (winner.second == kNone) {
    return Status::FailedPrecondition("RoundRobin: all users exhausted");
  }
  cursor_ = (winner.second + 1) % n;  // same cursor advance as PickUser
  return winner.second;
}


void RoundRobinScheduler::SaveDurable(std::string* out) const {
  PutI32(out, cursor_);
}

Status RoundRobinScheduler::LoadDurable(std::string_view* in) {
  return GetI32(in, &cursor_);
}

}  // namespace easeml::scheduler
