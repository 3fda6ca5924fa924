#include "scheduler/hybrid.h"

#include "common/binary_io.h"

namespace easeml::scheduler {

namespace {
double TotalBestReward(const std::vector<UserState>& users) {
  double acc = 0.0;
  for (const auto& u : users) acc += u.best_reward();
  return acc;
}
}  // namespace

Result<int> HybridScheduler::PickUser(const std::vector<UserState>& users,
                                      int round) {
  if (switched_) return round_robin_.PickUser(users, round);
  return greedy_.PickUser(users, round);
}

Result<int> HybridScheduler::PickUserIndexed(
    const std::vector<UserState>& users, int round,
    const CandidateIndex& index) {
  if (switched_) return round_robin_.PickUserIndexed(users, round, index);
  return greedy_.PickUserIndexed(users, round, index);
}

void HybridScheduler::OnOutcome(const std::vector<UserState>& users,
                                int served_user) {
  (void)served_user;
  if (switched_) return;
  const std::vector<int> candidates = ComputeCandidateSet(users);
  const double total_best = TotalBestReward(users);
  // "The candidate set remains unchanged and the overall regret does not
  // drop": total regret drops exactly when some user's best accuracy
  // improves, which is observable as an increase of the summed best reward.
  const bool frozen = have_snapshot_ && candidates == last_candidates_ &&
                      total_best <= last_total_best_ + 1e-12;
  frozen_steps_ = frozen ? frozen_steps_ + 1 : 0;
  last_candidates_ = candidates;
  last_total_best_ = total_best;
  have_snapshot_ = true;
  if (frozen_steps_ >= patience_) switched_ = true;
}


void HybridScheduler::SaveDurable(std::string* out) const {
  PutU8(out, switched_ ? 1 : 0);
  PutI32(out, frozen_steps_);
  PutU8(out, have_snapshot_ ? 1 : 0);
  PutI32Vec(out, last_candidates_);
  PutDouble(out, last_total_best_);
  greedy_.SaveDurable(out);
  round_robin_.SaveDurable(out);
}

Status HybridScheduler::LoadDurable(std::string_view* in) {
  uint8_t switched = 0;
  uint8_t have_snapshot = 0;
  EASEML_RETURN_NOT_OK(GetU8(in, &switched));
  EASEML_RETURN_NOT_OK(GetI32(in, &frozen_steps_));
  EASEML_RETURN_NOT_OK(GetU8(in, &have_snapshot));
  EASEML_RETURN_NOT_OK(GetI32Vec(in, &last_candidates_));
  EASEML_RETURN_NOT_OK(GetDouble(in, &last_total_best_));
  switched_ = (switched != 0);
  have_snapshot_ = (have_snapshot != 0);
  EASEML_RETURN_NOT_OK(greedy_.LoadDurable(in));
  return round_robin_.LoadDurable(in);
}

}  // namespace easeml::scheduler
