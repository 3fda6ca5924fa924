#include "scheduler/hybrid.h"

#include "common/binary_io.h"
#include "scheduler/candidate_index.h"

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

void HybridScheduler::OnOutcomeIndexed(const std::vector<UserState>& users,
                                       int served_user,
                                       const CandidateIndex& index) {
  (void)served_user;
  if (switched_) return;
  const CandidateIndex::Threshold threshold = index.MergedThreshold();
  const CandidateIndex::Candidacy candidacy =
      CandidateIndex::Candidacy::Of(threshold.bound_sum,
                                    threshold.finite_count);
  // ComputeCandidateSet and TotalBestReward in one pass, bit-identical to
  // OnOutcome: the same ids in ascending order, and the rewards summed in
  // user order from 0.0. (The scan's empty-set fallback never fires: the
  // largest finite bound passes its own mean, and +inf always passes.)
  // Candidacy reads the index keys, which are contiguous and, by the
  // freshness contract, equal to each user's Schedulable() and
  // empirical_bound(); every user has one, since the engines index each
  // tenant they add. The append is branch-free because admission is close
  // to a coin flip per tenant, so a branch on it mispredicts about half
  // the time.
  candidates_.resize(users.size());
  size_t count = 0;
  double total_best = 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    total_best += users[i].best_reward();
    const CandidateIndex::TenantKey& key = index.Key(static_cast<int>(i));
    candidates_[count] = static_cast<int>(i);
    count += static_cast<size_t>(key.schedulable & candidacy.Admits(key.bound));
  }
  candidates_.resize(count);
  const bool frozen = have_snapshot_ && candidates_ == last_candidates_ &&
                      total_best <= last_total_best_ + 1e-12;
  frozen_steps_ = frozen ? frozen_steps_ + 1 : 0;
  last_candidates_.swap(candidates_);
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
