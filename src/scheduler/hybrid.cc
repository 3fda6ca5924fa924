#include "scheduler/hybrid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/binary_io.h"

namespace easeml::scheduler {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMax = std::numeric_limits<double>::max();

double TotalBestReward(const std::vector<UserState>& users) {
  double acc = 0.0;
  for (const auto& u : users) acc += u.best_reward();
  return acc;
}

/// TotalBestReward over remembered best rewards: the same naive sum, in
/// the same tenant order, from 0.0.
double NaiveSum(const std::vector<double>& values) {
  double acc = 0.0;
  for (const double v : values) acc += v;
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
                                       CandidateIndex& index) {
  (void)served_user;
  if (switched_) return;
  const CandidateIndex::Candidacy candidacy =
      CandidateIndex::Candidacy::Of(index.bound_sum(), index.finite_count());
  index.TakeChanged(&changed_);
  const size_t n = users.size();
  bool set_changed = false;
  // The O(T) rebuild re-reads every tenant, as if all had changed. The
  // first one after construction or LoadDurable starts from the scan's
  // snapshot; an id beyond the tenant count can only make the sets differ.
  const bool rebuild = !tracking_ || !index.logs_changes();
  if (!tracking_) {
    member_.assign(n, 0);
    for (const int id : last_candidates_) {
      if (static_cast<size_t>(id) < n) {
        member_[static_cast<size_t>(id)] = 1;
      } else {
        set_changed = true;
      }
    }
    bound_.assign(n, kNaN);
    bounds_.clear();
    tracking_ = true;
  }
  // Tenants added since the last outcome were in no set and had best 0.
  member_.resize(n, 0);
  bound_.resize(n, kNaN);
  best_.resize(n, 0.0);
  if (rebuild || candidacy.all_candidates != last_candidacy_.all_candidates) {
    // Entering or leaving the scan's all-candidates fallback flips a
    // schedulable tenant whose bound is NaN or -inf without any change to
    // its key, so such an outcome re-reads every key (no set operation for
    // an unchanged bound). Engine campaigns switch mode rarely.
    for (size_t i = 0; i < n; ++i) {
      const int id = static_cast<int>(i);
      set_changed |= Reclassify(id, index.Key(id), candidacy);
    }
  } else {
    for (const int id : changed_) {
      set_changed |= Reclassify(id, index.Key(id), candidacy);
    }
    if (!candidacy.all_candidates) {
      // An unchanged finite bound b was a member iff b >= the last cut and
      // is one now iff b >= this cut, so it flips iff it lies in [lo, hi).
      // The changed tenants in that range are classified already.
      const double lo = std::min(last_candidacy_.cut, candidacy.cut);
      const double hi = std::max(last_candidacy_.cut, candidacy.cut);
      for (auto it = bounds_.lower_bound({lo, std::numeric_limits<int>::min()});
           it != bounds_.end() && it->first < hi; ++it) {
        const uint8_t in = it->first >= candidacy.cut ? 1 : 0;
        set_changed |= in != member_[static_cast<size_t>(it->second)];
        member_[static_cast<size_t>(it->second)] = in;
      }
    }
  }
  last_candidacy_ = candidacy;
  const bool dropped = TotalBestRose(users, rebuild);
  const bool frozen = have_snapshot_ && !set_changed && !dropped;
  frozen_steps_ = frozen ? frozen_steps_ + 1 : 0;
  have_snapshot_ = true;
  if (frozen_steps_ >= patience_) switched_ = true;
}

bool HybridScheduler::Reclassify(int id, const CandidateIndex::TenantKey& key,
                                 const CandidateIndex::Candidacy& candidacy) {
  const auto i = static_cast<size_t>(id);
  const double bound =
      key.schedulable && std::isfinite(key.bound) ? key.bound : kNaN;
  double& held = bound_[i];
  if (!(held == bound)) {  // moved, or no finite bound on some side
    if (!std::isnan(held)) bounds_.erase({held, id});
    if (!std::isnan(bound)) bounds_.emplace(bound, id);
    held = bound;
  }
  // The scan's membership, as the rebuild pass has always computed it.
  const uint8_t in = key.schedulable && candidacy.Admits(key.bound) ? 1 : 0;
  const bool flipped = in != member_[i];
  member_[i] = in;
  return flipped;
}

bool HybridScheduler::TotalBestRose(const std::vector<UserState>& users,
                                    bool all) {
  // The scan's test is "dropped iff NOT (S' <= fl(S + 1e-12))", where S
  // and S' are the naive sums, in tenant order from 0.0, of the best
  // rewards at the last outcome and now. Best rewards move only in a fold,
  // and every fold refreshes (so logs) its tenant, so only changed tenants
  // can move a summand. While every remembered best is finite and >= 0
  // (always, in the engines: a best starts at 0 and only rises to finite
  // rewards), two outcomes need no sum at all:
  //  1. No summand moved. Then S' == S bit for bit (the same summands in
  //     the same order; tenants added since add +0 at the end), S is not
  //     NaN, and S <= fl(S + 1e-12): not dropped.
  //  2. The summands rose by a clear margin. Let n be the tenant count, m
  //     the largest best now, u = 2^-53, E and E' the exact sums, and
  //     D = E' - E. Recursive summation of n terms errs by at most
  //     gamma_{n-1} * sum|x_i| <= gamma_n * n * m =: e (Higham, Accuracy
  //     and Stability of Numerical Algorithms, 2nd ed., eq. 4.4), with
  //     gamma_n = n*u / (1 - n*u) <= 1.001 * n*u for n < 2^31. Because
  //     fl(S + 1e-12) <= (S + 1e-12)(1 + u), S <= E + e, S' >= E' - e and
  //     E <= n*m, the scan says "dropped" whenever
  //       D > 1e-12 * (1 + u)^2 + 3.01 * n^2 * u * m.
  //     The computed rise r = sum fl(new - old) satisfies
  //     D >= r * (1 - 2^-19), and the computed slack below rounds down by
  //     at most 3u, so r > 1.1e-12 + 4 * n^2 * u * m implies
  //     D > 1.0999e-12 + 3.99 * n^2 * u * m, which clears the bound. The
  //     check that 4*n*m is finite rules out overflow in S and S'.
  // Anything else (a near-tie rise, a fall, a non-finite or negative
  // best, or `all`) recomputes both naive sums from the remembered bests.
  if (!all && plain_bests_) {
    double rise = 0.0;
    double top = max_best_;
    bool moved = false;
    bool rose = true;
    for (const int id : changed_) {
      const double best = users[static_cast<size_t>(id)].best_reward();
      const double held = best_[static_cast<size_t>(id)];
      if (best == held) continue;
      moved = true;
      rose = rose && best > held && best <= kMax;
      rise += best - held;
      top = std::max(top, best);
    }
    if (!moved) return false;
    const double n = static_cast<double>(users.size());
    if (rose && std::isfinite(4.0 * n * top) &&
        rise > 1.1e-12 + 4.0 * n * n * 0x1p-53 * top) {
      for (const int id : changed_) {
        best_[static_cast<size_t>(id)] =
            users[static_cast<size_t>(id)].best_reward();
      }
      max_best_ = top;
      total_exact_ = false;
      return true;
    }
  }
  const double before = total_exact_ ? last_total_best_ : NaiveSum(best_);
  if (all) {
    for (size_t i = 0; i < users.size(); ++i) best_[i] = users[i].best_reward();
  } else {
    for (const int id : changed_) {
      best_[static_cast<size_t>(id)] =
          users[static_cast<size_t>(id)].best_reward();
    }
  }
  double total = 0.0;
  double top = 0.0;
  bool plain = true;
  for (const double b : best_) {
    total += b;
    top = std::max(top, b);
    plain = plain && b >= 0.0 && b <= kMax;
  }
  last_total_best_ = total;
  total_exact_ = true;
  max_best_ = top;
  plain_bests_ = plain;
  return !(total <= before + 1e-12);
}

void HybridScheduler::SaveDurable(std::string* out) const {
  PutU8(out, switched_ ? 1 : 0);
  PutI32(out, frozen_steps_);
  PutU8(out, have_snapshot_ ? 1 : 0);
  if (tracking_) {
    // The snapshot the tracked state stands for, as the scan stores it.
    std::vector<int> candidates;
    for (size_t i = 0; i < member_.size(); ++i) {
      if (member_[i] != 0) candidates.push_back(static_cast<int>(i));
    }
    PutI32Vec(out, candidates);
    PutDouble(out, total_exact_ ? last_total_best_ : NaiveSum(best_));
  } else {
    PutI32Vec(out, last_candidates_);
    PutDouble(out, last_total_best_);
  }
  greedy_.SaveDurable(out);
  round_robin_.SaveDurable(out);
}

Status HybridScheduler::LoadDurable(std::string_view* in) {
  uint8_t switched = 0;
  int32_t frozen_steps = 0;
  uint8_t have_snapshot = 0;
  std::vector<int> candidates;
  double total_best = 0.0;
  EASEML_RETURN_NOT_OK(GetU8(in, &switched));
  EASEML_RETURN_NOT_OK(GetI32(in, &frozen_steps));
  EASEML_RETURN_NOT_OK(GetU8(in, &have_snapshot));
  EASEML_RETURN_NOT_OK(GetI32Vec(in, &candidates));
  EASEML_RETURN_NOT_OK(GetDouble(in, &total_best));
  // Corrupt state that passed the checksum fails here instead of
  // diverging later: every state the detector writes has a non-negative
  // count and a strictly ascending list of tenant ids.
  if (frozen_steps < 0) {
    return Status::DataLoss("hybrid: negative frozen-step count");
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] < 0) {
      return Status::DataLoss("hybrid: negative candidate tenant id");
    }
    if (i > 0 && candidates[i] <= candidates[i - 1]) {
      return Status::DataLoss(
          "hybrid: candidate snapshot is not strictly ascending");
    }
  }
  switched_ = (switched != 0);
  frozen_steps_ = frozen_steps;
  have_snapshot_ = (have_snapshot != 0);
  last_candidates_ = std::move(candidates);
  last_total_best_ = total_best;
  // The next indexed outcome rebuilds its tracked state from this
  // snapshot.
  tracking_ = false;
  total_exact_ = true;
  EASEML_RETURN_NOT_OK(greedy_.LoadDurable(in));
  return round_robin_.LoadDurable(in);
}

}  // namespace easeml::scheduler
