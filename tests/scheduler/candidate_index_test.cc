/// Unit tests for the incremental candidate index: descent queries are
/// checked against brute force over the same keys — including ARTIFICIAL
/// candidacy thresholds that force the pruned-argmax slow path (global
/// argmax not a candidate), which real campaigns hit only occasionally —
/// plus the Validate() invariant under every tenant event.
#include "scheduler/candidate_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bandit/fixed_order.h"
#include "bandit/gp_ucb.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "scheduler/hybrid.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {
namespace {

constexpr int kNone = CandidateIndex::kNone;

UserState MakeGpUser(int id, int k) {
  auto belief = gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), 0.01);
  EXPECT_TRUE(belief.ok());
  auto policy = bandit::GpUcbPolicy::CreateUnique(std::move(belief).value(),
                                                  bandit::GpUcbOptions());
  EXPECT_TRUE(policy.ok());
  auto state = UserState::Create(id, std::move(policy).value(),
                                 std::vector<double>(k, 1.0));
  EXPECT_TRUE(state.ok());
  return std::move(state).value();
}

/// A population in assorted phases: fresh, partially served, in-flight,
/// exhausted, retired — every leaf shape the index must summarize.
std::vector<UserState> MakePopulation(int n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<UserState> users;
  for (int i = 0; i < n; ++i) {
    users.push_back(MakeGpUser(i, k));
    UserState& u = users.back();
    const int steps = rng.UniformInt(0, k);
    for (int s = 0; s < steps && !u.Exhausted(); ++s) {
      auto arm = u.SelectArm();
      EXPECT_TRUE(arm.ok());
      EXPECT_TRUE(u.RecordOutcome(*arm, 0.1 + 0.8 * rng.Uniform()).ok());
    }
    if (!u.Exhausted() && rng.UniformInt(0, 4) == 0) {
      EXPECT_TRUE(u.SelectArm().ok());  // leave one selection in flight
    }
    if (!u.has_pending() && rng.UniformInt(0, 6) == 0) u.Retire();
  }
  return users;
}

/// Places every user in id order, through the engines' only placement
/// path.
void PlaceAll(CandidateIndex& index, const std::vector<UserState>& users) {
  for (const UserState& u : users) index.AppendTenant(u);
}

/// Algorithm 2 line 7 evaluated from first principles — the exact scaled
/// comparison against the threshold's sum, never the cut under test: no
/// finite bound at all admits every schedulable tenant; otherwise +inf
/// always admits, NaN and -inf never, a finite bound iff
/// bound * finite >= sum exactly.
bool ExactlyAdmits(const CandidateIndex::TenantKey& key,
                   const ExactDoubleSum& sum, int finite) {
  if (!key.schedulable) return false;
  if (finite == 0) return true;
  if (!std::isfinite(key.bound)) return std::isinf(key.bound) && key.bound > 0;
  return sum.CompareScaled(key.bound, finite) >= 0;
}

/// Brute-force argmax over candidates with the scan's fold semantics.
CandidateIndex::Best BruteBest(const CandidateIndex& index, int n,
                               const ExactDoubleSum& sum, int finite,
                               bool use_gap) {
  CandidateIndex::Best best;
  for (int i = 0; i < n; ++i) {
    const CandidateIndex::TenantKey& key = index.Key(i);
    if (!ExactlyAdmits(key, sum, finite)) continue;
    const double value = use_gap ? key.gap : key.bound;
    // The scan's fold: -inf sentinel, strictly-greater wins, ascending ids
    // keep the lowest id among exact ties; NaN never wins.
    if (value > best.key) {
      best.key = value;
      best.user = i;
    }
  }
  return best;
}

int BruteMinCandidate(const CandidateIndex& index, int n,
                      const ExactDoubleSum& sum, int finite) {
  for (int i = 0; i < n; ++i) {
    if (ExactlyAdmits(index.Key(i), sum, finite)) return i;
  }
  return kNone;
}

TEST(CandidateIndexTest, DescentsMatchBruteForceUnderForcedThresholds) {
  constexpr int kUsers = 41;
  constexpr int kModels = 4;
  for (uint64_t seed : {1235, 1237, 1238}) {
    auto users = MakePopulation(kUsers, kModels, seed);
    CandidateIndex index;
    PlaceAll(index, users);
    ASSERT_TRUE(index.Validate(users).ok());

    // The real threshold, read off the root and the running sum, checked
    // against a fresh pass over the keys...
    const ExactDoubleSum& real_sum = index.bound_sum();
    const int real_finite = index.finite_count();
    ExactDoubleSum fresh_sum;
    int fresh_finite = 0;
    int schedulable = 0;
    for (int i = 0; i < kUsers; ++i) {
      const CandidateIndex::TenantKey& key = index.Key(i);
      if (!key.schedulable) continue;
      ++schedulable;
      if (std::isfinite(key.bound)) {
        fresh_sum.Add(key.bound);
        ++fresh_finite;
      }
    }
    EXPECT_EQ(index.Root().cnt_schedulable, schedulable);
    EXPECT_EQ(index.Root().min_bad_policy, kNone);
    EXPECT_EQ(real_finite, fresh_finite);
    EXPECT_EQ(real_sum.Compare(fresh_sum), 0);
    // ...plus artificial ones that push the threshold through the whole
    // bound range, forcing every pruning branch: thresholds between the
    // minimum and far above the maximum (global argmax not a candidate).
    std::vector<std::pair<ExactDoubleSum, int>> contexts;
    contexts.emplace_back(real_sum, real_finite);
    for (double target : {0.0, 0.5, 1.0, 2.0, 5.0, 50.0}) {
      ExactDoubleSum forced;  // mean == target, so candidacy = bound >= target
      forced.Add(target);
      contexts.emplace_back(forced, 1);
    }
    // Thresholds AT real bounds, where a cut off by one ulp would flip a
    // tenant: a mean equal to a bound (the tenant must pass), and means
    // one least-subnormal above or below it over three tenants (the mean
    // is then not a double; the bound must fail, resp. pass).
    for (int i = 0; i < kUsers; i += 5) {
      const CandidateIndex::TenantKey& key = index.Key(i);
      if (!key.schedulable || !std::isfinite(key.bound)) continue;
      ExactDoubleSum tie;
      tie.Add(key.bound);
      contexts.emplace_back(tie, 1);
      for (double nudge : {5e-324, -5e-324}) {
        ExactDoubleSum near;
        near.AddProduct(key.bound, 3);
        near.Add(nudge);
        contexts.emplace_back(near, 3);
      }
    }
    contexts.emplace_back(ExactDoubleSum(), 0);  // all-candidates mode

    for (const auto& [sum, finite] : contexts) {
      const CandidateIndex::Candidacy candidacy =
          CandidateIndex::Candidacy::Of(sum, finite);
      for (bool use_gap : {true, false}) {
        const CandidateIndex::Best got =
            index.BestCandidate(candidacy, use_gap);
        const CandidateIndex::Best expected =
            BruteBest(index, kUsers, sum, finite, use_gap);
        EXPECT_EQ(got.user, expected.user)
            << "seed=" << seed << " finite=" << finite
            << " use_gap=" << use_gap;
        if (expected.user != kNone) {
          EXPECT_EQ(got.key, expected.key);
        }
      }
      EXPECT_EQ(index.MinCandidate(candidacy),
                BruteMinCandidate(index, kUsers, sum, finite))
          << "seed=" << seed << " finite=" << finite;
    }

    // Suffix queries against brute force, at every boundary.
    std::vector<int> ascending;  // schedulable ids, brute force
    for (int i = 0; i < kUsers; ++i) {
      if (index.Key(i).schedulable) ascending.push_back(i);
    }
    for (int floor_id = 0; floor_id <= kUsers; ++floor_id) {
      const auto it =
          std::lower_bound(ascending.begin(), ascending.end(), floor_id);
      const int expected = it == ascending.end() ? kNone : *it;
      EXPECT_EQ(index.MinSchedulableAtLeast(floor_id), expected)
          << "floor=" << floor_id;
    }
    // The rank descent at every rank, one past each end included.
    for (int rank = -1; rank <= kUsers; ++rank) {
      const bool in_range =
          rank >= 0 && rank < static_cast<int>(ascending.size());
      EXPECT_EQ(index.SchedulableAtRank(rank),
                in_range ? ascending[static_cast<size_t>(rank)] : kNone)
          << "rank=" << rank;
    }
  }
}

/// The cut-based test keeps the scan's rules for non-finite bounds: +inf
/// always admits, NaN and -inf never — unless no finite bound exists, in
/// which case every schedulable tenant is a candidate.
TEST(CandidateIndexTest, CandidacyKeepsTheScanRulesForNonFiniteBounds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  ExactDoubleSum sum;
  for (double b : {0.25, 0.5, 0.75}) sum.Add(b);  // mean exactly 0.5
  const auto candidacy = CandidateIndex::Candidacy::Of(sum, 3);
  EXPECT_TRUE(candidacy.Admits(kInf));
  EXPECT_FALSE(candidacy.Admits(kNaN));
  EXPECT_FALSE(candidacy.Admits(-kInf));
  EXPECT_TRUE(candidacy.Admits(0.5));
  EXPECT_FALSE(candidacy.Admits(std::nextafter(0.5, 0.0)));
  // A mean above every finite double: only +inf admits.
  ExactDoubleSum huge;
  huge.AddProduct(kMax, 2);
  const auto unreachable = CandidateIndex::Candidacy::Of(huge, 1);
  EXPECT_TRUE(unreachable.Admits(kInf));
  EXPECT_FALSE(unreachable.Admits(kMax));
  EXPECT_FALSE(unreachable.Admits(kNaN));
  // No finite bound at all: the scan's all-candidates fallback.
  const auto all = CandidateIndex::Candidacy::Of(ExactDoubleSum(), 0);
  for (double b : {kInf, kNaN, -kInf, 0.0}) EXPECT_TRUE(all.Admits(b));
}

/// Runs one outcome through HYBRID's scan detector and its index-fed twin
/// and expects identical durable bytes.
void ExpectSameFreezeState(HybridScheduler& scan, HybridScheduler& indexed,
                           const std::vector<UserState>& users,
                           CandidateIndex& index, const std::string& label) {
  scan.OnOutcome(users, 0);
  indexed.OnOutcomeIndexed(users, 0, index);
  std::string want;
  std::string got;
  scan.SaveDurable(&want);
  indexed.SaveDurable(&got);
  EXPECT_EQ(got, want) << label;
}

/// HYBRID's index-fed freeze pass against its scan reference on raw
/// populations, including a shape engine campaigns rarely reach: the
/// all-candidates mode (no finite bound) beside tenants that are not
/// schedulable (exhausted, capped by an in-flight selection). Patience 2,
/// so the third call on an unchanged population fires the switch.
TEST(CandidateIndexTest, HybridFreezePassMatchesScanOnEveryLeafShape) {
  std::vector<std::vector<UserState>> populations;
  for (uint64_t seed : {3, 17, 29}) {
    populations.push_back(MakePopulation(23, 4, seed));
  }
  std::vector<UserState> edge;
  edge.push_back(MakeGpUser(0, 2));  // exhausted after two outcomes
  for (int s = 0; s < 2; ++s) {
    auto arm = edge[0].SelectArm();
    ASSERT_TRUE(arm.ok());
    ASSERT_TRUE(edge[0].RecordOutcome(*arm, 0.5).ok());
  }
  edge.push_back(MakeGpUser(1, 3));  // fresh: bound +inf, schedulable
  edge.push_back(MakeGpUser(2, 3));  // fresh, but its one slot is in flight
  ASSERT_TRUE(edge[2].SelectArm().ok());
  populations.push_back(std::move(edge));

  for (size_t p = 0; p < populations.size(); ++p) {
    // Without a change log every call is the O(T) rebuild; with one, the
    // calls after the first take the incremental path.
    for (bool log_changes : {false, true}) {
      const std::vector<UserState>& users = populations[p];
      CandidateIndex index(/*track_gap=*/true, log_changes);
      PlaceAll(index, users);
      HybridScheduler scan(/*patience=*/2);
      HybridScheduler indexed(/*patience=*/2);
      for (int call = 0; call < 3; ++call) {
        ExpectSameFreezeState(scan, indexed, users, index,
                              "population " + std::to_string(p) + ", log " +
                                  std::to_string(log_changes) + ", call " +
                                  std::to_string(call));
      }
      EXPECT_TRUE(indexed.switched()) << "population " << p;
    }
  }
}

void ServeOnce(UserState& u, double reward) {
  auto arm = u.SelectArm();
  ASSERT_TRUE(arm.ok());
  ASSERT_TRUE(u.RecordOutcome(*arm, reward).ok());
}

/// The regret half of HYBRID's freeze test on rises too small for the
/// rounding bound to settle, so the index-fed detector must fall back to
/// the scan's naive sums. One tenant's best reward rises while no key that
/// decides candidacy moves: the tenant is in flight before the outcome and
/// exhausted after it, so it is in no candidate set and no bound sum. With
/// patience 1 the second outcome switches iff the scan finds the total
/// "not dropped". Two rises: 5e-13, under the scan's 1e-12 slack; and 13
/// ulps of 512 (about 1.48e-12), over the slack but lost to the rounding
/// of a sum of 9728, where the scan still finds no drop.
TEST(CandidateIndexTest, HybridRegretTestMatchesScanOnNearTieRises) {
  const struct {
    const char* what;
    double others;  // best reward of the nine bystanders
    double before;  // the riser's best before the outcome
    double after;   // and after it
  } kCases[] = {
      {"rise of 5e-13", 0.25, 0.5, 0.5 + 5e-13},
      {"rise lost to rounding", 1024.0, 512.0, 512.0 + 13 * 0x1p-43},
  };
  for (const auto& c : kCases) {
    std::vector<UserState> users;
    for (int i = 0; i < 9; ++i) {
      users.push_back(MakeGpUser(i, 3));
      ServeOnce(users.back(), c.others);
    }
    users.push_back(MakeGpUser(9, 2));
    UserState& riser = users.back();
    ServeOnce(riser, c.before);
    auto arm = riser.SelectArm();
    ASSERT_TRUE(arm.ok());
    CandidateIndex index(/*track_gap=*/true, /*log_changes=*/true);
    PlaceAll(index, users);
    HybridScheduler scan(/*patience=*/1);
    HybridScheduler indexed(/*patience=*/1);
    ExpectSameFreezeState(scan, indexed, users, index,
                          std::string(c.what) + ", first outcome");
    ASSERT_FALSE(scan.switched());

    ASSERT_TRUE(riser.RecordOutcome(*arm, c.after).ok());
    ASSERT_TRUE(riser.Exhausted());
    ASSERT_GT(riser.best_reward(), c.before);
    index.Refresh(riser);
    ExpectSameFreezeState(scan, indexed, users, index,
                          std::string(c.what) + ", second outcome");
    EXPECT_TRUE(scan.switched()) << c.what << ": the scan saw a drop";
    EXPECT_TRUE(indexed.switched()) << c.what;
  }
}

/// LoadDurable replaces whatever the index-fed detector tracked before: a
/// detector that followed one population and then loads the state the
/// scan reached on another must carry on exactly like that scan.
TEST(CandidateIndexTest, HybridFreezeDetectorRestartsFromLoadedState) {
  const auto first = MakePopulation(23, 4, 3);
  const auto second = MakePopulation(23, 4, 17);
  CandidateIndex first_index(/*track_gap=*/true, /*log_changes=*/true);
  PlaceAll(first_index, first);
  CandidateIndex second_index(/*track_gap=*/true, /*log_changes=*/true);
  PlaceAll(second_index, second);
  HybridScheduler scan(/*patience=*/2);
  HybridScheduler indexed(/*patience=*/2);
  indexed.OnOutcomeIndexed(first, 0, first_index);
  scan.OnOutcome(second, 0);
  std::string state;
  scan.SaveDurable(&state);
  std::string_view in = state;
  ASSERT_TRUE(indexed.LoadDurable(&in).ok());
  for (int call = 0; call < 2; ++call) {
    ExpectSameFreezeState(scan, indexed, second, second_index,
                          "call " + std::to_string(call));
  }
  EXPECT_TRUE(indexed.switched());
}

/// A tenant policy with one fixed confidence bound B for every arm. A NaN
/// or -inf bound leaves the tenant's sigma~ NaN or -inf after its first
/// outcome: keys no GP-UCB tenant produces, which line 7 admits only in
/// the all-candidates mode (no finite bound anywhere).
class FixedBoundPolicy : public bandit::BanditPolicy {
 public:
  FixedBoundPolicy(int arms, double ucb) : arms_(arms), ucb_(ucb) {}
  int num_arms() const override { return arms_; }
  Result<int> SelectArm(const std::vector<int>& available, int t) override {
    (void)t;
    if (available.empty()) return Status::InvalidArgument("no arm left");
    return available.front();
  }
  Status Update(int arm, double reward) override {
    (void)arm;
    (void)reward;
    return Status::OK();
  }
  std::string name() const override { return "fixed-bound"; }
  bool HasConfidenceBounds() const override { return true; }
  double Ucb(int arm, int t) const override {
    (void)arm;
    (void)t;
    return ucb_;
  }
  double MaxUcb(const std::vector<int>& arms, int t) const override {
    (void)t;
    return arms.empty() ? -std::numeric_limits<double>::infinity() : ucb_;
  }

 private:
  int arms_;
  double ucb_;
};

UserState MakeFixedBoundUser(int id, int k, double ucb) {
  auto state = UserState::Create(
      id, std::make_unique<FixedBoundPolicy>(k, ucb),
      std::vector<double>(k, 1.0));
  EXPECT_TRUE(state.ok());
  return std::move(state).value();
}

/// HYBRID's index-fed detector through the scan's all-candidates mode.
/// When the one tenant with a finite bound goes in flight, no finite bound
/// is left and every schedulable tenant is a candidate, including the two
/// whose sigma~ is NaN and -inf although neither key changed; when its
/// outcome lands they drop out again. The durable bytes must match the
/// scan after every event, with the change log (the incremental path) and
/// without it (the O(T) rebuild on every call).
TEST(CandidateIndexTest, HybridFreezeDetectorFollowsAllCandidatesMode) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (bool log_changes : {false, true}) {
    std::vector<UserState> users;
    users.push_back(MakeFixedBoundUser(0, 3, kNaN));
    ServeOnce(users.back(), 0.5);
    users.push_back(MakeFixedBoundUser(1, 3, -kInf));
    ServeOnce(users.back(), 0.5);
    users.push_back(MakeGpUser(2, 3));  // fresh: bound +inf
    users.push_back(MakeGpUser(3, 3));  // the one finite bound
    ServeOnce(users.back(), 0.4);
    users.push_back(MakeGpUser(4, 2));  // exhausted
    ServeOnce(users.back(), 0.3);
    ServeOnce(users.back(), 0.6);
    ASSERT_TRUE(std::isnan(users[0].empirical_bound()));
    ASSERT_EQ(users[1].empirical_bound(), -kInf);
    ASSERT_TRUE(std::isfinite(users[3].empirical_bound()));

    CandidateIndex index(/*track_gap=*/true, log_changes);
    PlaceAll(index, users);
    HybridScheduler scan(/*patience=*/100);
    HybridScheduler indexed(/*patience=*/100);
    const std::string label = "log=" + std::to_string(log_changes) + ", ";
    ExpectSameFreezeState(scan, indexed, users, index, label + "start");

    auto arm = users[3].SelectArm();
    ASSERT_TRUE(arm.ok());
    index.Refresh(users[3]);
    ASSERT_EQ(index.finite_count(), 0);
    ExpectSameFreezeState(scan, indexed, users, index,
                          label + "all-candidates mode");
    ExpectSameFreezeState(scan, indexed, users, index,
                          label + "all-candidates mode, unchanged");

    ASSERT_TRUE(users[3].RecordOutcome(*arm, 0.45).ok());
    index.Refresh(users[3]);
    ExpectSameFreezeState(scan, indexed, users, index,
                          label + "finite cut again");

    ServeOnce(users[2], 0.2);
    index.Refresh(users[2]);
    ExpectSameFreezeState(scan, indexed, users, index,
                          label + "two finite bounds");
  }
}

/// The threshold a pick reads (the root's counts and lowest ids, the
/// running bound sum and its count) must follow every kind of event: after
/// each append (of served tenants, whose finite bounds enter the sum) and
/// each refresh it must equal that of a fresh index over the same users.
TEST(CandidateIndexTest, RunningThresholdFollowsEveryEvent) {
  auto users = MakePopulation(13, 3, 41);
  CandidateIndex index;
  size_t placed = 0;
  const auto expect_fresh = [&](const std::string& label) {
    CandidateIndex fresh;
    for (size_t i = 0; i < placed; ++i) fresh.AppendTenant(users[i]);
    EXPECT_EQ(index.Root().cnt_schedulable, fresh.Root().cnt_schedulable)
        << label;
    EXPECT_EQ(index.Root().min_bad_policy, fresh.Root().min_bad_policy)
        << label;
    EXPECT_EQ(index.finite_count(), fresh.finite_count()) << label;
    EXPECT_EQ(index.bound_sum().Compare(fresh.bound_sum()), 0) << label;
  };
  for (const UserState& u : users) {
    index.AppendTenant(u);
    ++placed;
    expect_fresh("after appending " + std::to_string(u.user_id()));
  }
  for (UserState& u : users) {
    if (!u.Schedulable()) continue;
    ASSERT_TRUE(u.SelectArm().ok());
    index.Refresh(u);
    expect_fresh("after selecting for " + std::to_string(u.user_id()));
  }
}

/// Leaf slot = tenant id: an append that is not the next slot is a broken
/// engine, and the index refuses it rather than misplace the tenant.
TEST(CandidateIndexTest, AppendTenantRefusesAnIdThatIsNotTheNextSlot) {
  const auto users = MakePopulation(3, 2, 5);
  CandidateIndex index;
  index.AppendTenant(users[0]);
  EXPECT_DEATH(index.AppendTenant(users[2]), "appended at leaf slot 1");
  EXPECT_DEATH(index.AppendTenant(users[0]), "appended at leaf slot 1");
}

TEST(CandidateIndexTest, RefreshTracksEveryTenantEvent) {
  constexpr int kUsers = 17;
  constexpr int kModels = 3;
  auto users = MakePopulation(kUsers, kModels, 99);
  CandidateIndex index;
  PlaceAll(index, users);
  Rng rng(5);
  for (int step = 0; step < 300; ++step) {
    const int i = rng.UniformInt(0, kUsers - 1);
    UserState& u = users[i];
    if (u.retired()) {
      // retired tenants stay neutral; a refresh must keep them so
    } else if (u.has_pending()) {
      const int arm = [&] {
        for (int a = 0; a < kModels; ++a) {
          if (u.InFlight(a)) return a;
        }
        return -1;
      }();
      if (rng.UniformInt(0, 3) == 0) {
        ASSERT_TRUE(u.CancelSelection(arm).ok());
      } else {
        ASSERT_TRUE(u.RecordOutcome(arm, 0.1 + 0.8 * rng.Uniform()).ok());
      }
    } else if (u.Exhausted()) {
      u.Retire();
    } else if (rng.UniformInt(0, 5) == 0 && !u.has_pending()) {
      u.Retire();
    } else {
      ASSERT_TRUE(u.SelectArm().ok());
    }
    index.Refresh(users[i]);
    if (step % 50 == 49) {
      const Status valid = index.Validate(users);
      ASSERT_TRUE(valid.ok()) << "step " << step << ": " << valid.ToString();
    }
  }
  EXPECT_TRUE(index.Validate(users).ok());
}

TEST(CandidateIndexTest, ValidateCatchesStaleLeaf) {
  constexpr int kUsers = 6;
  auto users = MakePopulation(kUsers, 3, 7);
  CandidateIndex index;
  PlaceAll(index, users);
  ASSERT_TRUE(index.Validate(users).ok());
  // Mutate a tenant WITHOUT refreshing: the invalidation-contract breach
  // the invariant check exists to catch.
  int victim = -1;
  for (int i = 0; i < kUsers; ++i) {
    if (users[i].Schedulable()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, -1);
  ASSERT_TRUE(users[victim].SelectArm().ok());
  const Status stale = index.Validate(users);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kInternal);
  index.Refresh(users[victim]);
  EXPECT_TRUE(index.Validate(users).ok());
}

TEST(CandidateIndexTest, BadPolicyTenantsSurfaceInRoots) {
  std::vector<UserState> users;
  users.push_back(MakeGpUser(0, 3));
  auto fixed = bandit::FixedOrderPolicy::Create({0, 1, 2}, "fixed");
  ASSERT_TRUE(fixed.ok());
  auto state = UserState::Create(
      1, std::make_unique<bandit::FixedOrderPolicy>(std::move(fixed).value()),
      std::vector<double>(3, 1.0));
  ASSERT_TRUE(state.ok());
  users.push_back(std::move(state).value());
  CandidateIndex index;
  PlaceAll(index, users);
  EXPECT_EQ(index.Root().min_bad_policy, 1);
  EXPECT_EQ(index.Root().min_uninitialized, 0);
  EXPECT_EQ(index.Root().cnt_schedulable, 2);
}

}  // namespace
}  // namespace easeml::scheduler
