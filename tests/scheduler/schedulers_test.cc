#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bandit/gp_ucb.h"
#include "common/binary_io.h"
#include "linalg/matrix.h"
#include "scheduler/candidate_index.h"
#include "scheduler/fcfs.h"
#include "scheduler/random_scheduler.h"
#include "scheduler/round_robin.h"
#include "scheduler/user_state.h"

namespace easeml::scheduler {
namespace {

std::vector<UserState> MakeUsers(int n, int k) {
  std::vector<UserState> users;
  for (int i = 0; i < n; ++i) {
    auto belief =
        gp::DiscreteArmGp::Create(linalg::Matrix::Identity(k), 0.01);
    EXPECT_TRUE(belief.ok());
    auto policy = bandit::GpUcbPolicy::CreateUnique(
        std::move(belief).value(), bandit::GpUcbOptions());
    EXPECT_TRUE(policy.ok());
    auto state = UserState::Create(i, std::move(policy).value(),
                                   std::vector<double>(k, 1.0));
    EXPECT_TRUE(state.ok());
    users.push_back(std::move(state).value());
  }
  return users;
}

void Exhaust(UserState& u) {
  while (!u.Exhausted()) {
    auto arm = u.SelectArm();
    ASSERT_TRUE(arm.ok());
    ASSERT_TRUE(u.RecordOutcome(*arm, 0.5).ok());
  }
}

TEST(RoundRobinTest, CyclesThroughUsers) {
  auto users = MakeUsers(3, 4);
  RoundRobinScheduler rr;
  std::vector<int> picks;
  for (int t = 1; t <= 6; ++t) {
    auto u = rr.PickUser(users, t);
    ASSERT_TRUE(u.ok());
    picks.push_back(*u);
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(rr.name(), "round-robin");
}

TEST(RoundRobinTest, SkipsExhaustedUsers) {
  auto users = MakeUsers(3, 2);
  Exhaust(users[1]);
  RoundRobinScheduler rr;
  std::vector<int> picks;
  for (int t = 1; t <= 4; ++t) {
    auto u = rr.PickUser(users, t);
    ASSERT_TRUE(u.ok());
    picks.push_back(*u);
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 2, 0, 2}));
}

TEST(RoundRobinTest, FailsWhenAllExhausted) {
  auto users = MakeUsers(2, 1);
  Exhaust(users[0]);
  Exhaust(users[1]);
  RoundRobinScheduler rr;
  EXPECT_FALSE(rr.PickUser(users, 1).ok());
}

/// A checkpoint's cursor is a tenant position; a negative one (corrupt
/// state that passed the CRC) would make the scan pick read before the
/// first tenant, so the load refuses it. A saved cursor round-trips.
TEST(RoundRobinTest, LoadDurableRejectsNegativeCursor) {
  auto users = MakeUsers(3, 4);
  RoundRobinScheduler saved;
  ASSERT_TRUE(saved.PickUser(users, 1).ok());
  std::string good;
  saved.SaveDurable(&good);
  std::string_view in = good;
  RoundRobinScheduler loaded;
  ASSERT_TRUE(loaded.LoadDurable(&in).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(*loaded.PickUser(users, 2), 1);

  std::string corrupt;
  PutI32(&corrupt, -1);
  in = corrupt;
  EXPECT_EQ(loaded.LoadDurable(&in).code(), StatusCode::kDataLoss);
}

// A restored cursor at or past the tenant count wraps modulo T on both
// pick paths: the index descent starts at cursor % T, where the scan's
// first probe lands, and the advanced cursors match too.
TEST(RoundRobinTest, IndexedPickWrapsARestoredCursorLikeTheScan) {
  auto users = MakeUsers(5, 2);
  CandidateIndex index(/*track_gap=*/false);
  for (const UserState& u : users) index.AppendTenant(u);
  for (int cursor : {7, 12}) {
    SCOPED_TRACE("cursor " + std::to_string(cursor));
    std::string blob;
    PutI32(&blob, cursor);
    RoundRobinScheduler scan;
    RoundRobinScheduler indexed;
    std::string_view in = blob;
    ASSERT_TRUE(scan.LoadDurable(&in).ok());
    in = blob;
    ASSERT_TRUE(indexed.LoadDurable(&in).ok());
    for (int round = 1; round <= 3; ++round) {
      const Result<int> want = scan.PickUser(users, round);
      const Result<int> got = indexed.PickUserIndexed(users, round, index);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(*got, *want) << "round " << round;
      std::string want_state;
      std::string got_state;
      scan.SaveDurable(&want_state);
      indexed.SaveDurable(&got_state);
      EXPECT_EQ(got_state, want_state) << "round " << round;
    }
  }
}

TEST(RandomSchedulerTest, PicksOnlyActiveUsers) {
  auto users = MakeUsers(4, 2);
  Exhaust(users[0]);
  Exhaust(users[2]);
  RandomScheduler rs(7);
  for (int t = 1; t <= 40; ++t) {
    auto u = rs.PickUser(users, t);
    ASSERT_TRUE(u.ok());
    EXPECT_TRUE(*u == 1 || *u == 3);
  }
}

TEST(RandomSchedulerTest, EventuallyPicksEveryActiveUser) {
  auto users = MakeUsers(5, 3);
  RandomScheduler rs(11);
  std::set<int> seen;
  for (int t = 1; t <= 200; ++t) {
    auto u = rs.PickUser(users, t);
    ASSERT_TRUE(u.ok());
    seen.insert(*u);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomSchedulerTest, DeterministicUnderSeed) {
  auto users = MakeUsers(5, 3);
  RandomScheduler a(3), b(3);
  for (int t = 1; t <= 20; ++t) {
    auto ua = a.PickUser(users, t);
    auto ub = b.PickUser(users, t);
    ASSERT_TRUE(ua.ok());
    ASSERT_TRUE(ub.ok());
    EXPECT_EQ(*ua, *ub);
  }
}

TEST(FcfsTest, ServesFirstUserUntilExhausted) {
  auto users = MakeUsers(3, 2);
  FcfsScheduler fcfs;
  // Serve according to FCFS, executing the picks.
  std::vector<int> picks;
  for (int t = 1; t <= 6; ++t) {
    auto u = fcfs.PickUser(users, t);
    ASSERT_TRUE(u.ok());
    picks.push_back(*u);
    auto arm = users[*u].SelectArm();
    ASSERT_TRUE(arm.ok());
    ASSERT_TRUE(users[*u].RecordOutcome(*arm, 0.5).ok());
  }
  EXPECT_EQ(picks, (std::vector<int>{0, 0, 1, 1, 2, 2}));
}

TEST(FcfsTest, FailsWhenAllExhausted) {
  auto users = MakeUsers(1, 1);
  Exhaust(users[0]);
  FcfsScheduler fcfs;
  EXPECT_FALSE(fcfs.PickUser(users, 1).ok());
}

}  // namespace
}  // namespace easeml::scheduler
