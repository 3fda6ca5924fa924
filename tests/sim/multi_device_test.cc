/// `RunSimulation` on D devices (Sections 4.5 and 5.3.2, "Single- vs
/// Multi-Devices"): the cluster is split into D devices of 1/D speed, a run
/// of step cost c holds one device for c * D, and each user runs at most
/// one job at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bandit/gp_ucb.h"
#include "common/rng.h"
#include "scheduler/round_robin.h"
#include "sim/simulator.h"

namespace easeml::sim {
namespace {

data::Dataset RandomDataset(int n, int k, uint64_t seed) {
  Rng rng(seed);
  data::Dataset ds;
  ds.name = "rand";
  ds.quality = linalg::Matrix(n, k);
  ds.cost = linalg::Matrix(n, k);
  for (int i = 0; i < n; ++i) {
    ds.user_names.push_back("u" + std::to_string(i));
    for (int j = 0; j < k; ++j) {
      ds.quality(i, j) = rng.Uniform(0.1, 0.95);
      ds.cost(i, j) = rng.Uniform(0.5, 4.0);
    }
  }
  for (int j = 0; j < k; ++j) {
    ds.model_names.push_back("m" + std::to_string(j));
  }
  return ds;
}

std::vector<scheduler::UserState> MakeGpUsers(const Environment& env) {
  std::vector<scheduler::UserState> users;
  for (int i = 0; i < env.num_users(); ++i) {
    auto belief = gp::DiscreteArmGp::Create(
        linalg::Matrix::Identity(env.num_models()), 0.01);
    EXPECT_TRUE(belief.ok());
    auto policy = bandit::GpUcbPolicy::CreateUnique(
        std::move(belief).value(), bandit::GpUcbOptions());
    EXPECT_TRUE(policy.ok());
    auto state = scheduler::UserState::Create(i, std::move(policy).value(),
                                              env.CostsForUser(i));
    EXPECT_TRUE(state.ok());
    users.push_back(std::move(state).value());
  }
  return users;
}

/// A cost budget of the whole campaign: the time one device needs to train
/// every model.
SimulationOptions FullBudget(int devices) {
  SimulationOptions opts;
  opts.num_devices = devices;
  opts.cost_aware_budget = true;
  opts.budget_fraction = 1.0;
  return opts;
}

TEST(MultiDeviceTest, ValidatesOptions) {
  auto env = Environment::Create(RandomDataset(3, 4, 1));
  ASSERT_TRUE(env.ok());
  auto users = MakeGpUsers(*env);
  scheduler::RoundRobinScheduler rr;
  SimulationOptions opts;
  opts.num_devices = 0;
  EXPECT_FALSE(RunSimulation(*env, users, rr, opts).ok());
  opts = SimulationOptions();
  opts.budget_fraction = 0.0;
  EXPECT_FALSE(RunSimulation(*env, users, rr, opts).ok());
  opts = SimulationOptions();
  opts.grid_points = 1;
  EXPECT_FALSE(RunSimulation(*env, users, rr, opts).ok());
}

TEST(MultiDeviceTest, SingleDeviceMatchesModelCount) {
  auto env = Environment::Create(RandomDataset(4, 5, 2));
  ASSERT_TRUE(env.ok());
  auto users = MakeGpUsers(*env);
  scheduler::RoundRobinScheduler rr;
  auto result = RunSimulation(*env, users, rr, FullBudget(1));
  ASSERT_TRUE(result.ok());
  // The full budget on one device trains everything.
  EXPECT_EQ(result->steps, 20);
  EXPECT_NEAR(result->curve.avg_loss.back(), 0.0, 1e-12);
  EXPECT_LE(result->makespan, result->budget + 1e-9);
}

TEST(MultiDeviceTest, BusyTimeEqualsScaledCostOfCompletedJobs) {
  auto env = Environment::Create(RandomDataset(3, 4, 3));
  ASSERT_TRUE(env.ok());
  auto users = MakeGpUsers(*env);
  scheduler::RoundRobinScheduler rr;
  auto result = RunSimulation(*env, users, rr, FullBudget(4));
  ASSERT_TRUE(result.ok());
  // Every started run completes, and a run of cost c holds a device for
  // 4c, so the devices are busy for 4 * consumed, at most 4 * makespan.
  // Runs that would overrun the budget are never started (packing is
  // imperfect, so some may be cut even at budget_fraction 1).
  double completed_cost = 0.0;
  for (const auto& u : users) completed_cost += u.consumed_cost();
  EXPECT_NEAR(result->consumed, completed_cost, 1e-9);
  EXPECT_LE(result->consumed, result->makespan + 1e-9);
  EXPECT_LE(result->makespan, result->budget + 1e-9);
  EXPECT_GT(result->steps, 0);
}

TEST(MultiDeviceTest, MoreDevicesOverlapJobs) {
  for (int devices : {1, 4}) {
    auto env = Environment::Create(RandomDataset(6, 4, 4));
    ASSERT_TRUE(env.ok());
    auto users = MakeGpUsers(*env);
    scheduler::RoundRobinScheduler rr;
    auto result = RunSimulation(*env, users, rr, FullBudget(devices));
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->steps, 20);  // near-complete campaign
    const double busy_time = result->consumed * devices;
    if (devices == 1) {
      // Sequential: busy time equals makespan (no overlap possible).
      EXPECT_EQ(busy_time, result->makespan);
    } else {
      // Devices genuinely overlap: device time exceeds the makespan.
      EXPECT_GT(busy_time, result->makespan * 1.5);
    }
  }
}

TEST(MultiDeviceTest, SingleFastDeviceReturnsTheFirstModelSooner) {
  // The verifiable core of the paper's Section-5.3.2 argument: one big
  // device running a model at 8x speed finishes the campaign's first model
  // strictly earlier than eight slow devices starting in parallel.
  for (uint64_t seed = 10; seed < 16; ++seed) {
    double first_single = 0.0, first_multi = 0.0;
    for (int devices : {1, 8}) {
      auto env = Environment::Create(RandomDataset(8, 6, seed));
      ASSERT_TRUE(env.ok());
      auto users = MakeGpUsers(*env);
      scheduler::RoundRobinScheduler rr;
      auto result = RunSimulation(*env, users, rr, FullBudget(devices));
      ASSERT_TRUE(result.ok());
      (devices == 1 ? first_single : first_multi) =
          result->first_completion_time;
    }
    EXPECT_LT(first_single, first_multi) << "seed=" << seed;
  }
}

TEST(MultiDeviceTest, SingleFastDeviceWinsAccumulatedLoss) {
  // The paper's Section-5.3.2 conclusion: with near-linear scaling, the
  // single-device configuration achieves lower accumulated loss than
  // one-device-per-user, because each model returns sooner. Averaged over
  // seeds for robustness.
  double auc_single = 0.0, auc_multi = 0.0;
  for (uint64_t seed = 10; seed < 20; ++seed) {
    for (int devices : {1, 8}) {
      auto env = Environment::Create(RandomDataset(8, 6, seed));
      ASSERT_TRUE(env.ok());
      auto users = MakeGpUsers(*env);
      scheduler::RoundRobinScheduler rr;
      auto result = RunSimulation(*env, users, rr, FullBudget(devices));
      ASSERT_TRUE(result.ok());
      const double auc =
          AreaUnderCurve(result->curve.grid, result->curve.avg_loss);
      (devices == 1 ? auc_single : auc_multi) += auc;
    }
  }
  EXPECT_LT(auc_single, auc_multi);
}

TEST(MultiDeviceTest, LossCurveIsNonIncreasing) {
  auto env = Environment::Create(RandomDataset(5, 5, 6));
  ASSERT_TRUE(env.ok());
  auto users = MakeGpUsers(*env);
  scheduler::RoundRobinScheduler rr;
  SimulationOptions opts = FullBudget(3);
  opts.budget_fraction = 0.6;
  auto result = RunSimulation(*env, users, rr, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->curve.avg_loss.size(); ++i) {
    EXPECT_LE(result->curve.avg_loss[i],
              result->curve.avg_loss[i - 1] + 1e-12);
  }
}

TEST(MultiDeviceTest, RespectsWallClockBudget) {
  auto env = Environment::Create(RandomDataset(5, 5, 7));
  ASSERT_TRUE(env.ok());
  auto users = MakeGpUsers(*env);
  scheduler::RoundRobinScheduler rr;
  SimulationOptions opts = FullBudget(2);
  opts.budget_fraction = 0.3;
  auto result = RunSimulation(*env, users, rr, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->makespan, result->budget + 1e-9);
  EXPECT_LT(result->steps, 25);
}

/// Round robin that records, on every call the loop makes, which (user,
/// arm) selections are in flight, and checks that no user has two and that
/// the user it returns has none.
class OneJobPerUserChecker : public scheduler::SchedulerPolicy {
 public:
  using Selections = std::set<std::pair<int, int>>;

  Result<int> PickUser(const std::vector<scheduler::UserState>& users,
                       int round) override {
    picks_.push_back(InFlight(users));
    EASEML_ASSIGN_OR_RETURN(int user, inner_.PickUser(users, round));
    EXPECT_FALSE(users[user].has_pending()) << "picked user " << user;
    return user;
  }

  void OnOutcome(const std::vector<scheduler::UserState>& users,
                 int served_user) override {
    outcomes_.push_back(InFlight(users));
    inner_.OnOutcome(users, served_user);
  }

  std::string name() const override { return "one-job-per-user"; }

  /// In-flight selections seen at each `PickUser` / `OnOutcome` call.
  const std::vector<Selections>& picks() const { return picks_; }
  const std::vector<Selections>& outcomes() const { return outcomes_; }

  static Selections InFlight(const std::vector<scheduler::UserState>& users) {
    Selections in_flight;
    for (const auto& u : users) {
      EXPECT_LE(u.in_flight_count(), 1) << "user " << u.user_id();
      for (int arm = 0; arm < u.num_models(); ++arm) {
        if (u.InFlight(arm)) in_flight.emplace(u.user_id(), arm);
      }
    }
    return in_flight;
  }

 private:
  scheduler::RoundRobinScheduler inner_;
  std::vector<Selections> picks_;
  std::vector<Selections> outcomes_;
};

/// Selections in `seen` that are running jobs: every run completes before
/// the campaign returns, so a selection still in flight at the end is one
/// that did not fit the budget and never held a device.
int RunningJobs(const OneJobPerUserChecker::Selections& seen,
                const OneJobPerUserChecker::Selections& never_run) {
  int running = 0;
  for (const auto& selection : seen) running += !never_run.count(selection);
  return running;
}

TEST(MultiDeviceTest, NeverRunsTwoJobsForOneUser) {
  int never_run_total = 0;
  for (uint64_t seed : {11u, 29u}) {
    for (int devices : {2, 4, 8}) {
      auto env = Environment::Create(RandomDataset(8, 5, seed));
      ASSERT_TRUE(env.ok());
      auto users = MakeGpUsers(*env);
      OneJobPerUserChecker checker;
      auto result = RunSimulation(*env, users, checker, FullBudget(devices));
      ASSERT_TRUE(result.ok());
      const auto never_run = OneJobPerUserChecker::InFlight(users);
      never_run_total += static_cast<int>(never_run.size());
      ASSERT_FALSE(checker.picks().empty());
      int busiest = 0;
      for (const auto& seen : checker.picks()) {
        // A pick happens only while a device is free.
        EXPECT_LE(RunningJobs(seen, never_run), devices - 1)
            << "seed=" << seed << " devices=" << devices;
        busiest = std::max(busiest, RunningJobs(seen, never_run));
      }
      for (const auto& seen : checker.outcomes()) {
        // The completed run has just given its device back.
        EXPECT_LE(RunningJobs(seen, never_run), devices - 1)
            << "seed=" << seed << " devices=" << devices;
      }
      // The devices were kept busy: some pick found D - 1 runs in flight.
      EXPECT_EQ(busiest, devices - 1)
          << "seed=" << seed << " devices=" << devices;
      EXPECT_GE(result->steps, 30)
          << "seed=" << seed << " devices=" << devices;
    }
  }
  // The never-run selections were exercised, not just assumed away.
  EXPECT_GT(never_run_total, 0);
}

}  // namespace
}  // namespace easeml::sim
