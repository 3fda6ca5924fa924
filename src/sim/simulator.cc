#include "sim/simulator.h"

#include <algorithm>
#include <functional>
#include <queue>

namespace easeml::sim {

namespace {

/// A training run holding a device until `finish_time`. Runs pop in
/// finish-time order; the heap breaks ties by its own structure, which
/// depends only on the sequence of pushes and pops.
struct Run {
  double finish_time;
  int user;
  int arm;

  bool operator>(const Run& other) const {
    return finish_time > other.finish_time;
  }
};

/// Current average accuracy loss over all users (Appendix A, Eq. 3).
double AverageLoss(const Environment& env,
                   const std::vector<scheduler::UserState>& users) {
  double acc = 0.0;
  for (size_t i = 0; i < users.size(); ++i) {
    acc += env.BestQuality(static_cast<int>(i)) - users[i].best_reward();
  }
  return acc / static_cast<double>(users.size());
}

}  // namespace

Result<SimulationResult> RunSimulation(
    Environment& env, std::vector<scheduler::UserState>& users,
    scheduler::SchedulerPolicy& scheduler, const SimulationOptions& options) {
  const int n = env.num_users();
  if (static_cast<int>(users.size()) != n) {
    return Status::InvalidArgument("RunSimulation: users/env size mismatch");
  }
  for (int i = 0; i < n; ++i) {
    if (users[i].num_models() != env.num_models()) {
      return Status::InvalidArgument(
          "RunSimulation: user arm count mismatch");
    }
  }
  if (options.budget_fraction <= 0.0 || options.budget_fraction > 1.0) {
    return Status::InvalidArgument(
        "RunSimulation: budget_fraction must be in (0, 1]");
  }
  if (options.grid_points < 2) {
    return Status::InvalidArgument("RunSimulation: grid_points < 2");
  }
  if (options.num_devices < 1) {
    return Status::InvalidArgument("RunSimulation: num_devices < 1");
  }

  SimulationResult result;
  result.budget = options.cost_aware_budget
                      ? options.budget_fraction * env.TotalCost()
                      : options.budget_fraction *
                            static_cast<double>(n) * env.num_models();

  const int g = options.grid_points;
  result.curve.grid.resize(g);
  for (int i = 0; i < g; ++i) {
    result.curve.grid[i] = static_cast<double>(i) / (g - 1);
  }
  result.curve.avg_loss.assign(g, 0.0);

  double now = 0.0;
  int next_grid = 0;
  auto record_progress = [&]() {
    const double frac = result.budget > 0.0 ? now / result.budget : 1.0;
    const double loss = AverageLoss(env, users);
    while (next_grid < g && result.curve.grid[next_grid] <= frac + 1e-12) {
      result.curve.avg_loss[next_grid] = loss;
      ++next_grid;
    }
  };
  record_progress();  // grid point 0: no model trained yet

  auto step_cost = [&](int user, int arm) {
    return options.cost_aware_budget ? env.Cost(user, arm) : 1.0;
  };

  std::priority_queue<Run, std::vector<Run>, std::greater<Run>> running;
  int free_devices = options.num_devices;
  int round = 1;
  int sweep_cursor = options.initial_sweep ? 0 : n;

  // Starts runs on the free devices: the initialization sweep first (every
  // user once, in index order), then the scheduler's picks.
  auto launch_runs = [&]() -> Status {
    while (free_devices > 0) {
      // The cursor skips users that already got their first run or have
      // one pending; re-serving a user whose run completed would turn the
      // sweep into FCFS.
      while (sweep_cursor < n &&
             !users[sweep_cursor].NeedsInitialObservation()) {
        ++sweep_cursor;
      }
      int user = sweep_cursor;
      if (sweep_cursor == n) {
        if (std::none_of(users.begin(), users.end(),
                         [](const scheduler::UserState& u) {
                           return u.Schedulable();
                         })) {
          break;  // every user is exhausted or has its run in flight
        }
        EASEML_ASSIGN_OR_RETURN(user, scheduler.PickUser(users, round));
        ++round;
      }
      EASEML_ASSIGN_OR_RETURN(int arm, users[user].SelectArm());
      const double duration = step_cost(user, arm) * options.num_devices;
      if (now + duration > result.budget + 1e-9) {
        // Cannot afford this run; its selection stays pending, which takes
        // the user out of the schedulable set. With one device the
        // campaign is over.
        break;
      }
      running.push(Run{now + duration, user, arm});
      --free_devices;
    }
    return Status::OK();
  };

  EASEML_RETURN_NOT_OK(launch_runs());
  while (!running.empty()) {
    const Run run = running.top();
    running.pop();
    ++free_devices;
    now = run.finish_time;
    const double reward = env.Reward(run.user, run.arm);
    EASEML_RETURN_NOT_OK(users[run.user].RecordOutcome(run.arm, reward));
    scheduler.OnOutcome(users, run.user);
    result.consumed += step_cost(run.user, run.arm);
    if (result.steps == 0) result.first_completion_time = now;
    ++result.steps;
    result.makespan = now;
    // Regret accounting (Section 4.1): C_t is always the true cost of the
    // trained model, independent of the budget mode.
    const double c_t = env.Cost(run.user, run.arm);
    double regret_last = 0.0, regret_best = 0.0;
    for (int i = 0; i < n; ++i) {
      const double best_possible = env.BestQuality(i);
      regret_last += best_possible - (users[i].has_observations()
                                          ? users[i].last_reward()
                                          : 0.0);
      regret_best += best_possible - users[i].best_reward();
    }
    result.cumulative_regret += c_t * regret_last;
    result.easeml_regret += c_t * regret_best;
    record_progress();
    EASEML_RETURN_NOT_OK(launch_runs());
  }

  // Fill the tail of the curve with the final loss.
  const double final_loss = AverageLoss(env, users);
  for (; next_grid < g; ++next_grid) {
    result.curve.avg_loss[next_grid] = final_loss;
  }
  result.final_per_user_loss.resize(n);
  for (int i = 0; i < n; ++i) {
    result.final_per_user_loss[i] =
        env.BestQuality(i) - users[i].best_reward();
  }
  return result;
}

}  // namespace easeml::sim
