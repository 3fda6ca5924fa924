#ifndef EASEML_SIM_SIMULATOR_H_
#define EASEML_SIM_SIMULATOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "scheduler/scheduler_policy.h"
#include "sim/environment.h"
#include "sim/metrics.h"

namespace easeml::sim {

/// Budget, device and sampling configuration of one simulated campaign.
struct SimulationOptions {
  /// If true, a training run's step cost is the model's cost, the budget is
  /// `budget_fraction` of the total training cost of all (user, model)
  /// pairs and the x-axis is "% of total cost" (Figures 9, 11, 13, 14).
  /// Otherwise every run costs 1, the budget is a fraction of the total
  /// number of runs and the x-axis is "% of runs" (Figures 10, 15).
  bool cost_aware_budget = false;

  /// Fraction of the total (runs or cost) the campaign may consume.
  double budget_fraction = 0.5;

  /// Number of samples of the loss curve over [0, 1].
  int grid_points = 101;

  /// Serve every user once (in index order) before regular scheduling —
  /// the initialization sweep of Algorithm 2 lines 1-4. Applied uniformly
  /// to all schedulers for comparability; the sweep consumes budget.
  bool initial_sweep = true;

  /// Devices the cluster is split into (EXTENSION, Sections 4.5 and 5.3.2
  /// "Single- vs Multi-Devices"). 1 is the paper's production setup: the
  /// whole cluster is one device and runs one model at a time.
  int num_devices = 1;
};

/// Outcome of one simulated campaign.
struct SimulationResult {
  LossCurve curve;
  int steps = 0;              // (user, model) trainings executed
  double consumed = 0.0;      // runs or cost consumed
  double budget = 0.0;        // runs or cost allowed
  std::vector<double> final_per_user_loss;

  /// Time of the last completion. With one device it equals `consumed`;
  /// with D devices it is at least `consumed`, since the runs hold the
  /// devices for `consumed * D` in all.
  double makespan = 0.0;

  /// Time at which the campaign's first model finished — the quantity
  /// behind Section 5.3.2's "the single-device strategy returns a model
  /// faster for some users" (one fast device always wins it under linear
  /// scaling).
  double first_completion_time = 0.0;

  /// Cumulative multi-tenant, cost-aware regret (Section 4.1):
  ///   R_T = sum_t C_t * sum_i (mu*_i - X^i_t)
  /// where C_t is the cost of the model trained at step t and X^i_t is the
  /// reward of the model user i chose the last time it was served (0 if
  /// never served). Steps are counted in completion order.
  double cumulative_regret = 0.0;

  /// The ease.ml regret variant R'_T, which replaces X^i_t by the best
  /// reward user i has seen so far (the model `infer` actually serves).
  /// Always <= cumulative_regret.
  double easeml_regret = 0.0;
};

/// Runs one multi-tenant model-selection campaign: whenever a device is
/// free, asks `scheduler` for a user, lets that user's policy pick a model
/// and starts the training run; when the run finishes it reveals the
/// reward, and samples the average accuracy loss
///   l_T = (1/n) sum_i (a*_i - best observed accuracy of user i)
/// on a uniform budget grid (Appendix A, Equations 2-3).
///
/// Time model: the cluster is split evenly into `num_devices` devices, each
/// running at 1/D of the cluster's speed (linear scaling). A run of step
/// cost c holds one device for c * D, so the budget, the clock and the
/// loss-curve axis keep the units of the one-device campaign. A run starts
/// only if it finishes within the budget. Otherwise its selection stays
/// pending for the rest of the campaign, so its user is not scheduled
/// again, and the device waits for the next completion to try another
/// user. The campaign ends when nothing is running and no run can start.
///
/// One job per user: every user keeps `UserState`'s default in-flight cap
/// of 1 (Section 5.3.2 gives each user at most one device), so a user with
/// a run in flight is not schedulable, and the initialization sweep skips
/// users that already have an observation or a pending run. With one device
/// this is the paper's sequential loop: each run completes before the next
/// is picked, and rewards are drawn in selection order.
///
/// `users` must have one UserState per environment user, aligned by index
/// and with costs matching the environment. The campaign stops when the
/// budget is exhausted or every user has trained every model.
Result<SimulationResult> RunSimulation(Environment& env,
                                       std::vector<scheduler::UserState>& users,
                                       scheduler::SchedulerPolicy& scheduler,
                                       const SimulationOptions& options);

}  // namespace easeml::sim

#endif  // EASEML_SIM_SIMULATOR_H_
