/// EXTENSION (paper Sections 4.5 and 5.3.2, "Single- vs Multi-Devices"):
/// the paper treats the whole GPU pool as one device and argues this beats
/// the one-GPU-per-user alternative because models finish sooner. This
/// bench quantifies that trade-off with `sim::RunSimulation` at
/// `num_devices` = 1 / 2 / 4 / 8: the cluster is split evenly into D
/// devices of 1/D speed (linear scaling), a run of cost c holds one device
/// for c * D, each user runs at most one job at a time, and the budget is
/// half the time one device needs to train every model.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bandit/gp_ucb.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "data/model_features.h"
#include "data/splits.h"
#include "gp/kernel.h"
#include "scheduler/round_robin.h"
#include "sim/simulator.h"

namespace {

using easeml::Rng;
using easeml::Table;

easeml::sim::LossCurve RunRep(const easeml::data::Dataset& ds, int devices,
                              uint64_t seed) {
  Rng rng(seed);
  auto split = easeml::data::SplitUsers(ds.num_users(), 10, rng);
  EASEML_CHECK(split.ok());
  auto features = easeml::data::ComputeModelFeatures(ds, split->train_users);
  EASEML_CHECK(features.ok());
  auto global_mean =
      easeml::data::ComputeGlobalMeanQuality(ds, split->train_users);
  EASEML_CHECK(global_mean.ok());
  for (auto& f : *features) {
    for (double& v : f) v /= std::sqrt(static_cast<double>(f.size()));
  }
  easeml::gp::RbfKernel kernel(0.2, 0.05);
  auto gram = kernel.BuildGram(*features);
  EASEML_CHECK(gram.ok());
  gram->AddToDiagonal(1e-8);

  auto test_ds = ds.SelectUsers(split->test_users);
  EASEML_CHECK(test_ds.ok());
  auto env = easeml::sim::Environment::Create(std::move(*test_ds));
  EASEML_CHECK(env.ok());

  std::vector<easeml::scheduler::UserState> users;
  for (int i = 0; i < env->num_users(); ++i) {
    auto belief = easeml::gp::DiscreteArmGp::Create(
        *gram, 1e-3,
        std::vector<double>(ds.num_models(), *global_mean));
    EASEML_CHECK(belief.ok());
    easeml::bandit::GpUcbOptions ucb;
    ucb.cost_aware = true;
    ucb.costs = env->CostsForUser(i);
    auto policy = easeml::bandit::GpUcbPolicy::CreateUnique(
        std::move(belief).value(), ucb);
    EASEML_CHECK(policy.ok());
    auto state = easeml::scheduler::UserState::Create(
        i, std::move(policy).value(), env->CostsForUser(i));
    EASEML_CHECK(state.ok());
    users.push_back(std::move(state).value());
  }
  easeml::scheduler::RoundRobinScheduler rr;
  easeml::sim::SimulationOptions opts;
  opts.num_devices = devices;
  opts.cost_aware_budget = true;
  opts.budget_fraction = 0.5;
  auto result = easeml::sim::RunSimulation(*env, users, rr, opts);
  EASEML_CHECK(result.ok());
  return std::move(result->curve);
}

void RunFigure() {
  easeml::benchutil::PrintFigureHeader(
      "EXT-DEVICES",
      "Single vs multi device: fixed 8-GPU capacity, 1/2/4/8 devices "
      "(DEEPLEARNING, wall-clock budget)");
  const auto ds = easeml::benchutil::DeepLearning();
  const int reps = easeml::benchutil::BenchReps(30);
  Table table({"devices", "mean_auc", "final_avg_loss", "loss@25%"});
  for (int devices : {1, 2, 4, 8}) {
    std::vector<easeml::sim::LossCurve> curves;
    for (int r = 0; r < reps; ++r) {
      curves.push_back(RunRep(ds, devices, 2000 + r));
    }
    auto agg = easeml::sim::Aggregate(curves);
    EASEML_CHECK(agg.ok());
    const size_t q = agg->grid.size() / 4;
    table.AddRow({std::to_string(devices),
                  Table::FormatDouble(
                      easeml::sim::AreaUnderCurve(agg->grid, agg->mean), 5),
                  Table::FormatDouble(agg->mean.back(), 5),
                  Table::FormatDouble(agg->mean[q], 5)});
  }
  table.Print(std::cout);
  std::cout << "Expected shape: 1 device has the lowest AUC (models return "
               "sooner), matching the paper's single-device design choice; "
               "the gap narrows as models' costs homogenize.\n";
}

void BM_MultiDeviceRep(benchmark::State& state) {
  const auto ds = easeml::benchutil::DeepLearning();
  for (auto _ : state) {
    auto curve = RunRep(ds, 4, 7);
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(BM_MultiDeviceRep);

}  // namespace

int main(int argc, char** argv) {
  RunFigure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
