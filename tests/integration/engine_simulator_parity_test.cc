/// Differential test: the serving engine reproduces the simulator.
///
/// The paper's figures run on `sim::RunSimulation` (fig09's digit gate pins
/// it); users reach `shard::MakeSelector`. Each campaign here is built both
/// ways, exactly as `core::RunProtocol` builds a GP-UCB strategy: the same
/// test users, one shared RBF prior fitted on the training users, the same
/// per-model costs, the cost-aware index and the initialization sweep (the
/// engine always sweeps). The engine is driven the way the simulator drives
/// its users — `Next`, then `Environment::Reward`, then `Report` — and
/// stops at the first assignment the budget cannot pay for, leaving that
/// ticket unreported. Cumulative regret, ease.ml regret, the step count and
/// the loss curve must agree bit for bit for every policy, shard count,
/// index mode, and with the write-ahead log on and off.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bandit/gp_ucb.h"
#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "data/classifier179.h"
#include "data/deeplearning.h"
#include "data/model_features.h"
#include "data/splits.h"
#include "gp/hyperparameter_tuner.h"
#include "gp/shared_prior_gp.h"
#include "shard/sharded_selector.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/selector_wal.h"

namespace easeml {
namespace {

constexpr double kObservationNoise = 0.02;
constexpr int kGridPoints = 41;

constexpr core::SchedulerKind kAllKinds[] = {
    core::SchedulerKind::kHybrid, core::SchedulerKind::kGreedy,
    core::SchedulerKind::kRoundRobin, core::SchedulerKind::kRandom,
    core::SchedulerKind::kFcfs};

/// One repetition's inputs, built as `RunProtocol` builds them with tuning
/// off: a user split, a constant-mean RBF prior over the training users'
/// model features, and the test users' ground truth with its noise seed.
struct Campaign {
  data::Dataset test_users;
  std::shared_ptr<const gp::SharedGpPrior> prior;
  uint64_t env_seed = 0;
};

Campaign MakeCampaign(const data::Dataset& dataset, int num_test_users,
                      uint64_t seed) {
  Rng rng(seed);
  auto split = data::SplitUsers(dataset.num_users(), num_test_users, rng);
  EXPECT_TRUE(split.ok()) << split.status().ToString();
  auto kernel_users = data::SubsampleIndices(split->train_users, 1.0, rng);
  EXPECT_TRUE(kernel_users.ok()) << kernel_users.status().ToString();
  auto features = data::ComputeModelFeatures(dataset, *kernel_users);
  EXPECT_TRUE(features.ok()) << features.status().ToString();
  const double scale =
      1.0 / std::sqrt(static_cast<double>((*features)[0].size()));
  for (std::vector<double>& f : *features) {
    for (double& v : f) v *= scale;
  }
  auto global_mean = data::ComputeGlobalMeanQuality(dataset, *kernel_users);
  EXPECT_TRUE(global_mean.ok()) << global_mean.status().ToString();
  gp::TunedHyperparameters hp;  // RunProtocol's untuned defaults
  hp.family = gp::KernelFamily::kRbf;
  hp.length_scale = 0.2;
  hp.signal_variance = 0.05;
  hp.noise_variance = 1e-3;
  auto gram = hp.MakeKernel()->BuildGram(*features);
  EXPECT_TRUE(gram.ok()) << gram.status().ToString();
  gram->AddToDiagonal(1e-8);
  auto prior = gp::MakeSharedGpPrior(
      std::move(gram).value(), hp.noise_variance,
      std::vector<double>(dataset.num_models(), *global_mean));
  EXPECT_TRUE(prior.ok()) << prior.status().ToString();
  auto test_users = dataset.SelectUsers(split->test_users);
  EXPECT_TRUE(test_users.ok()) << test_users.status().ToString();
  Campaign campaign;
  campaign.test_users = std::move(test_users).value();
  campaign.prior = std::move(prior).value();
  campaign.env_seed = rng.NextSeed();
  return campaign;
}

sim::Environment MakeEnvironment(const Campaign& campaign) {
  auto env = sim::Environment::Create(campaign.test_users, kObservationNoise,
                                      campaign.env_seed);
  EXPECT_TRUE(env.ok()) << env.status().ToString();
  return std::move(env).value();
}

/// What both loops report; compared with exact equality.
struct Outcome {
  int steps = 0;
  double cumulative_regret = 0.0;
  double easeml_regret = 0.0;
  std::vector<double> curve;
};

sim::SimulationOptions SimOptions(double budget_fraction) {
  sim::SimulationOptions options;
  options.cost_aware_budget = true;
  options.budget_fraction = budget_fraction;
  options.grid_points = kGridPoints;
  options.initial_sweep = true;
  return options;
}

/// The reference: `RunSimulation` over GP-UCB users and the engine's own
/// scheduler policy.
Outcome RunReference(const Campaign& campaign,
                     const core::SelectorOptions& options,
                     double budget_fraction) {
  sim::Environment env = MakeEnvironment(campaign);
  std::vector<scheduler::UserState> users;
  for (int i = 0; i < env.num_users(); ++i) {
    std::vector<double> costs = env.CostsForUser(i);
    auto belief = gp::SharedPriorGp::CreateUnique(campaign.prior);
    EXPECT_TRUE(belief.ok());
    bandit::GpUcbOptions ucb;
    ucb.delta = options.delta;
    ucb.cost_aware = options.cost_aware;
    ucb.costs = costs;
    auto policy =
        bandit::GpUcbPolicy::CreateUnique(std::move(belief).value(), ucb);
    EXPECT_TRUE(policy.ok());
    auto user =
        scheduler::UserState::Create(i, std::move(policy).value(), costs);
    EXPECT_TRUE(user.ok());
    users.push_back(std::move(user).value());
  }
  std::unique_ptr<scheduler::SchedulerPolicy> policy =
      core::MakeSchedulerPolicy(options);
  auto result =
      sim::RunSimulation(env, users, *policy, SimOptions(budget_fraction));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Outcome out;
  out.steps = result->steps;
  out.cumulative_regret = result->cumulative_regret;
  out.easeml_regret = result->easeml_regret;
  out.curve = result->curve.avg_loss;
  return out;
}

/// The engine loop, with the simulator's budget, regret and loss-curve
/// bookkeeping restated over the engine's public API.
Outcome RunEngine(const Campaign& campaign, core::SelectorOptions options,
                  double budget_fraction, bool with_wal) {
  sim::Environment env = MakeEnvironment(campaign);
  wal::FaultInjectingFileSystem fs;
  std::unique_ptr<wal::SelectorWal> log;
  if (with_wal) {
    EXPECT_TRUE(fs.CreateDir("/wal").ok());
    auto opened = wal::SelectorWal::Open(&fs, wal::LogPath("/wal"), {});
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    log = std::move(opened).value();
    options.wal = log.get();
  }
  auto created = shard::MakeSelector(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  core::MultiTenantSelector& engine = **created;
  const int n = env.num_users();
  for (int i = 0; i < n; ++i) {
    auto id = engine.AddTenant(campaign.prior, env.CostsForUser(i));
    EXPECT_TRUE(id.ok() && *id == i);
  }

  const double budget = budget_fraction * env.TotalCost();
  double consumed = 0.0;
  Outcome out;
  std::vector<double> grid(kGridPoints);
  for (int g = 0; g < kGridPoints; ++g) {
    grid[g] = static_cast<double>(g) / (kGridPoints - 1);
  }
  out.curve.assign(kGridPoints, 0.0);
  const auto average_loss = [&] {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += env.BestQuality(i) - engine.BestAccuracy(i).value();
    }
    return acc / n;
  };
  int next_grid = 0;
  const auto record_progress = [&] {
    const double frac = consumed / budget;
    const double loss = average_loss();
    while (next_grid < kGridPoints && grid[next_grid] <= frac + 1e-12) {
      out.curve[next_grid++] = loss;
    }
  };
  record_progress();

  std::vector<double> last_reward(n, 0.0);
  while (true) {
    auto a = engine.Next();
    if (!a.ok()) {
      EXPECT_TRUE(engine.Exhausted()) << a.status().ToString();
      break;
    }
    const double cost = env.Cost(a->tenant, a->model);
    if (consumed + cost > budget + 1e-9) break;  // ticket left unreported
    const double reward = env.Reward(a->tenant, a->model);
    const Status reported = engine.Report(*a, reward);
    EXPECT_TRUE(reported.ok()) << reported.ToString();
    consumed += cost;
    ++out.steps;
    last_reward[a->tenant] = reward;
    double regret_last = 0.0;
    double regret_best = 0.0;
    for (int i = 0; i < n; ++i) {
      const double best_possible = env.BestQuality(i);
      regret_last += best_possible - last_reward[i];
      regret_best += best_possible - engine.BestAccuracy(i).value();
    }
    out.cumulative_regret += cost * regret_last;
    out.easeml_regret += cost * regret_best;
    record_progress();
  }
  const double final_loss = average_loss();
  for (; next_grid < kGridPoints; ++next_grid) {
    out.curve[next_grid] = final_loss;
  }
  return out;
}

/// Runs every policy on `dataset` through the simulator once and through
/// the engine in every (shard count, index mode, WAL) configuration.
void ExpectEngineMatchesSimulator(const data::Dataset& dataset,
                                  int num_test_users, double budget_fraction,
                                  uint64_t seed) {
  const Campaign campaign = MakeCampaign(dataset, num_test_users, seed);
  for (core::SchedulerKind kind : kAllKinds) {
    core::SelectorOptions options;
    options.scheduler = kind;
    options.cost_aware = true;
    options.seed = seed;
    const Outcome want = RunReference(campaign, options, budget_fraction);
    ASSERT_GT(want.steps, num_test_users) << "the campaign ended in the sweep";
    for (int shards : {1, 2}) {
      for (bool use_index : {true, false}) {
        for (bool with_wal : {false, true}) {
          SCOPED_TRACE(core::SchedulerKindName(kind) + " shards=" +
                       std::to_string(shards) +
                       (use_index ? " index" : " scan") +
                       (with_wal ? " wal" : " no-wal"));
          options.num_shards = shards;
          options.use_candidate_index = use_index;
          const Outcome got =
              RunEngine(campaign, options, budget_fraction, with_wal);
          EXPECT_EQ(got.steps, want.steps);
          EXPECT_EQ(got.cumulative_regret, want.cumulative_regret);
          EXPECT_EQ(got.easeml_regret, want.easeml_regret);
          EXPECT_EQ(got.curve, want.curve);
        }
      }
    }
  }
}

TEST(EngineSimulatorParityTest, DeepLearningCampaignsMatchBitForBit) {
  auto dataset = data::GenerateDeepLearning(data::DeepLearningOptions());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  for (double budget_fraction : {0.5, 1.0}) {
    SCOPED_TRACE("budget=" + std::to_string(budget_fraction));
    ExpectEngineMatchesSimulator(*dataset, /*num_test_users=*/10,
                                 budget_fraction, /*seed=*/7);
  }
}

/// With 179 models a campaign runs many times longer than with
/// DEEPLEARNING's 8, so this leg serves fewer tenants on a smaller budget:
/// the sanitizer builds run it too.
TEST(EngineSimulatorParityTest, Classifier179CampaignsMatchBitForBit) {
  auto dataset = data::GenerateClassifier179(data::Classifier179Options());
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ExpectEngineMatchesSimulator(*dataset, /*num_test_users=*/3,
                               /*budget_fraction=*/0.2, /*seed=*/11);
}

}  // namespace
}  // namespace easeml
