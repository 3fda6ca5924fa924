#include "bandit/gp_ucb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace easeml::bandit {

namespace {
constexpr double kPiSquaredOverSix = 1.6449340668482264;
}  // namespace

GpUcbPolicy::GpUcbPolicy(std::unique_ptr<gp::ArmBelief> belief,
                         GpUcbOptions options)
    : belief_(std::move(belief)), options_(std::move(options)) {
  if (!options_.costs.empty()) {
    max_cost_ = options_.costs[0];
    for (double c : options_.costs) max_cost_ = std::max(max_cost_, c);
  }
}

Result<GpUcbPolicy> GpUcbPolicy::Create(std::unique_ptr<gp::ArmBelief> belief,
                                        GpUcbOptions options) {
  if (belief == nullptr) {
    return Status::InvalidArgument("GpUcb: null belief");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {  // NaN fails too
    return Status::InvalidArgument("GpUcb: delta must be in (0, 1)");
  }
  if (options.cost_aware) {
    if (static_cast<int>(options.costs.size()) != belief->num_arms()) {
      return Status::InvalidArgument(
          "GpUcb: cost-aware mode needs one cost per arm");
    }
    for (double c : options.costs) {
      if (!(c > 0.0 && std::isfinite(c))) {
        return Status::InvalidArgument(
            "GpUcb: costs must be finite and positive");
      }
    }
  }
  return GpUcbPolicy(std::move(belief), std::move(options));
}

Result<GpUcbPolicy> GpUcbPolicy::Create(gp::DiscreteArmGp belief,
                                        GpUcbOptions options) {
  return Create(std::make_unique<gp::DiscreteArmGp>(std::move(belief)),
                std::move(options));
}

Result<std::unique_ptr<GpUcbPolicy>> GpUcbPolicy::CreateUnique(
    std::unique_ptr<gp::ArmBelief> belief, GpUcbOptions options) {
  EASEML_ASSIGN_OR_RETURN(GpUcbPolicy policy,
                          Create(std::move(belief), std::move(options)));
  return std::make_unique<GpUcbPolicy>(std::move(policy));
}

Result<std::unique_ptr<GpUcbPolicy>> GpUcbPolicy::CreateUnique(
    gp::DiscreteArmGp belief, GpUcbOptions options) {
  return CreateUnique(std::make_unique<gp::DiscreteArmGp>(std::move(belief)),
                      std::move(options));
}

double GpUcbPolicy::Beta(int t) const {
  EASEML_DCHECK(t >= 1);
  const double k = static_cast<double>(num_arms());
  const double tt = static_cast<double>(t);
  if (options_.theoretical_beta) {
    // Theorem 1: beta_t = 2 c* log(pi^2 K t^2 / (6 delta)).
    return 2.0 * max_cost_ *
           std::log(kPiSquaredOverSix * k * tt * tt / options_.delta);
  }
  // Algorithm 1 line 3: beta_t = log(K t^2 / delta). At t = 1 with large
  // delta this can be <= 0; clamp at 0 so sqrt is defined (pure
  // exploitation).
  return std::max(0.0, std::log(k * tt * tt / options_.delta));
}

double GpUcbPolicy::ArmCost(int arm) const {
  if (options_.costs.empty()) return 1.0;
  return options_.costs[arm];
}

double GpUcbPolicy::UcbFromMarginals(int arm, double beta, double mean,
                                     double variance) const {
  if (options_.cost_aware) beta /= ArmCost(arm);
  return mean + std::sqrt(beta) * std::sqrt(std::max(0.0, variance));
}

double GpUcbPolicy::Ucb(int arm, int t) const {
  return UcbFromMarginals(arm, Beta(t), belief_->Mean(arm),
                          belief_->Variance(arm));
}

double GpUcbPolicy::MaxUcb(const std::vector<int>& arms, int t) const {
  double best = -std::numeric_limits<double>::infinity();
  if (arms.empty()) return best;
  const gp::PosteriorSummary summary = belief_->AllMarginals();
  const double beta = Beta(t);
  for (int arm : arms) {
    best = std::max(best, UcbFromMarginals(arm, beta, summary.mean[arm],
                                           summary.variance[arm]));
  }
  return best;
}

Result<int> GpUcbPolicy::SelectArm(const std::vector<int>& available, int t) {
  EASEML_RETURN_NOT_OK(ValidateAvailable(available));
  if (t < 1) return Status::InvalidArgument("SelectArm: t must be >= 1");
  // One batched marginal read instead of K scalar posterior queries — the
  // shared-prior representation serves this with a single cached summary.
  const gp::PosteriorSummary summary = belief_->AllMarginals();
  const double beta = Beta(t);
  int best = available[0];
  double best_ucb = -std::numeric_limits<double>::infinity();
  for (int arm : available) {
    const double u =
        UcbFromMarginals(arm, beta, summary.mean[arm], summary.variance[arm]);
    if (u > best_ucb) {
      best_ucb = u;
      best = arm;
    }
  }
  return best;
}

Status GpUcbPolicy::Update(int arm, double reward) {
  return belief_->Observe(arm, reward);
}

std::string GpUcbPolicy::name() const {
  return options_.cost_aware ? "gp-ucb-cost-aware" : "gp-ucb";
}

}  // namespace easeml::bandit
