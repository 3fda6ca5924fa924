#include "bandit/gp_acquisitions.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"

namespace easeml::bandit {

namespace {
constexpr double kInvSqrt2 = 0.7071067811865476;
constexpr double kInvSqrt2Pi = 0.3989422804014327;

Status ValidateOptions(const GpAcquisitionOptions& options, int num_arms) {
  // Negated range checks: every comparison with NaN is false, so a NaN
  // fails the test instead of slipping past it.
  if (!(options.xi >= 0.0 && std::isfinite(options.xi))) {
    return Status::InvalidArgument(
        "GP acquisition: xi must be finite and >= 0");
  }
  if (options.cost_aware) {
    if (static_cast<int>(options.costs.size()) != num_arms) {
      return Status::InvalidArgument(
          "GP acquisition: cost-aware mode needs one cost per arm");
    }
    for (double c : options.costs) {
      if (!(c > 0.0 && std::isfinite(c))) {
        return Status::InvalidArgument(
            "GP acquisition: costs must be finite and positive");
      }
    }
  }
  return Status::OK();
}

double CostOf(const GpAcquisitionOptions& options, int arm) {
  return options.cost_aware ? options.costs[arm] : 1.0;
}

/// Shared argmax over available arms of an acquisition functor.
template <typename F>
int ArgMaxAcquisition(const std::vector<int>& available, F&& acquisition) {
  int best = available[0];
  double best_value = acquisition(best);
  for (size_t i = 1; i < available.size(); ++i) {
    const double v = acquisition(available[i]);
    if (v > best_value) {
      best_value = v;
      best = available[i];
    }
  }
  return best;
}

}  // namespace

double NormalCdf(double z) { return 0.5 * std::erfc(-z * kInvSqrt2); }

double NormalPdf(double z) {
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

// ---------------------------------------------------------------- GP-EI --

Result<GpEiPolicy> GpEiPolicy::Create(gp::DiscreteArmGp belief,
                                      GpAcquisitionOptions options) {
  EASEML_RETURN_NOT_OK(ValidateOptions(options, belief.num_arms()));
  return GpEiPolicy(std::move(belief), std::move(options));
}

double GpEiPolicy::Acquisition(int arm) const {
  const double mu = belief_.Mean(arm);
  const double sigma = belief_.StdDev(arm);
  const double incumbent =
      has_observation_ ? best_observed_ + options_.xi : options_.xi;
  double ei;
  if (sigma < 1e-12) {
    ei = std::max(0.0, mu - incumbent);
  } else {
    const double z = (mu - incumbent) / sigma;
    ei = (mu - incumbent) * NormalCdf(z) + sigma * NormalPdf(z);
  }
  return ei / CostOf(options_, arm);
}

Result<int> GpEiPolicy::SelectArm(const std::vector<int>& available, int t) {
  (void)t;
  EASEML_RETURN_NOT_OK(ValidateAvailable(available));
  return ArgMaxAcquisition(available,
                           [this](int arm) { return Acquisition(arm); });
}

Status GpEiPolicy::Update(int arm, double reward) {
  EASEML_RETURN_NOT_OK(belief_.Observe(arm, reward));
  best_observed_ =
      has_observation_ ? std::max(best_observed_, reward) : reward;
  has_observation_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------- GP-PI --

Result<GpPiPolicy> GpPiPolicy::Create(gp::DiscreteArmGp belief,
                                      GpAcquisitionOptions options) {
  EASEML_RETURN_NOT_OK(ValidateOptions(options, belief.num_arms()));
  return GpPiPolicy(std::move(belief), std::move(options));
}

double GpPiPolicy::Acquisition(int arm) const {
  const double mu = belief_.Mean(arm);
  const double sigma = belief_.StdDev(arm);
  const double incumbent =
      has_observation_ ? best_observed_ + options_.xi : options_.xi;
  double pi;
  if (sigma < 1e-12) {
    pi = mu > incumbent ? 1.0 : 0.0;
  } else {
    pi = NormalCdf((mu - incumbent) / sigma);
  }
  return pi / CostOf(options_, arm);
}

Result<int> GpPiPolicy::SelectArm(const std::vector<int>& available, int t) {
  (void)t;
  EASEML_RETURN_NOT_OK(ValidateAvailable(available));
  return ArgMaxAcquisition(available,
                           [this](int arm) { return Acquisition(arm); });
}

Status GpPiPolicy::Update(int arm, double reward) {
  EASEML_RETURN_NOT_OK(belief_.Observe(arm, reward));
  best_observed_ =
      has_observation_ ? std::max(best_observed_, reward) : reward;
  has_observation_ = true;
  return Status::OK();
}

// ---------------------------------------------------------- Thompson -----

Result<GpThompsonPolicy> GpThompsonPolicy::Create(
    gp::DiscreteArmGp belief, GpAcquisitionOptions options, uint64_t seed) {
  EASEML_RETURN_NOT_OK(ValidateOptions(options, belief.num_arms()));
  return GpThompsonPolicy(std::move(belief), std::move(options), seed);
}

Result<int> GpThompsonPolicy::SelectArm(const std::vector<int>& available,
                                        int t) {
  (void)t;
  EASEML_RETURN_NOT_OK(ValidateAvailable(available));
  // One joint posterior sample theta ~ N(mu, Sigma).
  const int k = belief_.num_arms();
  linalg::Matrix cov = belief_.covariance();
  auto chol = linalg::Cholesky::Compute(cov, 1e-9);
  if (!chol.ok()) {
    // Nearly singular posterior (late in the campaign): fall back to
    // marginal sampling, which preserves the Thompson exploration property.
    int best = available[0];
    double best_value = -1e300;
    for (int arm : available) {
      const double draw =
          rng_.Normal(belief_.Mean(arm), belief_.StdDev(arm)) /
          CostOf(options_, arm);
      if (draw > best_value) {
        best_value = draw;
        best = arm;
      }
    }
    return best;
  }
  std::vector<double> lower(static_cast<size_t>(k) * k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j <= i; ++j) lower[i * k + j] = chol->At(i, j);
  }
  const std::vector<double> theta =
      rng_.MultivariateNormal(belief_.mean(), lower, k);
  return ArgMaxAcquisition(available, [&](int arm) {
    return theta[arm] / CostOf(options_, arm);
  });
}

Status GpThompsonPolicy::Update(int arm, double reward) {
  return belief_.Observe(arm, reward);
}

}  // namespace easeml::bandit
