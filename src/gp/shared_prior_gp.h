#ifndef EASEML_GP_SHARED_PRIOR_GP_H_
#define EASEML_GP_SHARED_PRIOR_GP_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "gp/arm_belief.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace easeml::gp {

/// The immutable prior all tenants of one model-selection service share:
/// the K x K Gram matrix over the candidate models, the prior mean, and the
/// observation noise. Built once per service (or per experiment repetition)
/// and handed to every tenant by `shared_ptr` — a 1000-tenant campaign
/// allocates the Gram matrix exactly once.
struct SharedGpPrior {
  linalg::Matrix gram;        // symmetric PSD, K x K
  std::vector<double> mean;   // length K
  double noise_variance = 0.0;

  int num_arms() const { return gram.rows(); }

  /// Bytes held by the shared state (amortized over all tenants).
  size_t ApproxMemoryBytes() const {
    return sizeof(double) * (gram.data().size() + mean.size());
  }
};

/// Validates and wraps a prior for sharing. `gram` must be finite and
/// symmetric K x K with strictly positive diagonal, `noise_variance`
/// finite and strictly positive, `mean` finite; `mean` defaults to zero.
Result<std::shared_ptr<const SharedGpPrior>> MakeSharedGpPrior(
    linalg::Matrix gram, double noise_variance,
    std::vector<double> mean = {});

/// GP belief over K arms backed by a shared immutable prior.
///
/// Per-tenant state is only the observation history (arms, ys), the growing
/// t x t Cholesky factor L of S_t + sigma^2 I (extended in O(t^2) per
/// observation via `Cholesky::Append`), and O(K)/O(tK) marginal caches —
/// never a K x K matrix. Posterior marginals over all K arms follow from
/// the prior rows at the observed arms, B(i, k) = S(a_i, k):
///
///   V = L^{-1} B                      (t x K, one multi-RHS solve)
///   w = L^{-1} (y - m(a))            (t)
///   mu(k)      = m(k) + V(:,k) . w
///   sigma2(k)  = S(k,k) - |V(:,k)|^2   (clamped at 0)
///
/// which is algebraically identical to Algorithm 1 lines 6-7 (property
/// tests pin it against both `DiscreteArmGp` and
/// `DiscreteArmGp::BatchPosterior` to 1e-9). The caches are maintained
/// lazily: `Observe` appends to L in O(t^2) and defers the marginal
/// refresh; the first marginal read catches V/w/summary up, one O(tK) row
/// per deferred observation (or one batched multi-RHS solve from scratch).
class SharedPriorGp : public ArmBelief {
 public:
  /// `prior` must be non-null (as produced by `MakeSharedGpPrior`).
  static Result<SharedPriorGp> Create(
      std::shared_ptr<const SharedGpPrior> prior);

  /// Heap-allocated variant for polymorphic containers.
  static Result<std::unique_ptr<SharedPriorGp>> CreateUnique(
      std::shared_ptr<const SharedGpPrior> prior);

  int num_arms() const override { return prior_->num_arms(); }
  int num_observations() const override {
    return static_cast<int>(arms_.size());
  }
  double noise_variance() const override { return prior_->noise_variance; }

  double Mean(int k) const override;
  double Variance(int k) const override;
  PosteriorSummary AllMarginals() const override;

  Status Observe(int arm, double y) override;
  void Reset() override;

  /// Own state only: history + Cholesky factor + caches. The shared prior
  /// counts once per service, not once per tenant.
  size_t ApproxMemoryBytes() const override;

  const std::shared_ptr<const SharedGpPrior>& prior() const { return prior_; }
  const std::vector<int>& observed_arms() const { return arms_; }
  const std::vector<double>& observed_rewards() const { return ys_; }

  /// The growing t x t Cholesky factor. Checkpoints serialize it as a
  /// bit-exact integrity witness: recovery replays the observation history
  /// (Cholesky::Append is deterministic, so the replayed factor is
  /// bit-identical) and fails with DataLoss when the stored factor
  /// disagrees — corruption that survived the CRC cannot silently skew a
  /// posterior.
  const linalg::Cholesky& factor() const { return chol_; }

 private:
  explicit SharedPriorGp(std::shared_ptr<const SharedGpPrior> prior);

  /// Brings the marginal caches up to date with the observation history.
  void EnsureSummary() const;
  void RebuildSummaryFromScratch() const;

  std::shared_ptr<const SharedGpPrior> prior_;
  std::vector<int> arms_;
  std::vector<double> ys_;
  linalg::Cholesky chol_;  // L with L L^T = S_t + sigma^2 I

  // Lazy marginal caches; `summary_rows_` counts the observations already
  // folded in (-1 = must rebuild from scratch).
  mutable std::vector<double> v_;             // row-major t x K, V = L^{-1} B
  mutable std::vector<double> w_;             // L^{-1} (y - m(a))
  mutable std::vector<double> var_reduction_; // |V(:,k)|^2 per arm, unclamped
  mutable PosteriorSummary summary_;
  mutable int summary_rows_ = -1;
};

}  // namespace easeml::gp

#endif  // EASEML_GP_SHARED_PRIOR_GP_H_
