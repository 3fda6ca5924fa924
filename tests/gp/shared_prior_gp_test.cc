#include "gp/shared_prior_gp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "gp/gaussian_process.h"
#include "linalg/matrix.h"

namespace easeml::gp {
namespace {

constexpr double kTol = 1e-9;

/// Random SPD Gram matrix: an RBF kernel over random 3-d model features
/// (high off-diagonal correlation when `length_scale` is large) plus a
/// small diagonal jitter, mirroring the experiment runner's prior.
linalg::Matrix RandomGram(int k, easeml::Rng& rng,
                          double length_scale = 0.5,
                          double signal_variance = 0.5,
                          double jitter = 1e-8) {
  std::vector<std::vector<double>> x(k, std::vector<double>(3));
  for (auto& row : x) {
    for (double& v : row) v = rng.Uniform();
  }
  linalg::Matrix gram(k, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      double d2 = 0.0;
      for (int c = 0; c < 3; ++c) {
        const double d = x[i][c] - x[j][c];
        d2 += d * d;
      }
      gram(i, j) =
          signal_variance * std::exp(-d2 / (2.0 * length_scale * length_scale));
    }
  }
  gram.AddToDiagonal(jitter);
  return gram;
}

std::vector<double> RandomMean(int k, easeml::Rng& rng) {
  std::vector<double> m(k);
  for (double& v : m) v = rng.Uniform(0.2, 0.8);
  return m;
}

std::shared_ptr<const SharedGpPrior> MakePrior(linalg::Matrix gram,
                                               double noise,
                                               std::vector<double> mean = {}) {
  auto prior = MakeSharedGpPrior(std::move(gram), noise, std::move(mean));
  EXPECT_TRUE(prior.ok()) << prior.status().ToString();
  return std::move(prior).value();
}

TEST(SharedGpPriorTest, MakeValidates) {
  EXPECT_FALSE(MakeSharedGpPrior(linalg::Matrix(2, 3), 0.1).ok());
  EXPECT_FALSE(MakeSharedGpPrior(linalg::Matrix(), 0.1).ok());
  EXPECT_FALSE(
      MakeSharedGpPrior(linalg::Matrix::Identity(2), 0.0).ok());
  EXPECT_FALSE(
      MakeSharedGpPrior(linalg::Matrix::Identity(2), -1.0).ok());
  EXPECT_FALSE(
      MakeSharedGpPrior(linalg::Matrix::Identity(2), 0.1, {1.0}).ok());
  auto asym = *linalg::Matrix::FromRowMajor(2, 2, {1.0, 0.5, -0.5, 1.0});
  EXPECT_FALSE(MakeSharedGpPrior(asym, 0.1).ok());
  EXPECT_FALSE(MakeSharedGpPrior(linalg::Matrix(2, 2), 0.1).ok());  // 0 diag
  // Non-finite priors: every Gram entry, the noise and the mean must be
  // finite. A NaN passes the symmetry tolerance and the diagonal test, and
  // +inf passes the positivity tests.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    if (bad != -kInf) {  // a -inf diagonal fails the positivity test
      auto diag = linalg::Matrix::Identity(2);
      diag(1, 1) = bad;
      EXPECT_EQ(MakeSharedGpPrior(diag, 0.1).status().code(),
                StatusCode::kInvalidArgument);
    }
    auto off = linalg::Matrix::Identity(2);
    off(0, 1) = off(1, 0) = bad;
    EXPECT_EQ(MakeSharedGpPrior(off, 0.1).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(MakeSharedGpPrior(linalg::Matrix::Identity(3), 0.1,
                                {0.0, bad, 0.0})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(MakeSharedGpPrior(linalg::Matrix::Identity(2), kInf).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(MakeSharedGpPrior(linalg::Matrix::Identity(2), 0.1).ok());
  EXPECT_FALSE(SharedPriorGp::Create(nullptr).ok());
}

TEST(SharedPriorGpTest, PriorMarginalsBeforeObservations) {
  easeml::Rng rng(1);
  auto gram = RandomGram(4, rng);
  const auto mean = RandomMean(4, rng);
  auto gp = SharedPriorGp::Create(MakePrior(gram, 0.01, mean));
  ASSERT_TRUE(gp.ok());
  EXPECT_EQ(gp->num_arms(), 4);
  EXPECT_EQ(gp->num_observations(), 0);
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(gp->Mean(k), mean[k], kTol);
    EXPECT_NEAR(gp->Variance(k), gram(k, k), kTol);
  }
  const PosteriorSummary s = gp->AllMarginals();
  EXPECT_EQ(s.mean, mean);
}

TEST(SharedPriorGpTest, ObserveRejectsBadArm) {
  auto gp = SharedPriorGp::Create(
      MakePrior(linalg::Matrix::Identity(3), 0.01));
  ASSERT_TRUE(gp.ok());
  EXPECT_FALSE(gp->Observe(-1, 0.5).ok());
  EXPECT_FALSE(gp->Observe(3, 0.5).ok());
  EXPECT_TRUE(gp->Observe(2, 0.5).ok());
}

/// The tentpole property: on randomized campaigns the shared-prior
/// marginals match the dense incremental updates AND the Algorithm-1 batch
/// posterior to 1e-9 after every observation, for every arm.
TEST(SharedPriorGpTest, MarginalsMatchDenseAndBatchOnRandomCampaigns) {
  for (uint64_t seed : {2u, 3u, 4u, 5u}) {
    easeml::Rng rng(seed);
    const int k = 3 + static_cast<int>(seed) * 2;
    const double noise = seed % 2 == 0 ? 1e-2 : 1e-3;
    auto gram = RandomGram(k, rng);
    const auto mean = RandomMean(k, rng);
    auto prior = MakePrior(gram, noise, mean);
    auto shared = SharedPriorGp::Create(prior);
    ASSERT_TRUE(shared.ok());
    auto dense = DiscreteArmGp::Create(gram, noise, mean);
    ASSERT_TRUE(dense.ok());

    std::vector<int> order = rng.SampleWithoutReplacement(k, k);
    std::vector<int> arms;
    std::vector<double> ys;
    for (int arm : order) {
      const double y = rng.Uniform(0.0, 1.0);
      ASSERT_TRUE(shared->Observe(arm, y).ok());
      ASSERT_TRUE(dense->Observe(arm, y).ok());
      arms.push_back(arm);
      ys.push_back(y);

      // Batch reference conditions on the *centered* observations, then the
      // prior mean is added back per arm.
      std::vector<double> centered(ys.size());
      for (size_t i = 0; i < ys.size(); ++i) {
        centered[i] = ys[i] - mean[arms[i]];
      }
      auto batch = DiscreteArmGp::BatchPosterior(gram, noise, arms, centered);
      ASSERT_TRUE(batch.ok());

      const PosteriorSummary s = shared->AllMarginals();
      for (int a = 0; a < k; ++a) {
        EXPECT_NEAR(s.mean[a], dense->Mean(a), kTol)
            << "seed=" << seed << " t=" << arms.size() << " arm=" << a;
        EXPECT_NEAR(s.variance[a], dense->Variance(a), kTol)
            << "seed=" << seed << " t=" << arms.size() << " arm=" << a;
        EXPECT_NEAR(s.mean[a], batch->mean[a] + mean[a], kTol);
        EXPECT_NEAR(s.variance[a], batch->variance[a], kTol);
        EXPECT_NEAR(shared->Mean(a), s.mean[a], 0.0);
        EXPECT_NEAR(shared->StdDev(a), std::sqrt(s.variance[a]), kTol);
      }
    }
  }
}

/// Deferred reads must agree with read-after-every-step: the lazy catch-up
/// path (several pending rows) and the from-scratch batched multi-RHS path
/// are both pinned against the incremental one.
TEST(SharedPriorGpTest, LazyCatchUpAndScratchRebuildAgree) {
  easeml::Rng rng(6);
  const int k = 9;
  auto gram = RandomGram(k, rng);
  auto prior = MakePrior(gram, 1e-3);
  auto eager = SharedPriorGp::Create(prior);   // reads after every observe
  auto lazy = SharedPriorGp::Create(prior);    // reads only at the end
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(lazy.ok());
  auto scratch = SharedPriorGp::Create(prior);  // fresh, never read early
  ASSERT_TRUE(scratch.ok());

  std::vector<int> order = rng.SampleWithoutReplacement(k, k);
  int step = 0;
  for (int arm : order) {
    const double y = rng.Uniform();
    ASSERT_TRUE(eager->Observe(arm, y).ok());
    ASSERT_TRUE(lazy->Observe(arm, y).ok());
    ASSERT_TRUE(scratch->Observe(arm, y).ok());
    (void)eager->AllMarginals();  // materialize each step
    // `lazy` materializes once mid-stream, so its final read exercises the
    // multi-row catch-up path; `scratch` reads only at the end (batched
    // multi-RHS rebuild).
    if (++step == 3) (void)lazy->AllMarginals();
  }
  const PosteriorSummary a = eager->AllMarginals();
  const PosteriorSummary b = lazy->AllMarginals();
  const PosteriorSummary c = scratch->AllMarginals();
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(a.mean[i], b.mean[i], kTol);
    EXPECT_NEAR(a.variance[i], b.variance[i], kTol);
    EXPECT_NEAR(a.mean[i], c.mean[i], kTol);
    EXPECT_NEAR(a.variance[i], c.variance[i], kTol);
  }
}

/// Nearly redundant arms with tiny noise: posterior variances collapse to
/// ~0 and must be clamped non-negative on both representations, still
/// agreeing to 1e-9 (the jitter/clamping edge of gaussian_process.cc).
TEST(SharedPriorGpTest, ClampedVarianceOnNearSingularPrior) {
  const int k = 4;
  linalg::Matrix gram(k, k, 1.0);  // rank one: all arms identical
  gram.AddToDiagonal(1e-6);
  const double noise = 1e-3;
  auto shared = SharedPriorGp::Create(MakePrior(gram, noise));
  ASSERT_TRUE(shared.ok());
  auto dense = DiscreteArmGp::Create(gram, noise);
  ASSERT_TRUE(dense.ok());
  std::vector<int> arms;
  std::vector<double> ys;
  for (int arm = 0; arm < k; ++arm) {
    const double y = 0.7;
    ASSERT_TRUE(shared->Observe(arm, y).ok());
    ASSERT_TRUE(dense->Observe(arm, y).ok());
    arms.push_back(arm);
    ys.push_back(y);
    auto batch = DiscreteArmGp::BatchPosterior(gram, noise, arms, ys);
    ASSERT_TRUE(batch.ok());
    for (int a = 0; a < k; ++a) {
      EXPECT_GE(shared->Variance(a), 0.0);
      EXPECT_NEAR(shared->Variance(a), dense->Variance(a), kTol);
      EXPECT_NEAR(shared->Variance(a), batch->variance[a], kTol);
      EXPECT_NEAR(shared->Mean(a), batch->mean[a], kTol);
    }
  }
}

/// Observing the same arm repeatedly (multiplicity in S_t) stays exact.
TEST(SharedPriorGpTest, RepeatedObservationsOfOneArm) {
  easeml::Rng rng(8);
  const int k = 5;
  auto gram = RandomGram(k, rng);
  const double noise = 1e-2;
  auto shared = SharedPriorGp::Create(MakePrior(gram, noise));
  ASSERT_TRUE(shared.ok());
  std::vector<int> arms;
  std::vector<double> ys;
  for (int i = 0; i < 6; ++i) {
    const int arm = i % 2;  // hammer arms 0 and 1
    const double y = rng.Uniform();
    ASSERT_TRUE(shared->Observe(arm, y).ok());
    arms.push_back(arm);
    ys.push_back(y);
  }
  auto batch = DiscreteArmGp::BatchPosterior(gram, noise, arms, ys);
  ASSERT_TRUE(batch.ok());
  for (int a = 0; a < k; ++a) {
    EXPECT_NEAR(shared->Mean(a), batch->mean[a], kTol);
    EXPECT_NEAR(shared->Variance(a), batch->variance[a], kTol);
  }
}

TEST(SharedPriorGpTest, ResetRestoresPriorAndSupportsReuse) {
  easeml::Rng rng(9);
  const int k = 6;
  auto gram = RandomGram(k, rng);
  const auto mean = RandomMean(k, rng);
  auto prior = MakePrior(gram, 1e-2, mean);
  auto gp = SharedPriorGp::Create(prior);
  ASSERT_TRUE(gp.ok());
  ASSERT_TRUE(gp->Observe(0, 0.9).ok());
  ASSERT_TRUE(gp->Observe(3, 0.1).ok());
  EXPECT_EQ(gp->num_observations(), 2);
  gp->Reset();
  EXPECT_EQ(gp->num_observations(), 0);
  for (int a = 0; a < k; ++a) {
    EXPECT_NEAR(gp->Mean(a), mean[a], kTol);
    EXPECT_NEAR(gp->Variance(a), gram(a, a), kTol);
  }
  // Still usable after reset.
  ASSERT_TRUE(gp->Observe(1, 0.4).ok());
  EXPECT_LT(gp->Variance(1), gram(1, 1));
}

TEST(SharedPriorGpTest, TenantsShareOnePriorButDivergeIndependently) {
  easeml::Rng rng(10);
  auto prior = MakePrior(RandomGram(5, rng), 1e-2);
  auto a = SharedPriorGp::Create(prior);
  auto b = SharedPriorGp::Create(prior);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both tenants plus the local handle reference one allocation.
  EXPECT_EQ(prior.use_count(), 3);
  ASSERT_TRUE(a->Observe(0, 0.95).ok());
  EXPECT_NE(a->Mean(0), b->Mean(0));
  EXPECT_NEAR(b->Variance(0), prior->gram(0, 0), kTol);
}

TEST(SharedPriorGpTest, MemoryFootprintBeatsDenseAtFewObservations) {
  easeml::Rng rng(12);
  const int k = 64;
  auto gram = RandomGram(k, rng);
  auto shared = SharedPriorGp::Create(MakePrior(gram, 1e-2));
  ASSERT_TRUE(shared.ok());
  auto dense = DiscreteArmGp::Create(gram, 1e-2);
  ASSERT_TRUE(dense.ok());
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(shared->Observe(t, 0.5).ok());
    ASSERT_TRUE(dense->Observe(t, 0.5).ok());
  }
  (void)shared->AllMarginals();  // include fully materialized caches
  // t = 4, K = 64: O(K + tK) vs two dense K x K matrices.
  EXPECT_LT(shared->ApproxMemoryBytes() * 10, dense->ApproxMemoryBytes());
}

}  // namespace
}  // namespace easeml::gp
