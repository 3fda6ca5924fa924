#include "gp/shared_prior_gp.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"

namespace easeml::gp {

Result<std::shared_ptr<const SharedGpPrior>> MakeSharedGpPrior(
    linalg::Matrix gram, double noise_variance, std::vector<double> mean) {
  if (gram.rows() != gram.cols() || gram.rows() == 0) {
    return Status::InvalidArgument("SharedGpPrior: gram must be square");
  }
  // One O(K^2) pass per prior, before the comparisons below: a NaN entry
  // passes both the symmetry tolerance and the positive-diagonal test.
  for (const double g : gram.data()) {
    if (!std::isfinite(g)) {
      return Status::InvalidArgument("SharedGpPrior: non-finite gram entry");
    }
  }
  if (!gram.IsSymmetric(1e-9)) {
    return Status::InvalidArgument("SharedGpPrior: gram not symmetric");
  }
  if (!std::isfinite(noise_variance) || !(noise_variance > 0.0)) {
    return Status::InvalidArgument(
        "SharedGpPrior: noise variance must be finite and > 0");
  }
  const int k = gram.rows();
  if (mean.empty()) mean.assign(k, 0.0);
  if (static_cast<int>(mean.size()) != k) {
    return Status::InvalidArgument("SharedGpPrior: prior mean size mismatch");
  }
  for (int i = 0; i < k; ++i) {
    if (!std::isfinite(mean[static_cast<size_t>(i)])) {
      return Status::InvalidArgument(
          "SharedGpPrior: non-finite prior mean on arm " + std::to_string(i));
    }
    if (gram(i, i) <= 0.0) {
      return Status::InvalidArgument(
          "SharedGpPrior: non-positive prior variance on arm " +
          std::to_string(i));
    }
  }
  auto prior = std::make_shared<SharedGpPrior>();
  prior->gram = std::move(gram);
  prior->mean = std::move(mean);
  prior->noise_variance = noise_variance;
  return std::shared_ptr<const SharedGpPrior>(std::move(prior));
}

SharedPriorGp::SharedPriorGp(std::shared_ptr<const SharedGpPrior> prior)
    : prior_(std::move(prior)) {}

Result<SharedPriorGp> SharedPriorGp::Create(
    std::shared_ptr<const SharedGpPrior> prior) {
  if (prior == nullptr) {
    return Status::InvalidArgument("SharedPriorGp: null prior");
  }
  return SharedPriorGp(std::move(prior));
}

Result<std::unique_ptr<SharedPriorGp>> SharedPriorGp::CreateUnique(
    std::shared_ptr<const SharedGpPrior> prior) {
  EASEML_ASSIGN_OR_RETURN(SharedPriorGp gp, Create(std::move(prior)));
  return std::make_unique<SharedPriorGp>(std::move(gp));
}

Status SharedPriorGp::Observe(int arm, double y) {
  if (arm < 0 || arm >= num_arms()) {
    return Status::OutOfRange("Observe: arm index " + std::to_string(arm));
  }
  const linalg::Matrix& gram = prior_->gram;
  const int t = num_observations();
  std::vector<double> b(t);
  for (int i = 0; i < t; ++i) b[i] = gram(arms_[i], arm);
  const double d = gram(arm, arm) + prior_->noise_variance;
  Status appended = chol_.Append(b, d);
  if (!appended.ok()) {
    // S_t + sigma^2 I is positive definite in exact arithmetic; an Append
    // failure is floating-point cancellation on a nearly redundant arm.
    // Refactorize from scratch with escalating jitter, invalidating the
    // incremental caches.
    linalg::Matrix st(t + 1, t + 1);
    for (int i = 0; i < t; ++i) {
      for (int j = 0; j < t; ++j) st(i, j) = gram(arms_[i], arms_[j]);
      st(i, t) = st(t, i) = b[i];
    }
    st(t, t) = gram(arm, arm);
    st.AddToDiagonal(prior_->noise_variance);
    bool refactored = false;
    for (double jitter : {1e-12, 1e-10, 1e-8, 1e-6}) {
      auto chol = linalg::Cholesky::Compute(st, jitter);
      if (chol.ok()) {
        chol_ = std::move(chol).value();
        summary_rows_ = -1;
        refactored = true;
        break;
      }
    }
    if (!refactored) return appended;
  }
  arms_.push_back(arm);
  ys_.push_back(y);
  return Status::OK();
}

void SharedPriorGp::Reset() {
  arms_.clear();
  ys_.clear();
  chol_ = linalg::Cholesky();
  v_.clear();
  w_.clear();
  var_reduction_.clear();
  summary_ = PosteriorSummary();
  summary_rows_ = -1;
}

void SharedPriorGp::RebuildSummaryFromScratch() const {
  const int k = num_arms();
  const int t = num_observations();
  summary_.mean = prior_->mean;
  summary_.variance.resize(k);
  var_reduction_.assign(k, 0.0);
  for (int i = 0; i < k; ++i) summary_.variance[i] = prior_->gram(i, i);
  v_.clear();
  w_.clear();
  if (t > 0) {
    // One batched multi-RHS triangular solve covers every arm: V = L^{-1} B
    // with B the prior rows at the observed arms.
    const linalg::Matrix big_b = prior_->gram.GatherRows(arms_);
    const linalg::Matrix big_v = chol_.SolveLower(big_b);
    v_ = big_v.data();
    std::vector<double> rhs(t);
    for (int i = 0; i < t; ++i) rhs[i] = ys_[i] - prior_->mean[arms_[i]];
    w_ = chol_.SolveLower(rhs);
    for (int i = 0; i < t; ++i) {
      const double* row = v_.data() + static_cast<size_t>(i) * k;
      for (int j = 0; j < k; ++j) {
        summary_.mean[j] += row[j] * w_[i];
        var_reduction_[j] += row[j] * row[j];
      }
    }
    for (int j = 0; j < k; ++j) {
      summary_.variance[j] =
          std::max(0.0, prior_->gram(j, j) - var_reduction_[j]);
    }
  }
  summary_rows_ = t;
}

void SharedPriorGp::EnsureSummary() const {
  const int t = num_observations();
  if (summary_rows_ == t) return;
  if (summary_rows_ < 0) {
    RebuildSummaryFromScratch();
    return;
  }
  // Continue the forward substitution one observation at a time: row r of
  // V and w follows from rows 0..r-1 and row r of L in O(rK).
  const int k = num_arms();
  const linalg::Matrix& gram = prior_->gram;
  v_.resize(static_cast<size_t>(t) * k);
  w_.resize(t);
  for (int r = summary_rows_; r < t; ++r) {
    double* row = v_.data() + static_cast<size_t>(r) * k;
    const int arm = arms_[r];
    for (int j = 0; j < k; ++j) row[j] = gram(arm, j);
    double wr = ys_[r] - prior_->mean[arm];
    for (int j = 0; j < r; ++j) {
      const double lrj = chol_.At(r, j);
      if (lrj == 0.0) continue;
      const double* prev = v_.data() + static_cast<size_t>(j) * k;
      for (int c = 0; c < k; ++c) row[c] -= lrj * prev[c];
      wr -= lrj * w_[j];
    }
    const double inv = 1.0 / chol_.At(r, r);
    wr *= inv;
    w_[r] = wr;
    for (int c = 0; c < k; ++c) {
      row[c] *= inv;
      summary_.mean[c] += row[c] * wr;
      var_reduction_[c] += row[c] * row[c];
      summary_.variance[c] = std::max(0.0, gram(c, c) - var_reduction_[c]);
    }
  }
  summary_rows_ = t;
}

double SharedPriorGp::Mean(int k) const {
  EnsureSummary();
  return summary_.mean[k];
}

double SharedPriorGp::Variance(int k) const {
  EnsureSummary();
  return summary_.variance[k];
}

PosteriorSummary SharedPriorGp::AllMarginals() const {
  EnsureSummary();
  return summary_;
}

size_t SharedPriorGp::ApproxMemoryBytes() const {
  const size_t t = arms_.size();
  const size_t chol_entries = t * (t + 1) / 2;
  return sizeof(int) * arms_.size() +
         sizeof(double) *
             (ys_.size() + chol_entries + v_.size() + w_.size() +
              var_reduction_.size() + summary_.mean.size() +
              summary_.variance.size());
}

}  // namespace easeml::gp
