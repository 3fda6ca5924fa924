#include "platform/training_executor.h"

#include <algorithm>
#include <cmath>

namespace easeml::platform {

namespace {

// Learning-rate settings searched per run, and epochs per setting.
constexpr int kLrGridSize = 4;
constexpr int kEpochsPerSetting = 100;
// Run-to-run training variance.
constexpr double kLrLuckStddev = 0.01;
// Data-quantity saturation constant.
constexpr double kExamplesHalfLife = 200.0;
// Accuracy lost on raw wide-range input.
constexpr double kRangePenalty = 0.25;

}  // namespace

Result<TrainingOutcome> SimulatedTrainingExecutor::Train(
    const ModelInfo& model, const CandidateModel& candidate,
    const TaskProfile& task) {
  // Negated range checks: every comparison with NaN is false, so a NaN
  // field fails the test instead of slipping past it.
  if (!(task.difficulty >= 0.0 && task.difficulty <= 1.0)) {
    return Status::InvalidArgument("Train: difficulty out of [0,1]");
  }
  if (!(task.num_examples > 0.0)) {
    return Status::InvalidArgument("Train: need positive example count");
  }
  if (!(task.dynamic_range >= 1.0)) {
    return Status::InvalidArgument("Train: dynamic range must be >= 1");
  }
  if (candidate.base_model != model.name) {
    return Status::InvalidArgument(
        "Train: candidate/model name mismatch: " + candidate.DisplayName() +
        " vs " + model.name);
  }

  // Saturating benefit of supervision volume.
  const double data_factor =
      task.num_examples / (task.num_examples + kExamplesHalfLife);

  // Dynamic-range handling. The ideal normalization strength shrinks as the
  // range grows; raw wide-range inputs lose a large constant chunk.
  const double log_range = std::log10(std::max(1.0, task.dynamic_range));
  double range_penalty = 0.0;
  if (log_range > 2.0) {  // wider than image-like data
    if (!candidate.has_normalization) {
      range_penalty = kRangePenalty * (1.0 - 2.0 / log_range);
    } else {
      const double k_opt = std::clamp(2.0 / log_range, 0.1, 1.0);
      range_penalty = 0.15 * std::fabs(candidate.normalization_k - k_opt);
    }
  }

  const double base =
      task.difficulty * data_factor + model.quality_offset - range_penalty;

  // Learning-rate grid search: keep the best of `kLrGridSize` noisy runs.
  double best = 0.0;
  for (int g = 0; g < kLrGridSize; ++g) {
    const double run = base + rng_.Normal(0.0, kLrLuckStddev);
    best = std::max(best, std::clamp(run, 0.0, 1.0));
  }

  TrainingOutcome outcome;
  outcome.accuracy = best;
  outcome.duration = model.relative_cost *
                     static_cast<double>(kLrGridSize) *
                     static_cast<double>(kEpochsPerSetting) *
                     (task.num_examples / 1000.0);
  clock_ += outcome.duration;
  return outcome;
}

}  // namespace easeml::platform
