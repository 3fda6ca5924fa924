#ifndef EASEML_PLATFORM_TRAINING_EXECUTOR_H_
#define EASEML_PLATFORM_TRAINING_EXECUTOR_H_

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "platform/model_registry.h"
#include "platform/normalization.h"

namespace easeml::platform {

/// Outcome of one (simulated) training run.
struct TrainingOutcome {
  double accuracy = 0.0;  // validation accuracy in [0, 1]
  double duration = 0.0;  // simulated GPU time consumed
};

/// Description of the tenant task a model is trained on.
struct TaskProfile {
  /// Inherent achievable accuracy of the task, in [0, 1].
  double difficulty = 0.8;

  /// Effective number of supervision pairs (after `refine` filtering).
  double num_examples = 1000;

  /// Ratio of the largest to smallest input magnitude. Image-like data has
  /// range ~1e2; the astrophysics/proteomics tasks of Section 2.1 exceed
  /// 1e10, making normalization candidates essential.
  double dynamic_range = 100.0;
};

/// Simulated training backend.
///
/// SUBSTITUTION (see DESIGN.md): stands in for the 24-GPU cluster. For each
/// run it (a) grid-searches the learning rate like the real system ("the
/// system automatically grid-searches the initial learning rate in {0.1,
/// 0.01, 0.001, 0.0001} and runs each setting for 100 epochs"), taking the
/// best of four noisy draws; (b) applies a saturating
/// data-quantity factor; (c) penalizes un-normalized inputs with a large
/// dynamic range, so the Figure-5 normalization candidates genuinely help;
/// and (d) advances a virtual clock by cost proportional to the model's
/// relative cost, the grid size, and the data volume.
class SimulatedTrainingExecutor {
 public:
  struct Options {
    uint64_t seed = 0;
  };

  explicit SimulatedTrainingExecutor(const Options& options)
      : rng_(options.seed) {}

  /// Trains `candidate` (base model + optional normalization) on a task.
  /// Fails on invalid profiles (difficulty outside [0,1], non-positive
  /// examples or range).
  Result<TrainingOutcome> Train(const ModelInfo& model,
                                const CandidateModel& candidate,
                                const TaskProfile& task);

  /// Total simulated GPU time consumed so far.
  double clock() const { return clock_; }

 private:
  Rng rng_;
  double clock_ = 0.0;
};

}  // namespace easeml::platform

#endif  // EASEML_PLATFORM_TRAINING_EXECUTOR_H_
