#include "platform/training_executor.h"

#include <gtest/gtest.h>

#include <limits>

namespace easeml::platform {
namespace {

ModelInfo ResNet() {
  return {"ResNet-50", WorkloadType::kImageClassification, 8200, 2015, 5.0,
          0.05};
}

ModelInfo SqueezeNet() {
  return {"SqueezeNet", WorkloadType::kImageClassification, 620, 2016, 0.5,
          -0.05};
}

SimulatedTrainingExecutor MakeExecutor(uint64_t seed = 1) {
  SimulatedTrainingExecutor::Options opts;
  opts.seed = seed;
  return SimulatedTrainingExecutor(opts);
}

TEST(ExecutorTest, ValidatesTaskProfile) {
  auto exec = MakeExecutor();
  const CandidateModel c{"ResNet-50", false, 0.0};
  TaskProfile bad;
  bad.difficulty = 1.5;
  EXPECT_FALSE(exec.Train(ResNet(), c, bad).ok());
  bad = TaskProfile();
  bad.num_examples = 0;
  EXPECT_FALSE(exec.Train(ResNet(), c, bad).ok());
  bad = TaskProfile();
  bad.dynamic_range = 0.5;
  EXPECT_FALSE(exec.Train(ResNet(), c, bad).ok());
}

TEST(ExecutorTest, ValidatesTaskProfileRejectsNaN) {
  auto exec = MakeExecutor();
  const CandidateModel c{"ResNet-50", false, 0.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TaskProfile bad;
  bad.difficulty = nan;
  EXPECT_EQ(exec.Train(ResNet(), c, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = TaskProfile();
  bad.num_examples = nan;
  EXPECT_EQ(exec.Train(ResNet(), c, bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = TaskProfile();
  bad.dynamic_range = nan;
  EXPECT_EQ(exec.Train(ResNet(), c, bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(exec.clock(), 0.0);  // nothing was trained
}

TEST(ExecutorTest, RejectsCandidateModelMismatch) {
  auto exec = MakeExecutor();
  const CandidateModel c{"AlexNet", false, 0.0};
  EXPECT_FALSE(exec.Train(ResNet(), c, TaskProfile()).ok());
}

TEST(ExecutorTest, AccuracyInUnitIntervalAndClockAdvances) {
  auto exec = MakeExecutor();
  const CandidateModel c{"ResNet-50", false, 0.0};
  TaskProfile task;
  task.difficulty = 0.9;
  auto outcome = exec.Train(ResNet(), c, task);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome->accuracy, 0.0);
  EXPECT_LE(outcome->accuracy, 1.0);
  EXPECT_GT(outcome->duration, 0.0);
  EXPECT_DOUBLE_EQ(exec.clock(), outcome->duration);
}

TEST(ExecutorTest, MoreExamplesHelp) {
  const CandidateModel c{"ResNet-50", false, 0.0};
  TaskProfile few;
  few.difficulty = 0.9;
  few.num_examples = 20;
  TaskProfile many = few;
  many.num_examples = 20000;
  // Average over seeds to wash out lr-grid luck.
  double acc_few = 0, acc_many = 0;
  for (uint64_t s = 0; s < 10; ++s) {
    auto e1 = MakeExecutor(s);
    auto e2 = MakeExecutor(s + 100);
    acc_few += e1.Train(ResNet(), c, few)->accuracy;
    acc_many += e2.Train(ResNet(), c, many)->accuracy;
  }
  EXPECT_GT(acc_many, acc_few + 0.5);
}

TEST(ExecutorTest, WideRangeWithoutNormalizationIsPenalized) {
  TaskProfile task;
  task.difficulty = 0.9;
  task.num_examples = 10000;
  task.dynamic_range = 1e10;  // the astrophysics case
  const CandidateModel raw{"ResNet-50", false, 0.0};
  const CandidateModel normalized{"ResNet-50", true, 0.2};
  double acc_raw = 0, acc_norm = 0;
  for (uint64_t s = 0; s < 10; ++s) {
    auto e1 = MakeExecutor(s);
    auto e2 = MakeExecutor(s + 50);
    acc_raw += e1.Train(ResNet(), raw, task)->accuracy;
    acc_norm += e2.Train(ResNet(), normalized, task)->accuracy;
  }
  EXPECT_GT(acc_norm, acc_raw + 0.3);
}

TEST(ExecutorTest, ImageLikeRangeNeedsNoNormalization) {
  TaskProfile task;
  task.difficulty = 0.9;
  task.num_examples = 10000;
  task.dynamic_range = 100.0;
  const CandidateModel raw{"ResNet-50", false, 0.0};
  auto exec = MakeExecutor(3);
  auto outcome = exec.Train(ResNet(), raw, task);
  ASSERT_TRUE(outcome.ok());
  // difficulty * data_factor + offset ~ 0.93; no range penalty applies.
  EXPECT_GT(outcome->accuracy, 0.85);
}

TEST(ExecutorTest, DurationScalesWithModelCost) {
  TaskProfile task;
  auto exec = MakeExecutor();
  const CandidateModel cr{"ResNet-50", false, 0.0};
  const CandidateModel cs{"SqueezeNet", false, 0.0};
  auto slow = exec.Train(ResNet(), cr, task);
  auto fast = exec.Train(SqueezeNet(), cs, task);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(slow->duration / fast->duration, 10.0, 1e-9);  // 5.0 / 0.5
}

TEST(ExecutorTest, DeterministicUnderSeed) {
  TaskProfile task;
  const CandidateModel c{"ResNet-50", false, 0.0};
  auto a = MakeExecutor(42).Train(ResNet(), c, task);
  auto b = MakeExecutor(42).Train(ResNet(), c, task);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->accuracy, b->accuracy);
}

}  // namespace
}  // namespace easeml::platform
