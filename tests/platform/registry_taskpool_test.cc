#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "platform/model_registry.h"
#include "platform/task_pool.h"

namespace easeml::platform {
namespace {

TEST(ModelRegistryTest, BuiltinCoversAllTemplateModels) {
  const auto& registry = ModelRegistry::Builtin();
  for (const auto& t : BuiltinTemplates()) {
    for (const auto& name : t.candidate_models) {
      auto info = registry.Find(name);
      EXPECT_TRUE(info.ok()) << "missing metadata for " << name;
      if (info.ok()) {
        EXPECT_EQ(info->workload, t.workload) << name;
        EXPECT_GT(info->relative_cost, 0.0) << name;
        EXPECT_GT(info->citations_2017, 0) << name;
      }
    }
  }
}

TEST(ModelRegistryTest, FindUnknownFails) {
  EXPECT_FALSE(ModelRegistry::Builtin().Find("NoSuchNet").ok());
}

TEST(ModelRegistryTest, ForWorkloadFilters) {
  const auto image = ModelRegistry::Builtin().ForWorkload(
      WorkloadType::kImageClassification);
  EXPECT_EQ(image.size(), 8u);
  for (const auto& m : image) {
    EXPECT_EQ(m.workload, WorkloadType::kImageClassification);
  }
}

TEST(ModelRegistryTest, RegisterRejectsDuplicates) {
  ModelRegistry r;
  ModelInfo m{"net", WorkloadType::kImageClassification, 10, 2020, 1.0, 0.0};
  EXPECT_TRUE(r.Register(m).ok());
  EXPECT_FALSE(r.Register(m).ok());
  EXPECT_EQ(r.size(), 1);
}

TEST(TaskPoolTest, AddUserTasksAssignsSequentialIds) {
  TaskPool pool;
  auto ids = pool.AddUserTasks(0, {{"A", false, 0.0}, {"B", false, 0.0}});
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<int>{0, 1}));
  auto more = pool.AddUserTasks(1, {{"C", false, 0.0}});
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(*more, (std::vector<int>{2}));
  EXPECT_EQ(pool.num_tasks(), 3);
}

TEST(TaskPoolTest, AddUserTasksValidates) {
  TaskPool pool;
  EXPECT_FALSE(pool.AddUserTasks(0, {}).ok());
  EXPECT_FALSE(pool.AddUserTasks(-1, {{"A", false, 0.0}}).ok());
}

TEST(TaskPoolTest, LifecycleTransitions) {
  TaskPool pool;
  auto ids = pool.AddUserTasks(0, {{"A", false, 0.0}});
  ASSERT_TRUE(ids.ok());
  const int id = (*ids)[0];
  // Done before running is illegal.
  EXPECT_FALSE(pool.MarkDone(id, 0.9, 1.0).ok());
  EXPECT_TRUE(pool.MarkRunning(id).ok());
  // Running twice is illegal.
  EXPECT_FALSE(pool.MarkRunning(id).ok());
  EXPECT_TRUE(pool.MarkDone(id, 0.9, 1.0).ok());
  auto task = pool.Get(id);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->state, TaskState::kDone);
  EXPECT_DOUBLE_EQ(task->accuracy, 0.9);
}

TEST(TaskPoolTest, RequeueReturnsARunningTaskToPending) {
  TaskPool pool;
  auto ids = pool.AddUserTasks(0, {{"A", false, 0.0}});
  ASSERT_TRUE(ids.ok());
  const int id = (*ids)[0];
  // Only running tasks can be requeued.
  EXPECT_FALSE(pool.Requeue(id).ok());
  ASSERT_TRUE(pool.MarkRunning(id).ok());
  EXPECT_TRUE(pool.Requeue(id).ok());
  auto task = pool.Get(id);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->state, TaskState::kPending);
  // The full lifecycle restarts cleanly after a requeue.
  EXPECT_TRUE(pool.MarkRunning(id).ok());
  EXPECT_TRUE(pool.MarkDone(id, 0.9, 1.0).ok());
  EXPECT_FALSE(pool.Requeue(id).ok());  // done tasks stay done
  EXPECT_FALSE(pool.Requeue(99).ok());  // unknown id
}

TEST(TaskPoolTest, MarkDoneValidatesMetrics) {
  TaskPool pool;
  auto ids = pool.AddUserTasks(0, {{"A", false, 0.0}});
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(pool.MarkRunning(0).ok());
  EXPECT_FALSE(pool.MarkDone(0, 1.5, 1.0).ok());
  EXPECT_FALSE(pool.MarkDone(0, 0.5, -1.0).ok());
  // Every comparison with NaN is false, so a plain "out of range" test lets
  // NaN through; non-finite metrics must be refused before the task is done.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(pool.MarkDone(0, kNan, 1.0).ok());
  EXPECT_FALSE(pool.MarkDone(0, 0.5, kNan).ok());
  EXPECT_FALSE(pool.MarkDone(0, 0.5, kInf).ok());
  EXPECT_FALSE(pool.MarkDone(0, kInf, 1.0).ok());
  ASSERT_TRUE(pool.Get(0).ok());
  EXPECT_EQ(pool.Get(0)->state, TaskState::kRunning);
  EXPECT_TRUE(pool.MarkDone(0, 0.5, 0.0).ok());
}

TEST(TaskPoolTest, QueriesByUserAndState) {
  TaskPool pool;
  ASSERT_TRUE(pool.AddUserTasks(0, {{"A", false, 0.0}, {"B", false, 0.0}})
                  .ok());
  ASSERT_TRUE(pool.AddUserTasks(1, {{"C", false, 0.0}}).ok());
  ASSERT_TRUE(pool.MarkRunning(0).ok());
  ASSERT_TRUE(pool.MarkDone(0, 0.7, 2.0).ok());
  EXPECT_EQ(pool.PendingForUser(0).size(), 1u);
  EXPECT_EQ(pool.TasksForUser(0).size(), 2u);
  EXPECT_EQ(pool.CountInState(TaskState::kDone), 1);
  EXPECT_EQ(pool.CountInState(TaskState::kPending), 2);
}

TEST(TaskPoolTest, BestForUserTracksHighestAccuracy) {
  TaskPool pool;
  ASSERT_TRUE(pool.AddUserTasks(0, {{"A", false, 0.0}, {"B", false, 0.0}})
                  .ok());
  EXPECT_FALSE(pool.BestForUser(0).ok());  // nothing finished
  ASSERT_TRUE(pool.MarkRunning(0).ok());
  ASSERT_TRUE(pool.MarkDone(0, 0.6, 1.0).ok());
  ASSERT_TRUE(pool.MarkRunning(1).ok());
  ASSERT_TRUE(pool.MarkDone(1, 0.8, 1.0).ok());
  auto best = pool.BestForUser(0);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->candidate.base_model, "B");
  EXPECT_FALSE(pool.BestForUser(9).ok());
}

bool SameTask(const Task& a, const Task& b) {
  return a.task_id == b.task_id && a.user_id == b.user_id &&
         a.state == b.state && a.accuracy == b.accuracy &&
         a.duration == b.duration &&
         a.candidate.base_model == b.candidate.base_model;
}

bool SameTasks(const std::vector<Task>& a, const std::vector<Task>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameTask(a[i], b[i])) return false;
  }
  return true;
}

/// The per-user queries walk each user's own task-id list; they must answer
/// exactly what a scan over the whole pool answers — same tasks, same
/// order, and the same BestForUser winner among exactly tied accuracies
/// (the lowest task id). Random interleavings over several users, one of
/// them registering tasks repeatedly and one with a sparse, large id.
TEST(TaskPoolTest, PerUserQueriesMatchAWholePoolScan) {
  const int kUsers[] = {0, 1, 2, 3, 1 << 28};
  const int kQueried[] = {0, 1, 2, 3, 1 << 28, -1, 4, 7, 1 << 29};
  const double kAccuracies[] = {0.25, 0.5, 0.5, 0.75, 0.75, 0.9};
  TaskPool pool;
  Rng rng(77);

  const auto check = [&](const std::vector<Task>& rows, int user) {
    std::vector<Task> all, pending;
    const Task* best = nullptr;
    for (const Task& t : rows) {
      if (t.user_id != user) continue;
      all.push_back(t);
      if (t.state == TaskState::kPending) pending.push_back(t);
      if (t.state == TaskState::kDone &&
          (best == nullptr || t.accuracy > best->accuracy)) {
        best = &t;
      }
    }
    EXPECT_TRUE(SameTasks(pool.TasksForUser(user), all)) << "user " << user;
    EXPECT_TRUE(SameTasks(pool.PendingForUser(user), pending))
        << "user " << user;
    const Result<Task> got = pool.BestForUser(user);
    if (best == nullptr) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << "user " << user;
    } else {
      ASSERT_TRUE(got.ok()) << "user " << user;
      EXPECT_TRUE(SameTask(*got, *best))
          << "user " << user << ": task " << got->task_id << " vs "
          << best->task_id;
    }
  };

  for (int step = 0; step < 600; ++step) {
    const double op = rng.Uniform();
    if (op < 0.15 || pool.num_tasks() == 0) {
      const int user = kUsers[rng.UniformInt(0, 4)];
      std::vector<CandidateModel> candidates(
          static_cast<size_t>(rng.UniformInt(1, 5)));
      for (size_t c = 0; c < candidates.size(); ++c) {
        candidates[c].base_model = "M" + std::to_string(step) + "_" +
                                   std::to_string(c);
      }
      ASSERT_TRUE(pool.AddUserTasks(user, candidates).ok());
    } else {
      const int id = rng.UniformInt(0, pool.num_tasks() - 1);
      const TaskState state = pool.Get(id)->state;
      if (state == TaskState::kPending) {
        ASSERT_TRUE(pool.MarkRunning(id).ok());
      } else if (state == TaskState::kRunning && op < 0.3) {
        ASSERT_TRUE(pool.Requeue(id).ok());
      } else if (state == TaskState::kRunning) {
        ASSERT_TRUE(
            pool.MarkDone(id, kAccuracies[rng.UniformInt(0, 5)], 1.0).ok());
      }
    }
    std::vector<Task> rows;  // the whole pool, ascending task id
    for (int id = 0; id < pool.num_tasks(); ++id) rows.push_back(*pool.Get(id));
    for (int user : kQueried) check(rows, user);
  }
  EXPECT_GT(pool.CountInState(TaskState::kDone), 50);
}

TEST(TaskPoolTest, GetValidatesId) {
  TaskPool pool;
  EXPECT_FALSE(pool.Get(0).ok());
  EXPECT_FALSE(pool.MarkRunning(-1).ok());
}

}  // namespace
}  // namespace easeml::platform
