#ifndef EASEML_PLATFORM_TASK_POOL_H_
#define EASEML_PLATFORM_TASK_POOL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "platform/normalization.h"

namespace easeml::platform {

/// Lifecycle of one training task.
enum class TaskState { kPending, kRunning, kDone };

/// One (user, candidate model) training task in the user-level task pool of
/// Figure 1 (step 1: "schema matching and task generation").
struct Task {
  int task_id = -1;
  int user_id = -1;
  CandidateModel candidate;
  TaskState state = TaskState::kPending;
  double accuracy = 0.0;       // valid once kDone
  double duration = 0.0;       // simulated execution time once kDone
};

/// The user-level task pool: every submitted job expands into one task per
/// candidate model; the resource-allocation layer (the multi-tenant
/// selector) decides execution order.
///
/// Task ids are dense and ascending in registration order. Each user's ids
/// are also kept in a per-user list, keyed by the caller-chosen user id,
/// so the per-user queries (`PendingForUser`, `TasksForUser`,
/// `BestForUser` — the `infer` path) walk one job's tasks, not the whole
/// pool. They visit those tasks in ascending id order, the order a
/// whole-pool scan would, so ties resolve identically.
///
/// Thread-safe: every public method locks the pool's own mutex (task rows
/// are tiny and copied out, never referenced across calls). The service's
/// coordinator is the only writer today, but the shard-parallel report
/// pipeline (ROADMAP) will complete tasks from shard workers — the lock
/// discipline is annotated and compile-checked now so that change cannot
/// introduce an unguarded access.
class TaskPool {
 public:
  /// Registers a user's candidate tasks; returns the new task ids.
  /// Fails if `candidates` is empty.
  Result<std::vector<int>> AddUserTasks(
      int user_id, const std::vector<CandidateModel>& candidates)
      EASEML_EXCLUDES(mu_);

  int num_tasks() const EASEML_EXCLUDES(mu_);

  Result<Task> Get(int task_id) const EASEML_EXCLUDES(mu_);

  /// State transitions; only kPending -> kRunning -> kDone are legal,
  /// plus the kRunning -> kPending failure path via Requeue.
  Status MarkRunning(int task_id) EASEML_EXCLUDES(mu_);
  Status MarkDone(int task_id, double accuracy, double duration)
      EASEML_EXCLUDES(mu_);

  /// Returns a running task to the pending state (its training run failed
  /// or was aborted before producing a measurement).
  Status Requeue(int task_id) EASEML_EXCLUDES(mu_);

  /// Pending tasks of one user, ascending task id.
  std::vector<Task> PendingForUser(int user_id) const EASEML_EXCLUDES(mu_);

  /// All tasks of one user, ascending task id.
  std::vector<Task> TasksForUser(int user_id) const EASEML_EXCLUDES(mu_);

  /// Completed task with the best accuracy for `user_id` (the lowest task
  /// id among exact ties); NotFound when the user has no finished task
  /// (this backs the `infer` operator).
  Result<Task> BestForUser(int user_id) const EASEML_EXCLUDES(mu_);

  /// Number of tasks in each state across the pool.
  int CountInState(TaskState state) const EASEML_EXCLUDES(mu_);

 private:
  Status Validate(int task_id) const EASEML_REQUIRES(mu_);

  /// `user_id`'s task ids, ascending (empty for a user without tasks).
  const std::vector<int>& UserTaskIds(int user_id) const EASEML_REQUIRES(mu_);

  /// Heap-allocated so the pool (and the service holding it by value)
  /// stays movable; `mu_` is the stable capability the annotations name.
  /// Default moves keep the pair consistent: the storage transfers and the
  /// capability pointer still names the same heap mutex.
  std::unique_ptr<Mutex> mu_storage_{std::make_unique<Mutex>()};
  Mutex* mu_{mu_storage_.get()};
  std::vector<Task> tasks_ EASEML_GUARDED_BY(mu_);
  /// user id -> that user's task ids, ascending (appends only: ids grow).
  std::map<int, std::vector<int>> user_tasks_ EASEML_GUARDED_BY(mu_);
};

}  // namespace easeml::platform

#endif  // EASEML_PLATFORM_TASK_POOL_H_
