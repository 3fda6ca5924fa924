#include "platform/task_pool.h"

#include <cmath>

namespace easeml::platform {

Result<std::vector<int>> TaskPool::AddUserTasks(
    int user_id, const std::vector<CandidateModel>& candidates) {
  if (candidates.empty()) {
    return Status::InvalidArgument("AddUserTasks: no candidates");
  }
  if (user_id < 0) {
    return Status::InvalidArgument("AddUserTasks: negative user id");
  }
  MutexLock lock(*mu_);
  std::vector<int> ids;
  ids.reserve(candidates.size());
  for (const auto& c : candidates) {
    Task t;
    t.task_id = static_cast<int>(tasks_.size());
    t.user_id = user_id;
    t.candidate = c;
    ids.push_back(t.task_id);
    tasks_.push_back(std::move(t));
  }
  std::vector<int>& own = user_tasks_[user_id];
  own.insert(own.end(), ids.begin(), ids.end());
  return ids;
}

int TaskPool::num_tasks() const {
  MutexLock lock(*mu_);
  return static_cast<int>(tasks_.size());
}

Status TaskPool::Validate(int task_id) const {
  if (task_id < 0 || task_id >= static_cast<int>(tasks_.size())) {
    return Status::OutOfRange("task id out of range: " +
                              std::to_string(task_id));
  }
  return Status::OK();
}

const std::vector<int>& TaskPool::UserTaskIds(int user_id) const {
  static const std::vector<int> no_tasks;
  const auto it = user_tasks_.find(user_id);
  return it == user_tasks_.end() ? no_tasks : it->second;
}

Result<Task> TaskPool::Get(int task_id) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(Validate(task_id));
  return tasks_[task_id];
}

Status TaskPool::MarkRunning(int task_id) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(Validate(task_id));
  if (tasks_[task_id].state != TaskState::kPending) {
    return Status::FailedPrecondition("MarkRunning: task not pending");
  }
  tasks_[task_id].state = TaskState::kRunning;
  return Status::OK();
}

Status TaskPool::MarkDone(int task_id, double accuracy, double duration) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(Validate(task_id));
  if (tasks_[task_id].state != TaskState::kRunning) {
    return Status::FailedPrecondition("MarkDone: task not running");
  }
  // Negated range checks: every comparison with NaN is false, so a NaN
  // accuracy or duration fails the test instead of slipping past it.
  if (!(accuracy >= 0.0 && accuracy <= 1.0)) {
    return Status::InvalidArgument("MarkDone: accuracy out of [0,1]");
  }
  if (!(duration >= 0.0 && std::isfinite(duration))) {
    return Status::InvalidArgument(
        "MarkDone: duration must be finite and non-negative");
  }
  tasks_[task_id].state = TaskState::kDone;
  tasks_[task_id].accuracy = accuracy;
  tasks_[task_id].duration = duration;
  return Status::OK();
}

Status TaskPool::Requeue(int task_id) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(Validate(task_id));
  if (tasks_[task_id].state != TaskState::kRunning) {
    return Status::FailedPrecondition("Requeue: task not running");
  }
  tasks_[task_id].state = TaskState::kPending;
  return Status::OK();
}

std::vector<Task> TaskPool::PendingForUser(int user_id) const {
  MutexLock lock(*mu_);
  std::vector<Task> out;
  for (int id : UserTaskIds(user_id)) {
    if (tasks_[id].state == TaskState::kPending) out.push_back(tasks_[id]);
  }
  return out;
}

std::vector<Task> TaskPool::TasksForUser(int user_id) const {
  MutexLock lock(*mu_);
  std::vector<Task> out;
  for (int id : UserTaskIds(user_id)) out.push_back(tasks_[id]);
  return out;
}

Result<Task> TaskPool::BestForUser(int user_id) const {
  MutexLock lock(*mu_);
  const Task* best = nullptr;
  for (int id : UserTaskIds(user_id)) {
    const Task& t = tasks_[id];
    if (t.state != TaskState::kDone) continue;
    if (best == nullptr || t.accuracy > best->accuracy) best = &t;
  }
  if (best == nullptr) {
    return Status::NotFound("no finished task for user " +
                            std::to_string(user_id));
  }
  return *best;
}

int TaskPool::CountInState(TaskState state) const {
  MutexLock lock(*mu_);
  int count = 0;
  for (const auto& t : tasks_) {
    if (t.state == state) ++count;
  }
  return count;
}

}  // namespace easeml::platform
