#include "shard/shard_pool.h"

#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace easeml::shard {

ShardPool::ShardPool(int num_workers) {
  EASEML_CHECK(num_workers >= 1) << "ShardPool: num_workers must be >= 1";
  cpu_seconds_.assign(num_workers, 0.0);
  slots_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(num_workers);
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardPool::~ShardPool() { Shutdown(); }

void ShardPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;  // idempotent (workers already joined/joining)
    shutdown_ = true;
    for (auto& slot : slots_) slot->wake.NotifyOne();
  }
  // Workers drain their queues before exiting, so every accepted task
  // runs-to-completion under Shutdown.
  for (auto& worker : workers_) worker.join();
}

bool ShardPool::Enqueue(int worker, std::function<void()> fn) {
  EASEML_CHECK(worker >= 0 && worker < size()) << "ShardPool: bad worker";
  MutexLock lock(mu_);
  if (shutdown_) return false;  // declined: the task will not run
  slots_[worker]->queue.push_back(std::move(fn));
  ++queued_;
  slots_[worker]->wake.NotifyOne();
  return true;
}

double ShardPool::DrainQueues() const {
  MutexLock lock(mu_);
  if (queued_ == 0) return 0.0;
  const double start = MonotonicSeconds();
  while (queued_ != 0) queues_drained_.Wait(lock);
  return MonotonicSeconds() - start;
}

void ShardPool::WorkerLoop(int worker) {
  Slot& slot = *slots_[worker];
  for (;;) {
    std::function<void()> task;  // owned: the slot entry is consumed
    {
      MutexLock lock(mu_);
      while (!shutdown_ && slot.queue.empty()) slot.wake.Wait(lock);
      if (slot.queue.empty()) return;  // shutdown with no pending work
      // Strictly FIFO: the per-worker queue order IS the per-tenant fold
      // order the determinism story rests on (folds were enqueued under
      // the selector lock).
      task = std::move(slot.queue.front());
      slot.queue.pop_front();
    }

    // The worker accounting behind ShardCpuSeconds() stays on thread-CPU:
    // it is off the decision path, and its contract is CPU time that core
    // oversubscription does not inflate.
    // easeml-lint: allow(thread-cpu-clock) worker accounting is CPU time
    const double cpu_before = ThreadCpuSeconds();
    task();
    // easeml-lint: allow(thread-cpu-clock) worker accounting is CPU time
    const double cpu_after = ThreadCpuSeconds();

    {
      MutexLock lock(mu_);
      cpu_seconds_[worker] += cpu_after - cpu_before;
      if (--queued_ == 0) queues_drained_.NotifyAll();
    }
  }
}

std::vector<double> ShardPool::WorkerCpuSeconds() const {
  MutexLock lock(mu_);
  return cpu_seconds_;
}

}  // namespace easeml::shard
