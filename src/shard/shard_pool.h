#ifndef EASEML_SHARD_SHARD_POOL_H_
#define EASEML_SHARD_SHARD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace easeml::shard {

/// Worker pool of the sharded selector: one long-lived thread per shard,
/// each draining its own FIFO fold queue.
///
/// `Enqueue(worker, fn)` appends `fn` to that worker's queue and returns
/// immediately; the owning worker runs its queue in order. This is the
/// asynchronous half of the report pipeline: the coordinator validates a
/// completion's ticket, enqueues the O(t^2) belief fold on the tenant's
/// owning shard, and returns — folds for tenants on different shards run
/// concurrently. Only folds whose caller need not wait for them are
/// queued: cancels, and reports under a policy that does not observe
/// outcomes. A HYBRID report folds on the quiesced coordinator instead,
/// because its outcome hook reads the folded state right away and a queue
/// round trip would only add a hand-off. `DrainQueues()` blocks until
/// every queued task has finished; the mutex hand-off gives the caller full
/// happens-before visibility of everything the tasks wrote. Per-worker FIFO
/// order is the fold-order determinism anchor.
///
/// Workers accumulate the CPU time (CLOCK_THREAD_CPUTIME_ID) they spend
/// inside tasks; `WorkerCpuSeconds()` exposes it. Unlike wall clock, thread
/// CPU time is not inflated by core oversubscription, so max-over-workers
/// is a faithful measure of the pool's critical path even on machines with
/// fewer cores than shards (the report-throughput bench reports it next to
/// wall time).
///
/// `Enqueue`, `DrainQueues`, `Shutdown` and `WorkerCpuSeconds` may race
/// with each other. Tasks must not call back into the pool or the
/// selector.
///
/// `Shutdown()` (also run by the destructor) drains all queued work, then
/// joins the workers. Afterwards `Enqueue` declines new tasks by returning
/// false — callers surface a precise Status rather than assume the task
/// ran.
///
/// Lock discipline (machine-checked under Clang -Wthread-safety): `mu_`
/// guards the queue state; `slots_` and `workers_` are immutable after
/// construction (built before any worker thread starts, so publication is
/// ordered by thread creation) and each `Slot::queue` is accessed only
/// under `mu_` by convention — nested types cannot name the enclosing
/// instance's mutex in a `GUARDED_BY` expression.
class ShardPool {
 public:
  /// Starts `num_workers` >= 1 threads.
  explicit ShardPool(int num_workers);

  /// Calls Shutdown().
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Appends `fn` to `worker`'s FIFO queue and returns without waiting.
  /// Returns true iff the task was accepted; after Shutdown() the task is
  /// NOT queued and the call returns false. Accepted tasks are guaranteed
  /// to run (Shutdown drains the queues before joining).
  bool Enqueue(int worker, std::function<void()> fn) EASEML_EXCLUDES(mu_);

  /// Blocks until every queued task (across all workers) has finished.
  /// The internal mutex hand-off orders all queued writes before the
  /// return. Returns the wall seconds it blocked: 0 — without reading a
  /// clock — when the queues were empty at entry.
  double DrainQueues() const EASEML_EXCLUDES(mu_);

  /// Drains all queued work, then stops and joins the workers. Idempotent;
  /// also invoked by the destructor.
  void Shutdown() EASEML_EXCLUDES(mu_);

  /// Cumulative per-worker CPU seconds spent inside queued tasks.
  std::vector<double> WorkerCpuSeconds() const EASEML_EXCLUDES(mu_);

 private:
  /// Per-worker wake slot (heap-allocated: CondVar is neither movable nor
  /// copyable). `queue` is guarded by the pool's `mu_` — see the class
  /// comment for why the annotation cannot be spelled on a nested type.
  struct Slot {
    CondVar wake;
    std::deque<std::function<void()>> queue;  // pending Enqueue tasks
  };

  void WorkerLoop(int worker) EASEML_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Signaled whenever `queued_` drops to zero.
  mutable CondVar queues_drained_;
  std::vector<std::unique_ptr<Slot>> slots_;  // immutable after the ctor
  /// Outstanding queued tasks across all workers (accepted, not finished).
  int64_t queued_ EASEML_GUARDED_BY(mu_) = 0;
  bool shutdown_ EASEML_GUARDED_BY(mu_) = false;
  std::vector<double> cpu_seconds_ EASEML_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;  // started last, joined by Shutdown
};

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARD_POOL_H_
