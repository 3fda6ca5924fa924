#ifndef EASEML_PLATFORM_SERVICE_H_
#define EASEML_PLATFORM_SERVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/multi_tenant_selector.h"
#include "obs/metrics.h"
#include "platform/async_executor.h"
#include "platform/dsl_parser.h"
#include "platform/model_registry.h"
#include "platform/task_pool.h"
#include "platform/training_executor.h"

namespace easeml::platform {

/// One supervision pair a user `feed`s into the system. `noisy` marks labels
/// produced by weak/distant supervision that the user may `refine` away.
struct Example {
  int index = -1;
  bool enabled = true;
  bool noisy = false;
};

/// What `infer` returns: the best model found so far and its accuracy.
struct InferReport {
  std::string model_name;
  double accuracy = 0.0;
  int rounds_served = 0;
};

/// Outcome of one asynchronous multi-device campaign (`RunAsync`).
struct AsyncRunReport {
  int steps = 0;                  // completed training runs
  int num_workers = 0;            // worker threads used
  double wall_seconds = 0.0;      // real end-to-end makespan
  double simulated_busy_time = 0.0;  // summed simulated GPU time
  double simulated_makespan = 0.0;   // max per-worker simulated clock
};

/// The end-to-end ease.ml service (Figure 1): declarative job submission,
/// the feed/refine/infer operators (Figure 3), schema matching and task
/// generation, and resource allocation via the multi-tenant selector, all
/// running against the simulated training backend.
///
/// Thread-safe: one service-wide mutex serializes the public API (the
/// operators mutate job state and the service RNG, and a step's `Next`,
/// training run and `Report` must not interleave with another caller's).
/// Campaign drivers (`Step`, `RunSteps`, `RunAsync`) hold the lock for
/// their whole run, so operators issued from other threads observe
/// campaign boundaries, never intermediate states.
/// Lock ordering: `mu_` may be held while the internally synchronized
/// selector, `TaskPool` and `AsyncTrainingExecutor` locks are taken, never
/// the reverse.
class EaseMlService {
 public:
  struct Options {
    /// Selector engine configuration. `selector.num_shards` sets the
    /// engine's candidate-index shards and observer placement; every call,
    /// folds included, runs on the calling thread, and the selection trace
    /// is bit-identical for every shard count. `selector.num_devices` sizes
    /// the async pipeline; the two compose.
    core::SelectorOptions selector;
    SimulatedTrainingExecutor::Options executor;
    /// Fraction of fed examples whose labels are noisy (weak supervision).
    double noisy_label_fraction = 0.1;
    uint64_t seed = 1;
    /// Optional executor-utilization instruments (`easeml_exec_*`:
    /// dispatched/completed/failed counters, per-job and per-campaign wall
    /// histograms), recorded by `RunAsync`. Non-owning; must outlive the
    /// service. Pair with a `FleetObserver` on `selector.observer` sharing
    /// the same registry for the full serving-plus-executing picture.
    obs::Registry* metrics = nullptr;
  };

  static Result<EaseMlService> Create(const Options& options);

  /// Recovery startup path: builds the service around an engine someone
  /// else constructed — in practice `wal::OpenOrRecover`'s replayed
  /// selector (with `options.selector.wal` pointing at its resumed WAL, so
  /// the service keeps appending where the recovered history stops).
  /// `selector` must be non-null and already configured consistently with
  /// `options.selector`; job/task bookkeeping starts empty either way (the
  /// WAL logs SELECTOR events — resubmit jobs to rebind them to their
  /// recovered tenants in submission order, which is deterministic).
  static Result<EaseMlService> CreateWithSelector(
      const Options& options,
      std::unique_ptr<core::MultiTenantSelector> selector);

  /// Submits a declarative job. `program_text` is the Figure-2 DSL;
  /// `dynamic_range` describes the user's raw input range (inputs wider
  /// than image-like data get normalization candidates, Section 2.1).
  /// Returns the new job (tenant) id.
  Result<int> SubmitJob(const std::string& program_text,
                        double dynamic_range = 100.0) EASEML_EXCLUDES(mu_);

  int num_jobs() const EASEML_EXCLUDES(mu_);

  /// `feed`: registers `count` new supervision pairs for the job.
  Status Feed(int job, int count) EASEML_EXCLUDES(mu_);

  /// Examples fed so far (the refine UI's list).
  Result<std::vector<Example>> ListExamples(int job) const
      EASEML_EXCLUDES(mu_);

  /// `refine`: enables/disables one example.
  Status Refine(int job, int example_index, bool enabled)
      EASEML_EXCLUDES(mu_);

  /// `infer`: reports the best model so far; NotFound before any model
  /// finished training.
  Result<InferReport> Infer(int job) const EASEML_EXCLUDES(mu_);

  /// Runs one resource-allocation step: asks the selector for the next
  /// (tenant, model), trains it on the simulated backend, and feeds the
  /// result back. Returns the finished task. Fails with FailedPrecondition
  /// when all jobs are exhausted.
  Result<Task> Step() EASEML_EXCLUDES(mu_);

  /// Convenience: runs `n` steps or until exhausted; returns steps taken.
  Result<int> RunSteps(int n) EASEML_EXCLUDES(mu_);

  /// Runs the asynchronous multi-device selection pipeline to exhaustion:
  /// keeps up to `selector.num_devices` assignments in flight on an
  /// `AsyncTrainingExecutor` worker pool (one worker per device by
  /// default; pass `num_workers > 0` to override), reconciling completions
  /// in whatever order devices finish. A completion is reported to the
  /// selector (ticket validation, belief fold, outcome hook) before the
  /// task pool marks its task done. Every task moves through the pool's
  /// kPending -> kRunning -> kDone transitions exactly as in `Step`; a
  /// failed training run requeues its task, returns its selector ticket,
  /// and surfaces the error after the drain with the service in a
  /// consistent, re-runnable state. With `num_devices = 1` on a fresh
  /// service this reproduces the sequential `Step` loop bit-identically
  /// (worker 0 consumes the same RNG stream from the same seed; if Step()
  /// already ran, the worker pool's fresh simulators restart that stream,
  /// so mixed sequential/async campaigns are deterministic but not
  /// stream-continuous). A positive `seconds_per_cost_unit` dilates each
  /// training run by its simulated duration in real time, making
  /// `wall_seconds` a faithful D-device makespan.
  Result<AsyncRunReport> RunAsync(int num_workers = 0,
                                  double seconds_per_cost_unit = 0.0)
      EASEML_EXCLUDES(mu_);

  /// True when every job has trained all its candidates.
  bool Exhausted() const EASEML_EXCLUDES(mu_);

  /// Candidate models generated for a job by template matching (+
  /// normalization expansion).
  Result<std::vector<CandidateModel>> Candidates(int job) const
      EASEML_EXCLUDES(mu_);

  /// State of one task in the user-level task pool. Served straight from
  /// the internally synchronized pool — no service lock taken.
  Result<Task> TaskInfo(int task_id) const { return pool_.Get(task_id); }

  /// Simulated GPU time consumed so far, across both the sequential
  /// executor and all completed RunAsync campaigns.
  double ClusterTime() const EASEML_EXCLUDES(mu_);

 private:
  struct JobInfo {
    Program program;
    WorkloadType workload;
    std::vector<CandidateModel> candidates;
    std::vector<int> task_ids;     // aligned with candidates
    /// The fed examples' flags, bit i for `Example::index` i; the two
    /// vectors always have the same length.
    std::vector<bool> enabled;
    std::vector<bool> noisy;
    double difficulty = 0.8;       // hidden task difficulty
    double dynamic_range = 100.0;
    /// `EffectiveExamples(*this)`, kept as a running left fold: a new job
    /// starts at 0.0 and `Feed` adds its examples' weights in append order,
    /// the same additions in the same order as the full pass. `Refine` is
    /// the only other writer of the flags; it empties the memo, and
    /// `MakeTrainingJob` refills it with the full pass. Either way a served
    /// run sees exactly the sum a fresh count would give.
    std::optional<double> effective_examples = 0.0;
  };

  EaseMlService(const Options& options,
                std::unique_ptr<core::MultiTenantSelector> selector)
      : options_(options),
        selector_(std::move(selector)),
        executor_(options.executor),
        rng_(options.seed) {}

  Status ValidateJob(int job) const EASEML_REQUIRES(mu_);

  /// One resource-allocation step; `Step` and `RunSteps` share this seam so
  /// the campaign loop never re-acquires the service lock.
  Result<Task> StepLocked() EASEML_REQUIRES(mu_);

  bool ExhaustedLocked() const EASEML_REQUIRES(mu_);

  /// Resolves a selector assignment into the training request both the
  /// sequential and the asynchronous path execute (filling the job's
  /// example-count memo when it is empty).
  Result<AsyncTrainingJob> MakeTrainingJob(
      const core::MultiTenantSelector::Assignment& assignment)
      EASEML_REQUIRES(mu_);

  /// Effective supervision volume: disabled examples do not count and noisy
  /// ones count at a discount. Pure function of its argument.
  double EffectiveExamples(const JobInfo& job) const;

  /// Heap-allocated so the service stays movable (`Create` returns it by
  /// value); `mu_` is the stable capability the annotations name, and
  /// default moves keep the pair consistent.
  std::unique_ptr<Mutex> mu_storage_{std::make_unique<Mutex>()};
  Mutex* mu_{mu_storage_.get()};

  Options options_;
  /// The selector engine (built by `shard::MakeSelector` with
  /// `Options::selector.num_shards` shards). The pointer is set once in
  /// the constructor; the service lock orders the engine calls of a step,
  /// and the engine's own lock is taken after `mu_` per the ordering
  /// above.
  std::unique_ptr<core::MultiTenantSelector> selector_
      EASEML_PT_GUARDED_BY(mu_);
  SimulatedTrainingExecutor executor_ EASEML_GUARDED_BY(mu_);
  Rng rng_ EASEML_GUARDED_BY(mu_);
  TaskPool pool_;  // internally synchronized (see task_pool.h)
  std::vector<JobInfo> jobs_ EASEML_GUARDED_BY(mu_);
  double async_cluster_time_ EASEML_GUARDED_BY(mu_) = 0.0;  // over campaigns
};

}  // namespace easeml::platform

#endif  // EASEML_PLATFORM_SERVICE_H_
