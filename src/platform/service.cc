#include "platform/service.h"

#include <algorithm>
#include <climits>
#include <map>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "platform/templates.h"
#include "shard/sharded_selector.h"

namespace easeml::platform {

namespace {

// What a noisy example counts for in the effective example volume (noisy
// labels teach less); a clean one counts 1.
constexpr double kNoisyExampleWeight = 0.3;

}  // namespace

Result<EaseMlService> EaseMlService::Create(const Options& options) {
  // Negated range checks here and below: every comparison with NaN is false,
  // so a NaN fails the test instead of slipping past it.
  if (!(options.noisy_label_fraction >= 0.0 &&
        options.noisy_label_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "EaseMlService: noisy_label_fraction out of [0,1]");
  }
  EASEML_ASSIGN_OR_RETURN(std::unique_ptr<core::MultiTenantSelector> selector,
                          shard::MakeSelector(options.selector));
  return EaseMlService(options, std::move(selector));
}

Result<EaseMlService> EaseMlService::CreateWithSelector(
    const Options& options,
    std::unique_ptr<core::MultiTenantSelector> selector) {
  if (!(options.noisy_label_fraction >= 0.0 &&
        options.noisy_label_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "EaseMlService: noisy_label_fraction out of [0,1]");
  }
  if (selector == nullptr) {
    return Status::InvalidArgument("CreateWithSelector: null selector");
  }
  return EaseMlService(options, std::move(selector));
}

Result<int> EaseMlService::SubmitJob(const std::string& program_text,
                                     double dynamic_range) {
  if (!(dynamic_range >= 1.0)) {
    return Status::InvalidArgument("SubmitJob: dynamic range must be >= 1");
  }
  MutexLock lock(*mu_);
  JobInfo job;
  EASEML_ASSIGN_OR_RETURN(job.program, ParseProgram(program_text));
  EASEML_ASSIGN_OR_RETURN(TemplateMatch match, MatchTemplates(job.program));
  job.workload = match.workload;
  job.dynamic_range = dynamic_range;
  // Hidden task difficulty: what the best model could reach with unlimited
  // data. Unknown to the scheduler, only to the simulated world.
  job.difficulty = rng_.Uniform(0.6, 0.95);

  // Candidate generation: wide-dynamic-range inputs get one extra candidate
  // per normalization function (Section 2.1 / Figure 5).
  if (dynamic_range > 100.0) {
    job.candidates = ExpandWithNormalization(match.candidate_models);
  } else {
    for (const auto& m : match.candidate_models) {
      job.candidates.push_back(CandidateModel{m, false, 0.0});
    }
  }

  const int job_id = static_cast<int>(jobs_.size());
  EASEML_ASSIGN_OR_RETURN(job.task_ids,
                          pool_.AddUserTasks(job_id, job.candidates));

  // Per-candidate costs from the registry metadata.
  std::vector<double> costs;
  costs.reserve(job.candidates.size());
  for (const auto& c : job.candidates) {
    EASEML_ASSIGN_OR_RETURN(ModelInfo info,
                            ModelRegistry::Builtin().Find(c.base_model));
    costs.push_back(info.relative_cost);
  }
  EASEML_ASSIGN_OR_RETURN(
      int tenant, selector_->AddTenantWithDefaultPrior(
                      static_cast<int>(job.candidates.size()), costs));
  if (tenant != job_id) {
    return Status::Internal("SubmitJob: tenant/job id mismatch");
  }
  jobs_.push_back(std::move(job));
  return job_id;
}

int EaseMlService::num_jobs() const {
  MutexLock lock(*mu_);
  return static_cast<int>(jobs_.size());
}

Status EaseMlService::ValidateJob(int job) const {
  if (job < 0 || job >= static_cast<int>(jobs_.size())) {
    return Status::OutOfRange("job id out of range: " + std::to_string(job));
  }
  return Status::OK();
}

Status EaseMlService::Feed(int job, int count) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateJob(job));
  if (count <= 0) {
    return Status::InvalidArgument("Feed: count must be positive");
  }
  JobInfo& info = jobs_[job];
  // Example indices are ints; `fed <= INT_MAX` always holds.
  const int fed = static_cast<int>(info.noisy.size());
  if (count > INT_MAX - fed) {
    return Status::OutOfRange("Feed: a job holds at most INT_MAX examples");
  }
  info.enabled.resize(fed + count, true);
  info.noisy.resize(fed + count);
  auto noisy_bit = info.noisy.begin() + fed;
  double effective = info.effective_examples.value_or(0.0);
  rng_.Bernoulli(options_.noisy_label_fraction, count, [&](bool noisy) {
    *noisy_bit++ = noisy;
    effective += noisy ? kNoisyExampleWeight : 1.0;
  });
  if (info.effective_examples) info.effective_examples = effective;
  return Status::OK();
}

Result<std::vector<Example>> EaseMlService::ListExamples(int job) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateJob(job));
  const JobInfo& info = jobs_[job];
  std::vector<Example> examples;
  examples.reserve(info.noisy.size());
  for (size_t i = 0; i < info.noisy.size(); ++i) {
    examples.push_back(
        Example{static_cast<int>(i), info.enabled[i], info.noisy[i]});
  }
  return examples;
}

Status EaseMlService::Refine(int job, int example_index, bool enabled) {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateJob(job));
  JobInfo& info = jobs_[job];
  if (example_index < 0 ||
      example_index >= static_cast<int>(info.enabled.size())) {
    return Status::OutOfRange("Refine: example index out of range");
  }
  info.enabled[example_index] = enabled;
  info.effective_examples.reset();
  return Status::OK();
}

double EaseMlService::EffectiveExamples(const JobInfo& job) const {
  double effective = 0.0;
  for (size_t i = 0; i < job.noisy.size(); ++i) {
    if (!job.enabled[i]) continue;
    effective += job.noisy[i] ? kNoisyExampleWeight : 1.0;
  }
  return effective;
}

Result<InferReport> EaseMlService::Infer(int job) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateJob(job));
  EASEML_ASSIGN_OR_RETURN(Task best, pool_.BestForUser(job));
  InferReport report;
  report.model_name = best.candidate.DisplayName();
  report.accuracy = best.accuracy;
  EASEML_ASSIGN_OR_RETURN(report.rounds_served, selector_->RoundsServed(job));
  return report;
}

Result<AsyncTrainingJob> EaseMlService::MakeTrainingJob(
    const core::MultiTenantSelector::Assignment& assignment) {
  JobInfo& job = jobs_[assignment.tenant];
  if (!job.effective_examples) job.effective_examples = EffectiveExamples(job);
  AsyncTrainingJob spec;
  spec.job_id = assignment.id;
  spec.candidate = job.candidates[assignment.model];
  EASEML_ASSIGN_OR_RETURN(
      spec.model, ModelRegistry::Builtin().Find(spec.candidate.base_model));
  spec.profile.difficulty = job.difficulty;
  spec.profile.num_examples = std::max(1.0, *job.effective_examples);
  spec.profile.dynamic_range = job.dynamic_range;
  return spec;
}

Result<Task> EaseMlService::Step() {
  MutexLock lock(*mu_);
  return StepLocked();
}

Result<Task> EaseMlService::StepLocked() {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector::Assignment assignment,
                          selector_->Next());
  EASEML_ASSIGN_OR_RETURN(AsyncTrainingJob spec, MakeTrainingJob(assignment));
  const int task_id = jobs_[assignment.tenant].task_ids[assignment.model];
  EASEML_RETURN_NOT_OK(pool_.MarkRunning(task_id));
  EASEML_ASSIGN_OR_RETURN(
      TrainingOutcome outcome,
      executor_.Train(spec.model, spec.candidate, spec.profile));
  EASEML_RETURN_NOT_OK(
      pool_.MarkDone(task_id, outcome.accuracy, outcome.duration));
  EASEML_RETURN_NOT_OK(selector_->Report(assignment, outcome.accuracy));
  return pool_.Get(task_id);
}

Result<AsyncRunReport> EaseMlService::RunAsync(int num_workers,
                                               double seconds_per_cost_unit) {
  MutexLock lock(*mu_);
  if (selector_->num_in_flight() > 0) {
    return Status::FailedPrecondition(
        "RunAsync: selector already has in-flight assignments");
  }
  AsyncTrainingExecutor::Options options;
  options.num_workers =
      num_workers > 0 ? num_workers : selector_->num_devices();
  options.executor = options_.executor;
  options.seconds_per_cost_unit = seconds_per_cost_unit;
  EASEML_ASSIGN_OR_RETURN(std::unique_ptr<AsyncTrainingExecutor> pool,
                          AsyncTrainingExecutor::Create(options));

  AsyncRunReport report;
  report.num_workers = options.num_workers;
  const double start = MonotonicSeconds();

  // Executor-utilization instruments (all null when unconfigured). The
  // dispatch loop is single-threaded, so the ticket->submit-time map needs
  // no lock; completions correlate through the selector ticket id.
  obs::Counter* exec_dispatched = nullptr;
  obs::Counter* exec_completed = nullptr;
  obs::Counter* exec_failed = nullptr;
  obs::Histogram* exec_job_wall_us = nullptr;
  obs::Histogram* exec_campaign_wall_us = nullptr;
  if (options_.metrics != nullptr) {
    exec_dispatched = options_.metrics->GetCounter("easeml_exec_dispatched");
    exec_completed = options_.metrics->GetCounter("easeml_exec_completed");
    exec_failed = options_.metrics->GetCounter("easeml_exec_failed");
    exec_job_wall_us =
        options_.metrics->GetHistogram("easeml_exec_job_wall_us");
    exec_campaign_wall_us =
        options_.metrics->GetHistogram("easeml_exec_campaign_wall_us");
  }
  std::map<int64_t, double> submit_time;

  // A per-job Train failure (bad profile, broken device) must not wedge
  // the service: the ticket is cancelled, the task requeued, dispatch
  // stops, the drain finishes, and the first error is returned with the
  // selector and task pool back in a consistent, re-runnable state.
  Status first_error;
  while (true) {
    // Fill every free device slot before blocking on a completion. The
    // selector's in-flight table is the one source of truth for what is
    // running; completions are correlated through its tickets.
    while (first_error.ok() && selector_->HasDispatchableWork()) {
      EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector::Assignment a,
                              selector_->Next());
      // Any dispatch failure after Next must unwind what already
      // happened (return the ticket, un-run the task) and then keep
      // DRAINING — an early return would abandon the other in-flight
      // tickets and wedge every future campaign.
      auto spec = MakeTrainingJob(a);
      if (!spec.ok()) {
        EASEML_RETURN_NOT_OK(selector_->Cancel(a));
        first_error = spec.status();
        break;
      }
      const int task_id = jobs_[a.tenant].task_ids[a.model];
      Status running = pool_.MarkRunning(task_id);
      if (!running.ok()) {
        EASEML_RETURN_NOT_OK(selector_->Cancel(a));
        first_error = running;
        break;
      }
      Status submitted = pool->Submit(std::move(*spec));
      if (!submitted.ok()) {
        EASEML_RETURN_NOT_OK(pool_.Requeue(task_id));
        EASEML_RETURN_NOT_OK(selector_->Cancel(a));
        first_error = submitted;
        break;
      }
      if (exec_dispatched != nullptr) {
        exec_dispatched->Increment();
        submit_time[a.id] = MonotonicSeconds();
      }
    }
    if (pool->outstanding() == 0) break;  // drained and nothing dispatchable

    EASEML_ASSIGN_OR_RETURN(AsyncTrainingCompletion done,
                            pool->WaitCompletion());
    EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector::Assignment a,
                            selector_->InFlightAssignment(done.job_id));
    const int task_id = jobs_[a.tenant].task_ids[a.model];
    if (exec_dispatched != nullptr) {
      const auto it = submit_time.find(a.id);
      if (it != submit_time.end()) {
        exec_job_wall_us->Record((MonotonicSeconds() - it->second) * 1e6);
        submit_time.erase(it);
      }
      (done.status.ok() ? exec_completed : exec_failed)->Increment();
    }
    if (!done.status.ok()) {
      EASEML_RETURN_NOT_OK(pool_.Requeue(task_id));
      EASEML_RETURN_NOT_OK(selector_->Cancel(a));
      if (first_error.ok()) first_error = done.status;
      continue;
    }
    // Report first: the selector validates the ticket, so a rejected
    // completion returns before the task pool records its task done.
    EASEML_RETURN_NOT_OK(selector_->Report(a, done.outcome.accuracy));
    EASEML_RETURN_NOT_OK(pool_.MarkDone(task_id, done.outcome.accuracy,
                                        done.outcome.duration));
    ++report.steps;
  }
  // The successful runs of a failed campaign were Reported and MarkDone'd,
  // so their simulated time counts toward ClusterTime() either way.
  report.simulated_busy_time = pool->SimulatedBusyTime();
  report.simulated_makespan = pool->SimulatedMakespan();
  async_cluster_time_ += report.simulated_busy_time;
  EASEML_RETURN_NOT_OK(first_error);

  report.wall_seconds = MonotonicSeconds() - start;
  if (exec_campaign_wall_us != nullptr) {
    exec_campaign_wall_us->Record(report.wall_seconds * 1e6);
  }
  pool->Shutdown();
  return report;
}

Result<int> EaseMlService::RunSteps(int n) {
  if (n < 0) return Status::InvalidArgument("RunSteps: negative count");
  MutexLock lock(*mu_);
  int taken = 0;
  for (int i = 0; i < n && !ExhaustedLocked(); ++i) {
    EASEML_ASSIGN_OR_RETURN(Task task, StepLocked());
    (void)task;
    ++taken;
  }
  return taken;
}

bool EaseMlService::Exhausted() const {
  MutexLock lock(*mu_);
  return ExhaustedLocked();
}

bool EaseMlService::ExhaustedLocked() const { return selector_->Exhausted(); }

double EaseMlService::ClusterTime() const {
  MutexLock lock(*mu_);
  return executor_.clock() + async_cluster_time_;
}

Result<std::vector<CandidateModel>> EaseMlService::Candidates(int job) const {
  MutexLock lock(*mu_);
  EASEML_RETURN_NOT_OK(ValidateJob(job));
  return jobs_[job].candidates;
}

}  // namespace easeml::platform
