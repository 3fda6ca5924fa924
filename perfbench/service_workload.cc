// service_durable: the whole stack as users touch it. EaseMlService over a
// 2-shard ShardedMultiTenantSelector (HYBRID, candidate index) with a
// group-commit WAL and a FleetObserver attached. One closed-loop client
// mixes Step() decisions with job arrivals (SubmitJob + Feed), one Infer
// poll per decision, snapshot reads and checkpoints; the episode ends with
// SyncHard, a simulated crash (everything dropped) and timed recovery, whose
// engine state must equal the crash-point state byte for byte.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "platform/service.h"
#include "seams.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/record.h"
#include "wal/recovery.h"
#include "wal/selector_wal.h"
#include "workloads.h"

namespace perfbench {

namespace {

using easeml::Result;
using easeml::Status;
using easeml::StatusCode;
using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;
using easeml::platform::EaseMlService;
using easeml::shard::ShardedMultiTenantSelector;

struct JobSpec {
  std::string program;
  double dynamic_range = 100.0;
  int examples = 0;
};

constexpr int kServiceRealizations = 2;

struct ServiceSizes {
  int initial_jobs = 0;
  int arrivals = 0;
  int decisions = 0;
  int snapshot_every = 0;
  int checkpoint_every = 0;
};

/// Figure-2 DSL jobs: image classification (8 CNN candidates), the same
/// with a wide input range (one extra candidate per normalization), and
/// image recovery (3 candidates).
std::vector<JobSpec> MakeJobs(int count, uint64_t seed) {
  static const int kSides[] = {28, 32, 64, 128, 224, 256};
  static const int kClasses[] = {2, 3, 10, 100, 1000};
  easeml::Rng rng(seed ^ 0x6a6f6273ull);
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int side = kSides[rng.UniformInt(0, 5)];
    const std::string in = "{input: {[Tensor[" + std::to_string(side) + "," +
                           std::to_string(side) + ",3]], []}, ";
    JobSpec job;
    const double kind = rng.Uniform();
    if (kind < 0.2) {
      job.program = in + "output: {[Tensor[" + std::to_string(side) + "," +
                    std::to_string(side) + ",3]], []}}";
    } else {
      job.program = in + "output: {[Tensor[" +
                    std::to_string(kClasses[rng.UniformInt(0, 4)]) +
                    "]], []}}";
      if (kind < 0.4) job.dynamic_range = 1e4;
    }
    job.examples = rng.UniformInt(100, 5000);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

SelectorOptions EngineOptions(uint64_t seed) {
  SelectorOptions o;
  o.scheduler = SchedulerKind::kHybrid;
  o.num_shards = 2;
  o.use_candidate_index = true;
  o.seed = seed;
  return o;
}

/// One durable service with everything it points at. Members are destroyed
/// in reverse order, so the service (and the engine it owns) goes before the
/// WAL, observer and decorators its engine holds raw pointers to.
struct ServiceStack {
  std::string dir;
  std::unique_ptr<CountingFileSystem> counting;
  easeml::wal::FileSystem* fs = nullptr;
  std::unique_ptr<easeml::wal::SelectorWal> wal;
  std::unique_ptr<easeml::obs::Registry> registry;
  std::unique_ptr<easeml::obs::FleetObserver> fleet;
  std::unique_ptr<TracedDurabilityLog> traced_wal;
  std::unique_ptr<TracedObserver> traced_obs;
  ShardedMultiTenantSelector* engine = nullptr;  // owned by `service`
  std::unique_ptr<EaseMlService> service;

  /// Drops everything, service first (the crash of the episode).
  void Drop() {
    engine = nullptr;
    service.reset();
    traced_obs.reset();
    traced_wal.reset();
    fleet.reset();
    registry.reset();
    wal.reset();
    counting.reset();
  }
};

Status FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

/// Builds the stack in `dir` and admits `jobs[0, initial)`. With `traced`
/// the decorators sit between the engine and the WAL, observer and disk.
Status SetUpService(const std::string& dir, const std::vector<JobSpec>& jobs,
                    int initial, uint64_t seed, bool traced,
                    ServiceStack* stack, OpLedger* ledger) {
  namespace wal = easeml::wal;
  stack->dir = dir;
  easeml::wal::FileSystem* posix = wal::GetPosixFileSystem();
  if (traced) {
    stack->counting =
        std::make_unique<CountingFileSystem>(posix, wal::LogPath(dir));
    stack->fs = stack->counting.get();
  } else {
    stack->fs = posix;
  }
  wal::SelectorWalOptions wal_options;
  wal_options.durability = wal::SelectorWalOptions::Durability::kDeferred;
  auto log = wal::SelectorWal::Open(stack->fs, wal::LogPath(dir), wal_options);
  if (!ledger->Record("wal_open", log.status())) return log.status();
  stack->wal = std::move(log).value();
  stack->registry = std::make_unique<easeml::obs::Registry>();
  easeml::obs::FleetObserverOptions obs_options;
  obs_options.num_shards = 2;
  obs_options.registry = stack->registry.get();
  stack->fleet = std::make_unique<easeml::obs::FleetObserver>(obs_options);

  SelectorOptions so = EngineOptions(seed);
  so.wal = stack->wal.get();
  so.observer = stack->fleet.get();
  if (traced) {
    stack->traced_wal = std::make_unique<TracedDurabilityLog>(stack->wal.get());
    stack->traced_obs = std::make_unique<TracedObserver>(stack->fleet.get());
    so.wal = stack->traced_wal.get();
    so.observer = stack->traced_obs.get();
  }
  auto engine = ShardedMultiTenantSelector::Create(so);
  if (!ledger->Record("engine_create", engine.status())) return engine.status();
  stack->engine = engine->get();
  EaseMlService::Options svc;
  svc.selector = so;
  svc.seed = seed;
  svc.metrics = stack->registry.get();
  auto service = EaseMlService::CreateWithSelector(svc, std::move(engine).value());
  if (!ledger->Record("service_create", service.status())) {
    return service.status();
  }
  stack->service = std::make_unique<EaseMlService>(std::move(service).value());
  for (int j = 0; j < initial; ++j) {
    Result<int> id = Status::Internal("unset");
    {
      ScopedSpan span(Span::kSubmit);
      id = stack->service->SubmitJob(jobs[j].program, jobs[j].dynamic_range);
    }
    if (!ledger->Record("submit", id.status())) return id.status();
    Status fed;
    {
      ScopedSpan span(Span::kFeed);
      fed = stack->service->Feed(*id, jobs[j].examples);
    }
    if (!ledger->Record("feed", fed)) return fed;
  }
  return Status::OK();
}

struct ServiceEpisode {
  int64_t setup_start_ns = 0;
  int64_t serve_start_ns = 0;
  int64_t serve_end_ns = 0;
  double serve_s = 0.0;
  int64_t decisions = 0;
  std::vector<double> step_us, infer_us, admit_us, snapshot_us, checkpoint_ms;
  std::vector<int64_t> start_ns;  // per decision
  std::vector<double> driver_wait_us;
  double recovery_s = 0.0;
  int64_t replayed_records = 0;
  std::string digest;
  // Traced-episode counters (deltas over the serving phase).
  int64_t wal_records = 0, obs_hooks = 0;
  int64_t log_bytes = 0, log_appends = 0, syncs = 0, checkpoint_bytes = 0;
  std::vector<double> shard_cpu_s;
};

int64_t Load(const std::atomic<int64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

/// The serving phase plus crash and recovery. Returns false when the
/// episode could not run to its end (the cause is in `result`).
bool ServeService(ServiceStack* stack, const std::vector<JobSpec>& jobs,
                  const ServiceSizes& sizes, const RunConfig& config,
                  uint64_t seed, bool traced, ServiceEpisode* ep,
                  RunResult* result) {
  Tracer& tracer = Tracer::Get();
  OpLedger& ledger = result->ledger;
  EaseMlService& service = *stack->service;
  easeml::Rng poll_rng(seed ^ 0x706f6c6cull);
  TraceDigest digest;
  const int arrival_every = std::max(1, sizes.decisions / std::max(1, sizes.arrivals));
  int next_job = sizes.initial_jobs;
  int64_t step_failed = 0, infer_ok = 0, infer_refused = 0;
  Status first_failure;

  std::vector<double> cpu0;
  int64_t records0 = 0, hooks0 = 0, bytes0 = 0, appends0 = 0, syncs0 = 0;
  if (traced) {
    cpu0 = stack->engine->ShardCpuSeconds();
    records0 = stack->traced_wal->records();
    hooks0 = stack->traced_obs->hooks();
    const FileCounters& fc = stack->counting->counters();
    bytes0 = Load(fc.log_bytes);
    appends0 = Load(fc.log_appends);
    syncs0 = Load(fc.syncs);
  }
  ep->step_us.reserve(sizes.decisions);
  ep->infer_us.reserve(sizes.decisions);
  ep->serve_start_ns = NowNs();
  for (int d = 0; d < sizes.decisions; ++d) {
    if (d % arrival_every == 0 && next_job < static_cast<int>(jobs.size()) &&
        next_job < sizes.initial_jobs + sizes.arrivals) {
      const JobSpec& job = jobs[next_job];
      const int64_t a0 = NowNs();
      Result<int> id = Status::Internal("unset");
      {
        ScopedSpan span(Span::kSubmit);
        id = service.SubmitJob(job.program, job.dynamic_range);
      }
      Status fed = id.status();
      if (id.ok()) {
        ScopedSpan span(Span::kFeed);
        fed = service.Feed(*id, job.examples);
      }
      ep->admit_us.push_back(1e-3 * static_cast<double>(NowNs() - a0));
      if (!ledger.Record("submit", id.status())) return false;
      if (!ledger.Record("feed", fed)) return false;
      ++next_job;
    }

    tracer.set_decision(d);
    const double c0 = traced ? ThreadCpuNow() : 0.0;
    Result<easeml::platform::Task> task = Status::Internal("unset");
    const int64_t t0 = NowNs();
    {
      ScopedSpan decision(Span::kDecision);
      ScopedSpan span(Span::kStep);
      task = service.Step();
    }
    const int64_t t1 = NowNs();
    const double c1 = traced ? ThreadCpuNow() : 0.0;
    tracer.set_decision(-1);
    if (!task.ok()) {
      ++step_failed;
      first_failure = task.status();
      break;
    }
    ep->step_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    ep->start_ns.push_back(t0);
    if (traced) {
      ep->driver_wait_us.push_back(1e-3 * static_cast<double>(t1 - t0) -
                                   1e6 * (c1 - c0));
    }
    digest.Add(task->user_id, task->task_id);

    // One Infer poll per decision on a random job. NotFound before the
    // job's first finished run is the documented answer, not a failure.
    const int job = poll_rng.UniformInt(0, next_job - 1);
    const int64_t i0 = NowNs();
    Result<easeml::platform::InferReport> infer = Status::Internal("unset");
    {
      ScopedSpan span(Span::kInfer);
      infer = service.Infer(job);
    }
    ep->infer_us.push_back(1e-3 * static_cast<double>(NowNs() - i0));
    if (infer.ok()) {
      ++infer_ok;
    } else if (infer.status().code() == StatusCode::kNotFound) {
      ++infer_refused;
    } else {
      ledger.Record("infer", infer.status());
    }

    if ((d + 1) % sizes.snapshot_every == 0) {
      const int64_t s0 = NowNs();
      int64_t rounds = 0;
      {
        ScopedSpan span(Span::kSnapshot);
        const easeml::obs::FleetSnapshot snap = stack->fleet->plane().Snapshot();
        snap.ForEachTenant([&rounds](int, const easeml::core::TenantObservation& o) {
          rounds += o.rounds_served;
        });
      }
      ep->snapshot_us.push_back(1e-3 * static_cast<double>(NowNs() - s0));
      // Published blocks lag the engine but can never run ahead of it.
      if (rounds > d + 1) {
        result->mismatches.push_back("snapshot shows " + std::to_string(rounds) +
                                     " rounds after " + std::to_string(d + 1) +
                                     " decisions");
      }
    }
    if ((d + 1) % sizes.checkpoint_every == 0) {
      const int64_t other0 =
          traced ? Load(stack->counting->counters().other_bytes) : 0;
      const int64_t k0 = NowNs();
      Status cut;
      {
        ScopedSpan span(Span::kCheckpoint);
        cut = easeml::wal::CutCheckpoint(stack->fs, stack->dir, stack->wal.get(),
                                         *stack->engine,
                                         &stack->fleet->plane());
      }
      ep->checkpoint_ms.push_back(1e-6 * static_cast<double>(NowNs() - k0));
      if (traced) {
        ep->checkpoint_bytes +=
            Load(stack->counting->counters().other_bytes) - other0;
      }
      if (!ledger.Record("checkpoint", cut)) return false;
    }
  }
  ep->serve_end_ns = NowNs();
  ep->decisions = static_cast<int64_t>(ep->step_us.size());
  ep->serve_s =
      1e-9 * static_cast<double>(ep->serve_end_ns - ep->serve_start_ns);
  ep->digest = digest.Hex();
  ledger.AddOk("step", ep->decisions);
  ledger.AddOk("infer", infer_ok + infer_refused);
  ledger.Refused("infer", infer_refused);
  ledger.AddOk("snapshot", static_cast<int64_t>(ep->snapshot_us.size()));
  if (step_failed > 0) {
    ledger.Record("step", first_failure);
    result->mismatches.push_back("Step failed after " +
                                 std::to_string(ep->decisions) +
                                 " decisions: " + first_failure.ToString());
    return false;
  }
  if (config.inject_failing_call) {
    // Feeding a job that does not exist must be refused by the service and
    // counted as a failed operation.
    ledger.Record("feed", service.Feed(1 << 30, 1));
  }

  // Crash point: make the log durable, capture the engine state, drop
  // everything.
  if (!ledger.Record("sync_hard", stack->wal->SyncHard())) return false;
  if (traced) {
    const std::vector<double> cpu1 = stack->engine->ShardCpuSeconds();
    for (size_t s = 0; s < cpu1.size() && s < cpu0.size(); ++s) {
      ep->shard_cpu_s.push_back(cpu1[s] - cpu0[s]);
    }
    ep->wal_records = stack->traced_wal->records() - records0;
    ep->obs_hooks = stack->traced_obs->hooks() - hooks0;
    const FileCounters& fc = stack->counting->counters();
    ep->log_bytes = Load(fc.log_bytes) - bytes0;
    ep->log_appends = Load(fc.log_appends) - appends0;
    ep->syncs = Load(fc.syncs) - syncs0;
  }
  auto crash_state = stack->engine->CaptureDurableState();
  if (!ledger.Record("capture", crash_state.status())) return false;
  std::string crash_bytes;
  easeml::wal::EncodeDurableSelectorState(&crash_bytes, *crash_state);
  const std::string dir = stack->dir;
  stack->Drop();

  easeml::wal::SelectorWalOptions wal_options;
  wal_options.durability =
      easeml::wal::SelectorWalOptions::Durability::kDeferred;
  const int64_t r0 = NowNs();
  Result<easeml::wal::RecoveredSelector> recovered = Status::Internal("unset");
  {
    ScopedSpan span(Span::kRecovery);
    recovered = easeml::wal::OpenOrRecover(easeml::wal::GetPosixFileSystem(),
                                           dir, EngineOptions(seed),
                                           wal_options);
  }
  ep->recovery_s = 1e-9 * static_cast<double>(NowNs() - r0);
  if (!ledger.Record("recover", recovered.status())) return false;
  ep->replayed_records = recovered->stats.replayed_records;
  auto recovered_state = recovered->selector->CaptureDurableState();
  if (!ledger.Record("capture", recovered_state.status())) return false;
  std::string recovered_bytes;
  easeml::wal::EncodeDurableSelectorState(&recovered_bytes, *recovered_state);
  if (config.flip_recovered_byte && !recovered_bytes.empty()) {
    recovered_bytes[recovered_bytes.size() / 2] ^= 0x01;
  }
  if (recovered_bytes != crash_bytes) {
    result->mismatches.push_back(
        "recovered engine state differs from the crash-point state (" +
        std::to_string(recovered_bytes.size()) + " vs " +
        std::to_string(crash_bytes.size()) + " bytes)");
  }
  const Status valid = recovered->selector->ValidateIndex();
  ledger.Record("validate_index", valid);
  if (!valid.ok()) {
    result->mismatches.push_back("recovered index invalid: " + valid.ToString());
  }
  return true;
}

/// Replays the episode's own WAL: the admissions into a bare 2-shard engine
/// (shard.add_tenant), the whole record stream into a side engine built
/// like the live one without WAL or observer (replay.next/replay.report,
/// checked against the logged picks), and the decisions into gp/bandit side
/// objects.
void ReplayFromWal(const std::string& dir, uint64_t seed, RunResult* result) {
  namespace wal = easeml::wal;
  Tracer& tracer = Tracer::Get();
  OpLedger& ledger = result->ledger;
  auto log = wal::GetPosixFileSystem()->ReadFile(wal::LogPath(dir));
  if (!ledger.Record("replay_read", log.status())) return;
  auto scan = wal::ScanLog(*log, 0, 0);
  if (!ledger.Record("replay_scan", scan.status())) return;

  SelectorOptions so = EngineOptions(seed);
  auto bare = ShardedMultiTenantSelector::Create(so);
  auto side = ShardedMultiTenantSelector::Create(so);
  if (!ledger.Record("replay_create", bare.status()) ||
      !ledger.Record("replay_create", side.status())) {
    return;
  }
  std::vector<std::shared_ptr<const easeml::gp::SharedGpPrior>> priors;
  std::vector<ReplayTenant> tenants;
  std::vector<ReplayEvent> events;
  MultiTenantSelector::Assignment pending;
  int64_t decision = 0, pick_mismatches = 0;
  for (const wal::Record& rec : scan->records) {
    switch (rec.type) {
      case wal::RecordType::kRegisterPrior: {
        wal::RegisterPriorBody body;
        if (!ledger.Record("replay_decode", wal::DecodeRegisterPrior(rec.body, &body))) return;
        const auto& p = body.prior;
        easeml::linalg::Matrix gram(p.num_arms, p.num_arms);
        gram.mutable_data() = p.gram;
        auto prior = easeml::gp::MakeSharedGpPrior(std::move(gram),
                                                   p.noise_variance, p.mean);
        if (!ledger.Record("replay_prior", prior.status())) return;
        priors.push_back(*prior);
        break;
      }
      case wal::RecordType::kAddTenant: {
        wal::AddTenantBody body;
        if (!ledger.Record("replay_decode", wal::DecodeAddTenant(rec.body, &body))) return;
        const auto& prior = priors.at(body.prior_id);
        Result<int> id = Status::Internal("unset");
        {
          ScopedSpan span(Span::kReplayAddTenant);
          id = (*bare)->AddTenant(prior, body.costs);
        }
        ledger.Record("replay_add_tenant", id.status());
        ledger.Record("replay_add_tenant",
                      (*side)->AddTenant(prior, body.costs).status());
        if (static_cast<int>(tenants.size()) <= body.tenant) {
          tenants.resize(body.tenant + 1);
        }
        tenants[body.tenant] = {prior, body.costs};
        break;
      }
      case wal::RecordType::kNext: {
        wal::NextBody body;
        if (!ledger.Record("replay_decode", wal::DecodeNext(rec.body, &body))) return;
        tracer.set_decision(decision);
        Result<MultiTenantSelector::Assignment> a = Status::Internal("unset");
        {
          ScopedSpan span(Span::kReplayNext);
          a = (*side)->Next();
        }
        tracer.set_decision(-1);
        if (!ledger.Record("replay_next", a.status())) return;
        if (a->tenant != body.tenant || a->model != body.model ||
            a->id != body.ticket) {
          ++pick_mismatches;
        }
        pending = *a;
        break;
      }
      case wal::RecordType::kReport: {
        wal::ReportBody body;
        if (!ledger.Record("replay_decode", wal::DecodeReport(rec.body, &body))) return;
        tracer.set_decision(decision);
        Status reported;
        {
          ScopedSpan span(Span::kReplayReport);
          reported = (*side)->Report(pending, body.accuracy);
        }
        tracer.set_decision(-1);
        ledger.Record("replay_report", reported);
        events.push_back(
            {body.tenant, body.model, body.accuracy, decision, decision});
        ++decision;
        break;
      }
      default:
        break;
    }
  }
  if (pick_mismatches > 0) {
    result->mismatches.push_back(std::to_string(pick_mismatches) +
                                 " side-engine picks differ from the WAL");
  }
  const BeliefReplayStats rs =
      ReplayBeliefs(tenants, events, so.delta, so.cost_aware, &ledger);
  if (rs.arm_mismatches > 0) {
    result->mismatches.push_back(
        std::to_string(rs.arm_mismatches) +
        " replayed GP-UCB arm choices differ from the served ones");
  }
  MetricSink& pl = result->per_layer;
  pl.Set("gp.observe_ns_per_t2", rs.observe_ns / std::max(1.0, rs.sum_t2),
         "ns");
  pl.Set("gp.belief_mb", rs.belief_bytes / (1024.0 * 1024.0), "MiB");
}

/// Per-layer metrics of the analyzed (traced) episode.
void ReportServiceLayers(const ServiceEpisode& ep, RunResult* result) {
  MetricSink& pl = result->per_layer;
  const double n = static_cast<double>(std::max<int64_t>(1, ep.decisions));
  const auto in_serve = [&ep](Span kind) {
    return SpanDurations(kind, ep.serve_start_ns, ep.serve_end_ns);
  };
  pl.Set("platform.submit_us_p50", Median(in_serve(Span::kSubmit)), "us");
  pl.Set("core.add_tenant_us_p50", 0.0, "us");
  pl.Set("shard.add_tenant_us_p50",
         Median(SpanDurations(Span::kReplayAddTenant, 0, INT64_MAX)), "us");
  double cpu_sum = 0.0, cpu_max = 0.0;
  for (double c : ep.shard_cpu_s) {
    cpu_sum += c;
    cpu_max = std::max(cpu_max, c);
  }
  const double cpu_mean =
      ep.shard_cpu_s.empty() ? 0.0 : cpu_sum / ep.shard_cpu_s.size();
  pl.Set("shard.worker_cpu_s", cpu_sum, "s");
  pl.Set("shard.worker_imbalance", cpu_mean > 0 ? cpu_max / cpu_mean : 0.0,
         "ratio");
  pl.Set("shard.driver_wait_us_p50", Median(ep.driver_wait_us), "us");
  const std::vector<double> appends = in_serve(Span::kWalAppend);
  pl.Set("wal.append_us_p50", Quantile(appends, 0.5), "us");
  pl.Set("wal.append_us_p99", Quantile(appends, 0.99), "us");
  pl.Set("wal.records_per_decision", ep.wal_records / n, "count");
  pl.Set("wal.bytes_per_decision", ep.log_bytes / n, "B");
  pl.Set("wal.writes_per_1k_decisions", 1000.0 * ep.log_appends / n, "count");
  pl.Set("wal.fsyncs", static_cast<double>(ep.syncs), "count");
  pl.Set("wal.flush_us_p99", Quantile(in_serve(Span::kFileAppend), 0.99),
         "us");
  pl.Set("wal.checkpoint_ms", Median(ep.checkpoint_ms), "ms");
  pl.Set("wal.checkpoint_bytes",
         ep.checkpoint_ms.empty() ? 0.0
                                  : static_cast<double>(ep.checkpoint_bytes) /
                                        ep.checkpoint_ms.size(),
         "B");
  pl.Set("wal.replayed_records", static_cast<double>(ep.replayed_records),
         "count");
  const std::vector<double> hooks = in_serve(Span::kObsHook);
  pl.Set("obs.hook_us_p50", Quantile(hooks, 0.5), "us");
  pl.Set("obs.hook_us_p99", Quantile(hooks, 0.99), "us");
  pl.Set("obs.hooks_per_decision", ep.obs_hooks / n, "count");
  pl.Set("obs.snapshot_us_p50", Median(in_serve(Span::kSnapshot)), "us");
  const auto rows = BreakDown(ep.serve_start_ns, ep.serve_end_ns, ep.decisions);
  DeriveLayerMetrics(rows, /*service=*/true, result);
}

}  // namespace

void RunServiceDurable(const RunConfig& config, RunResult* result) {
  // 600 jobs at start and 600 arriving over 4800 decisions (one per eight):
  // the freeze detector, the Infer scan and the sharded admission all grow
  // with the job count, so each phase of the episode sees them grow.
  const ServiceSizes sizes = config.tiny ? ServiceSizes{30, 30, 240, 40, 100}
                                         : ServiceSizes{600, 600, 4800, 200,
                                                        1500};
  const int realizations = config.tiny ? 2 : kServiceRealizations;
  std::vector<std::vector<JobSpec>> jobs;
  for (int r = 0; r < realizations; ++r) {
    jobs.push_back(MakeJobs(sizes.initial_jobs + sizes.arrivals,
                            RealizationSeed(config.seed, r)));
  }
  Tracer& tracer = Tracer::Get();
  std::vector<double> probe = {RefLoopMs()};
  const std::string base = config.work_dir + "/service_durable";

  std::vector<double> setup_s;
  CleanEpisodes plain, traced_runs;
  std::vector<double> infer_p50, infer_p99, admit_p50, recovery_s;
  std::vector<std::string> digests(realizations);
  double served_s = 0.0;
  for (int cycle = 0;; ++cycle) {
    // Tracing alternates per cycle of realizations in the traced run.
    const bool traced = config.trace && cycle % 2 == 1;
    for (int r = 0; r < realizations; ++r) {
      const uint64_t seed = RealizationSeed(config.seed, r);
      const bool analyze = traced && cycle == 1 && r == 0;
      const std::string dir = base + "-episode";
      if (!result->ledger.Record("work_dir", FreshDir(dir))) return;
      if (analyze) tracer.Clear();
      tracer.set_enabled(traced);
      ServiceEpisode ep;
      ServiceStack stack;
      ep.setup_start_ns = NowNs();
      const Status s = SetUpService(dir, jobs[r], sizes.initial_jobs, seed,
                                    traced, &stack, &result->ledger);
      setup_s.push_back(1e-9 *
                        static_cast<double>(NowNs() - ep.setup_start_ns));
      if (!s.ok()) {
        tracer.set_enabled(false);
        result->mismatches.push_back("set-up failed: " + s.ToString());
        return;
      }
      const bool finished = ServeService(&stack, jobs[r], sizes, config, seed,
                                         traced, &ep, result);
      tracer.set_enabled(false);
      if (!finished) return;
      ++result->episodes;
      if (cycle == 0) {
        digests[r] = ep.digest;
      } else if (ep.digest != digests[r]) {
        result->mismatches.push_back("realization " + std::to_string(r) +
                                     " digest " + ep.digest + " != " +
                                     digests[r] + " of its first episode");
      }
      served_s += ep.serve_s;
      (traced ? traced_runs : plain)
          .Add(r, ep.start_ns, ep.serve_end_ns, ep.step_us);
      if (!traced) {
        infer_p50.push_back(Quantile(ep.infer_us, 0.50));
        infer_p99.push_back(Quantile(ep.infer_us, 0.99));
        admit_p50.push_back(Quantile(ep.admit_us, 0.50));
        recovery_s.push_back(ep.recovery_s);
      }
      if (analyze) {
        tracer.set_enabled(true);
        ReplayFromWal(dir, seed, result);
        MeasureCholAppend(config.seed, &result->per_layer);
        tracer.set_enabled(false);
        ReportServiceLayers(ep, result);
        result->ledger.Record("write_spans",
                              tracer.WriteTsv(config.work_dir +
                                              "/spans-service_durable.tsv"));
      }
      if (traced) tracer.Clear();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    if (served_s >= config.seconds && cycle >= 1) break;
  }
  result->digest = CombineDigests(digests);

  probe.push_back(RefLoopMs());
  MetricSink& e2e = result->end_to_end;
  for (const std::string& line : plain.Describe()) {
    result->notes.push_back(line);
  }
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("decisions_per_s", plain.dps(), "1/s");
  e2e.Set("decision_us_p50", plain.p50_us(), "us");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  MetricSink& pl = result->per_layer;
  // The service-only user-facing timings, from the untraced episodes.
  pl.Set("platform.infer_us_p50", Median(infer_p50), "us");
  pl.Set("platform.infer_us_p99", Median(infer_p99), "us");
  pl.Set("platform.admit_us_p50", Median(admit_p50), "us");
  pl.Set("wal.recovery_s", Median(recovery_s), "s");
  if (pl.Has("wal.replayed_records") &&
      pl.values().at("wal.replayed_records").first > 0) {
    pl.Set("wal.replay_us_per_record",
           1e6 * Median(recovery_s) /
               pl.values().at("wal.replayed_records").first,
           "us");
  }
  pl.Set("host.ref_loop_ms", Median(probe), "ms");
  if (config.trace) {
    pl.Set("trace.overhead_pct",
           100.0 * (plain.median_dps() / traced_runs.median_dps() - 1.0),
           "%");
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "service: infer_us_p50 %.3f infer_us_p99 %.3f admit_us_p50 "
                "%.3f recovery_s %.4f (untraced episodes)",
                Median(infer_p50), Median(infer_p99), Median(admit_p50),
                Median(recovery_s));
  result->notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "inputs: %d realizations of %d+%d jobs, %d decisions per "
                "episode",
                realizations, sizes.initial_jobs, sizes.arrivals,
                sizes.decisions);
  result->notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host.ref_loop_ms before %.3f after %.3f; %d episodes, %zu "
                "set-ups",
                probe.front(), probe.back(), result->episodes, setup_s.size());
  result->notes.push_back(line);
}

}  // namespace perfbench
