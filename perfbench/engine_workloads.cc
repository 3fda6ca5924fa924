// fleet_greedy and paper_k179: the selector engine driven directly by one
// closed-loop client (D=1: the next assignment is asked for only after the
// previous one is reported).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_tenant_selector.h"
#include "data/classifier179.h"
#include "data/deeplearning.h"
#include "data/model_features.h"
#include "gp/hyperparameter_tuner.h"
#include "workloads.h"

namespace perfbench {

namespace {

using easeml::Result;
using easeml::Status;
using easeml::core::MultiTenantSelector;
using easeml::core::SchedulerKind;
using easeml::core::SelectorOptions;

// Sizes. At 2e4 tenants the fleet's steady state cost about 1 ms per
// decision (the index descent) and one episode lasted 39 s; 2000 tenants
// keep an episode under half a second.
constexpr int kFleetTenants = 2000;
constexpr int kFleetRealizations = 3;
constexpr int kPaperRealizations = 1;
// Set-up time measured before each episode (see TimeSetUps).
constexpr double kSetupSecondsPerEpisode = 0.01;

/// One engine campaign: the generated inputs plus the engine configuration.
struct EngineCampaign {
  SelectorOptions options;
  std::shared_ptr<const easeml::gp::SharedGpPrior> prior;
  std::vector<std::vector<double>> costs;     // per tenant
  std::vector<std::vector<double>> accuracy;  // per tenant, per model
  int64_t decisions = 0;                      // Next calls per episode
  bool to_exhaustion = false;
};

/// The correlated prior `core::RunProtocol` builds from training logs: an
/// RBF kernel over per-model quality vectors (scaled by 1/sqrt(dim)), 1e-8
/// jitter, and a constant mean equal to the global mean quality. The
/// hyperparameters are the runner's defaults (its path with tuning off):
/// tuning per seed made the steady-state pick cost swing by +-30% between
/// seeds, which the run-to-run bounds could not absorb.
Result<std::shared_ptr<const easeml::gp::SharedGpPrior>> PriorFromLogs(
    const easeml::data::Dataset& ds, const std::vector<int>& train_users) {
  EASEML_ASSIGN_OR_RETURN(auto features,
                          easeml::data::ComputeModelFeatures(ds, train_users));
  const double scale =
      1.0 / std::sqrt(static_cast<double>(features.front().size()));
  for (auto& f : features) {
    for (double& v : f) v *= scale;
  }
  EASEML_ASSIGN_OR_RETURN(
      double global_mean,
      easeml::data::ComputeGlobalMeanQuality(ds, train_users));
  easeml::gp::TunedHyperparameters hp;
  hp.family = easeml::gp::KernelFamily::kRbf;
  hp.length_scale = 0.2;
  hp.signal_variance = 0.05;
  hp.noise_variance = 1e-3;
  EASEML_ASSIGN_OR_RETURN(easeml::linalg::Matrix gram,
                          hp.MakeKernel()->BuildGram(features));
  gram.AddToDiagonal(1e-8);
  return easeml::gp::MakeSharedGpPrior(
      std::move(gram), hp.noise_variance,
      std::vector<double>(ds.num_models(), global_mean));
}

void TenantRows(const easeml::data::Dataset& ds, int user,
                EngineCampaign* campaign) {
  std::vector<double> costs(ds.num_models());
  std::vector<double> acc(ds.num_models());
  for (int m = 0; m < ds.num_models(); ++m) {
    costs[m] = ds.cost(user, m);
    acc[m] = ds.quality(user, m);
  }
  campaign->costs.push_back(std::move(costs));
  campaign->accuracy.push_back(std::move(acc));
}

struct EngineEpisode {
  double serve_s = 0.0;
  int64_t decisions = 0;
  std::vector<double> latency_us;
  std::vector<int64_t> start_ns;  // per decision
  std::string digest;
  int64_t setup_start_ns = 0;
  int64_t serve_start_ns = 0;
  int64_t serve_end_ns = 0;
  std::vector<ReplayEvent> events;
};

Result<std::unique_ptr<MultiTenantSelector>> SetUp(
    const EngineCampaign& c, OpLedger* ledger) {
  auto created = MultiTenantSelector::Create(c.options);
  if (!ledger->Record("create", created.status())) return created.status();
  auto engine = std::make_unique<MultiTenantSelector>(std::move(created).value());
  for (const auto& costs : c.costs) {
    Result<int> id = Status::Internal("unset");
    {
      ScopedSpan span(Span::kAddTenant);
      id = engine->AddTenant(c.prior, costs);
    }
    if (!ledger->Record("add_tenant", id.status())) return id.status();
  }
  return engine;
}

/// Serves one episode on `engine`. Decision d is Report(d-1) + Next(d), timed
/// as one closed-loop round trip; the trailing Report of the last assignment
/// belongs to the serving phase but not to any decision.
void Serve(MultiTenantSelector& engine, const EngineCampaign& c,
           const RunConfig& config, bool keep_events, EngineEpisode* ep,
           RunResult* result) {
  Tracer& tracer = Tracer::Get();
  TraceDigest digest;
  ep->latency_us.reserve(c.decisions);
  ep->start_ns.reserve(c.decisions);
  if (keep_events) ep->events.reserve(c.decisions);
  int64_t next_failed = 0, report_failed = 0, reports = 0;
  Status first_failure;
  MultiTenantSelector::Assignment prev;
  double prev_acc = 0.0;
  ep->serve_start_ns = NowNs();
  int64_t d = 0;
  for (; d < c.decisions; ++d) {
    tracer.set_decision(d);
    Status report_status;
    Result<MultiTenantSelector::Assignment> next = Status::Internal("unset");
    const int64_t t0 = NowNs();
    {
      ScopedSpan decision(Span::kDecision);
      if (d > 0) {
        ScopedSpan span(Span::kReport);
        report_status = engine.Report(prev, prev_acc);
      }
      ScopedSpan span(Span::kNext);
      next = engine.Next();
    }
    const int64_t t1 = NowNs();
    if (d > 0) {
      ++reports;
      if (!report_status.ok()) {
        ++report_failed;
        if (first_failure.ok()) first_failure = report_status;
      }
    }
    if (!next.ok()) {
      ++next_failed;
      if (first_failure.ok()) first_failure = next.status();
      break;
    }
    ep->latency_us.push_back(1e-3 * static_cast<double>(t1 - t0));
    ep->start_ns.push_back(t0);
    prev = *next;
    prev_acc = c.accuracy[prev.tenant][prev.model];
    digest.Add(prev.tenant, prev.model);
    if (keep_events) {
      ep->events.push_back({prev.tenant, prev.model, prev_acc, d, d + 1});
    }
  }
  if (next_failed == 0 && d > 0) {
    tracer.set_decision(d);
    ScopedSpan span(Span::kReport);
    const Status s = engine.Report(prev, prev_acc);
    ++reports;
    if (!s.ok()) {
      ++report_failed;
      if (first_failure.ok()) first_failure = s;
    }
  }
  ep->serve_end_ns = NowNs();
  tracer.set_decision(-1);
  ep->decisions = static_cast<int64_t>(ep->latency_us.size());
  ep->serve_s = 1e-9 * static_cast<double>(ep->serve_end_ns - ep->serve_start_ns);
  ep->digest = digest.Hex();

  // Ledger: counted in bulk so the loop above carries no map lookups.
  result->ledger.AddOk("next", ep->decisions);
  if (next_failed > 0) result->ledger.Record("next", first_failure);
  result->ledger.AddOk("report", reports - report_failed);
  for (int64_t i = 0; i < report_failed; ++i) {
    result->ledger.Record("report", first_failure);
  }
  if (next_failed > 0) {
    result->mismatches.push_back("Next failed after " + std::to_string(d) +
                                 " decisions: " + first_failure.ToString());
  }
  if (c.to_exhaustion) {
    if (!engine.Exhausted()) {
      result->mismatches.push_back("engine not exhausted after the campaign");
    }
    // The documented refusal on an exhausted engine, not a failure.
    auto extra = engine.Next();
    if (extra.ok() ||
        extra.status().code() != easeml::StatusCode::kFailedPrecondition) {
      result->ledger.Record("next", extra.ok() ? Status::Internal(
                                                     "Next served past exhaustion")
                                               : extra.status());
    } else {
      result->ledger.Refused("next");
    }
  }
  if (config.inject_failing_call) {
    // A report for a ticket that was never issued must be refused by the
    // engine and counted as a failed operation.
    MultiTenantSelector::Assignment forged{0, 0, -12345};
    result->ledger.Record("report", engine.Report(forged, 0.5));
  }
}

/// Times set-ups of `c` (each engine dropped right away) until
/// kSetupSecondsPerEpisode of set-up time has been measured, at least one.
bool TimeSetUps(const EngineCampaign& c, std::vector<double>* setup_s,
                RunResult* result) {
  double spent = 0.0;
  do {
    const int64_t t0 = NowNs();
    auto engine = SetUp(c, &result->ledger);
    setup_s->push_back(1e-9 * static_cast<double>(NowNs() - t0));
    spent += setup_s->back();
    if (!engine.ok()) {
      result->mismatches.push_back("set-up failed: " +
                                   engine.status().ToString());
      return false;
    }
  } while (spent < kSetupSecondsPerEpisode);
  return true;
}

void RunEngineCampaigns(const std::string& name,
                        const std::vector<EngineCampaign>& campaigns,
                        const RunConfig& config, RunResult* result) {
  Tracer& tracer = Tracer::Get();
  const int realizations = static_cast<int>(campaigns.size());
  std::vector<double> probe = {RefLoopMs()};

  std::vector<double> setup_s;
  CleanEpisodes plain, traced_runs;
  std::vector<std::string> digests(realizations);
  double served_s = 0.0;
  for (int cycle = 0;; ++cycle) {
    // Tracing alternates per cycle of realizations in the traced run (even:
    // off, odd: on), so the trace overhead compares the same inputs in the
    // same host period.
    const bool traced = config.trace && cycle % 2 == 1;
    for (int r = 0; r < realizations; ++r) {
      const EngineCampaign& c = campaigns[r];
      const bool analyze = traced && cycle == 1 && r == 0;
      if (analyze) tracer.Clear();
      tracer.set_enabled(traced);
      // Extra set-ups before each episode spread the set-up samples over
      // the whole run; the engines are dropped untouched.
      if (!TimeSetUps(c, &setup_s, result)) return;
      EngineEpisode ep;
      ep.setup_start_ns = NowNs();
      auto engine = SetUp(c, &result->ledger);
      setup_s.push_back(1e-9 *
                        static_cast<double>(NowNs() - ep.setup_start_ns));
      if (!engine.ok()) {
        tracer.set_enabled(false);
        result->mismatches.push_back("set-up failed: " +
                                     engine.status().ToString());
        return;
      }
      Serve(**engine, c, config, analyze, &ep, result);
      engine->reset();
      tracer.set_enabled(false);
      ++result->episodes;
      if (cycle == 0) {
        digests[r] = ep.digest;
      } else if (ep.digest != digests[r]) {
        result->mismatches.push_back("realization " + std::to_string(r) +
                                     " digest " + ep.digest + " != " +
                                     digests[r] + " of its first episode");
      }
      if (cycle == 0 && r == 0) {
        // Thirds of the first episode: for fleet_greedy the initialization
        // sweep, then the steady state the candidate index serves.
        const size_t n = ep.latency_us.size();
        const std::vector<double> sweep(ep.latency_us.begin(),
                                        ep.latency_us.begin() + n / 3);
        const std::vector<double> rest(ep.latency_us.begin() + n / 3,
                                       ep.latency_us.end());
        char line[200];
        std::snprintf(line, sizeof(line),
                      "episode 0 first third / rest: p50 %.3f / %.3f us, p99 "
                      "%.3f / %.3f us, mean %.3f / %.3f us",
                      Quantile(sweep, 0.5), Quantile(rest, 0.5),
                      Quantile(sweep, 0.99), Quantile(rest, 0.99), Mean(sweep),
                      Mean(rest));
        result->notes.push_back(line);
      }
      served_s += ep.serve_s;
      (traced ? traced_runs : plain)
          .Add(r, ep.start_ns, ep.serve_end_ns, ep.latency_us);
      if (analyze) {
        tracer.set_enabled(true);
        std::vector<ReplayTenant> tenants(c.costs.size());
        for (size_t i = 0; i < tenants.size(); ++i) {
          tenants[i] = {c.prior, c.costs[i]};
        }
        const BeliefReplayStats rs =
            ReplayBeliefs(tenants, ep.events, c.options.delta,
                          c.options.cost_aware, &result->ledger);
        MeasureCholAppend(config.seed, &result->per_layer);
        tracer.set_enabled(false);
        if (rs.arm_mismatches > 0) {
          result->mismatches.push_back(
              std::to_string(rs.arm_mismatches) +
              " replayed GP-UCB arm choices differ from the served ones");
        }
        MetricSink& pl = result->per_layer;
        pl.Set("gp.observe_ns_per_t2",
               rs.observe_ns / std::max(1.0, rs.sum_t2), "ns");
        pl.Set("gp.belief_mb", rs.belief_bytes / (1024.0 * 1024.0), "MiB");
        pl.Set("core.add_tenant_us_p50",
               Median(SpanDurations(Span::kAddTenant, ep.setup_start_ns,
                                    ep.serve_start_ns)),
               "us");
        const auto rows =
            BreakDown(ep.serve_start_ns, ep.serve_end_ns, ep.decisions);
        DeriveLayerMetrics(rows, /*service=*/false, result);
        result->ledger.Record("write_spans",
                              tracer.WriteTsv(config.work_dir + "/spans-" +
                                              name + ".tsv"));
      }
      if (traced) tracer.Clear();
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
  result->per_layer.Set("host.ref_loop_ms", Median(probe), "ms");
  if (config.trace) {
    result->per_layer.Set(
        "trace.overhead_pct",
        100.0 * (plain.median_dps() / traced_runs.median_dps() - 1.0), "%");
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "inputs: %d realizations of %zu tenants x %d models, %lld "
                "decisions per episode",
                realizations, campaigns[0].costs.size(),
                campaigns[0].prior->num_arms(),
                static_cast<long long>(campaigns[0].decisions));
  result->notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "host.ref_loop_ms before %.3f after %.3f; %d episodes, %zu "
                "set-ups",
                probe.front(), probe.back(), result->episodes, setup_s.size());
  result->notes.push_back(line);
}

}  // namespace

void RunFleetGreedy(const RunConfig& config, RunResult* result) {
  // Many small tenants (K=8, the DEEPLEARNING shape) on one correlated prior
  // from a fixed 22-user training log (the surrogate at its default seed:
  // the platform's history, the same for every run); --seed draws the
  // tenants. GREEDY with the max-UCB-gap line-8 rule over the candidate
  // index; an episode serves the initialization sweep and then twice as
  // many steady-state decisions, so the median decision sits in the steady
  // state the index descent serves.
  const int tenants = config.tiny ? 300 : kFleetTenants;
  constexpr int kTrainUsers = 22;
  easeml::data::DeepLearningOptions logs_options;
  logs_options.num_users = kTrainUsers;
  auto logs = easeml::data::GenerateDeepLearning(logs_options);
  if (!result->ledger.Record("generate", logs.status())) {
    result->mismatches.push_back(logs.status().ToString());
    return;
  }
  std::vector<int> train(kTrainUsers);
  for (int i = 0; i < kTrainUsers; ++i) train[i] = i;
  auto prior = PriorFromLogs(*logs, train);
  if (!result->ledger.Record("prior", prior.status())) {
    result->mismatches.push_back(prior.status().ToString());
    return;
  }
  std::vector<EngineCampaign> campaigns;
  for (int r = 0; r < (config.tiny ? 2 : kFleetRealizations); ++r) {
    easeml::data::DeepLearningOptions dl;
    dl.num_users = tenants;
    dl.seed = RealizationSeed(config.seed, r);
    auto ds = easeml::data::GenerateDeepLearning(dl);
    if (!result->ledger.Record("generate", ds.status())) {
      result->mismatches.push_back(ds.status().ToString());
      return;
    }
    EngineCampaign c;
    c.prior = *prior;
    for (int u = 0; u < ds->num_users(); ++u) TenantRows(*ds, u, &c);
    c.options.scheduler = SchedulerKind::kGreedy;
    c.options.use_candidate_index = true;
    c.options.seed = dl.seed;
    c.decisions = 3 * static_cast<int64_t>(tenants);
    campaigns.push_back(std::move(c));
  }
  RunEngineCampaigns("fleet_greedy", campaigns, config, result);
}

void RunPaperK179(const RunConfig& config, RunResult* result) {
  // Few tenants, many models: the 179CLASSIFIER surrogate (121 users x 179
  // models, U(0,1) costs). The prior is the model-feature kernel over a
  // fixed 121-user training log (the surrogate at its default seed); --seed
  // draws the tenants, replicated to 484 so the per-tenant factors outgrow
  // the last-level cache. HYBRID, run to exhaustion.
  const int users = config.tiny ? 4 : 121;
  const int replicas = config.tiny ? 1 : 4;
  easeml::data::Classifier179Options logs_options;
  logs_options.num_users = users;
  auto logs = easeml::data::GenerateClassifier179(logs_options);
  if (!result->ledger.Record("generate", logs.status())) {
    result->mismatches.push_back(logs.status().ToString());
    return;
  }
  std::vector<int> train(users);
  for (int i = 0; i < users; ++i) train[i] = i;
  auto prior = PriorFromLogs(*logs, train);
  if (!result->ledger.Record("prior", prior.status())) {
    result->mismatches.push_back(prior.status().ToString());
    return;
  }
  std::vector<EngineCampaign> campaigns;
  for (int r = 0; r < (config.tiny ? 2 : kPaperRealizations); ++r) {
    easeml::data::Classifier179Options opts;
    opts.num_users = users;
    opts.seed = RealizationSeed(config.seed, r);
    auto ds = easeml::data::GenerateClassifier179(opts);
    if (!result->ledger.Record("generate", ds.status())) {
      result->mismatches.push_back(ds.status().ToString());
      return;
    }
    EngineCampaign c;
    c.prior = *prior;
    for (int rep = 0; rep < replicas; ++rep) {
      for (int u = 0; u < users; ++u) TenantRows(*ds, u, &c);
    }
    c.options.scheduler = SchedulerKind::kHybrid;
    c.options.use_candidate_index = true;
    c.options.seed = opts.seed;
    c.decisions = static_cast<int64_t>(users) * replicas * ds->num_models();
    c.to_exhaustion = true;
    campaigns.push_back(std::move(c));
  }
  RunEngineCampaigns("paper_k179", campaigns, config, result);
}

}  // namespace perfbench
