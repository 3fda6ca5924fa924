// The per-layer machinery every workload shares: the belief replay into
// gp/bandit side objects, the Cholesky::Append microbench, and the analysis
// that turns one traced episode's spans into layer metrics and the
// accounting check.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bandit/gp_ucb.h"
#include "common/rng.h"
#include "linalg/cholesky.h"
#include "workloads.h"

namespace perfbench {

using easeml::Result;
using easeml::Status;

BeliefReplayStats ReplayBeliefs(const std::vector<ReplayTenant>& tenants,
                                const std::vector<ReplayEvent>& events,
                                double delta, bool cost_aware,
                                OpLedger* ledger) {
  Tracer& tracer = Tracer::Get();
  BeliefReplayStats stats;
  struct Side {
    std::unique_ptr<easeml::bandit::GpUcbPolicy> policy;
    easeml::gp::SharedPriorGp* belief = nullptr;  // owned by `policy`
    std::vector<char> played;
    int rounds = 0;
  };
  std::vector<Side> sides(tenants.size());
  std::vector<int> available;
  for (const ReplayEvent& e : events) {
    Side& side = sides[e.tenant];
    if (side.policy == nullptr) {
      const ReplayTenant& t = tenants[e.tenant];
      auto belief = easeml::gp::SharedPriorGp::CreateUnique(t.prior);
      if (!ledger->Record("replay_create", belief.status())) continue;
      side.belief = belief->get();
      easeml::bandit::GpUcbOptions ucb;
      ucb.delta = delta;
      ucb.cost_aware = cost_aware;
      if (cost_aware) ucb.costs = t.costs;
      auto policy = easeml::bandit::GpUcbPolicy::CreateUnique(
          std::move(belief).value(), std::move(ucb));
      if (!ledger->Record("replay_create", policy.status())) continue;
      side.policy = std::move(policy).value();
      side.played.assign(t.prior->num_arms(), 0);
    }
    available.clear();
    for (int k = 0; k < static_cast<int>(side.played.size()); ++k) {
      if (!side.played[k]) available.push_back(k);
    }
    Result<int> arm = Status::Internal("unset");
    tracer.set_decision(e.select_decision);
    {
      ScopedSpan span(Span::kReplaySelect);
      arm = side.policy->SelectArm(available, side.rounds + 1);
    }
    if (!ledger->Record("replay_select", arm.status()) || *arm != e.model) {
      ++stats.arm_mismatches;
    }
    tracer.set_decision(e.observe_decision);
    const int64_t o0 = NowNs();
    Status observed;
    {
      ScopedSpan span(Span::kReplayObserve);
      observed = side.belief->Observe(e.model, e.accuracy);
    }
    stats.observe_ns += static_cast<double>(NowNs() - o0);
    ledger->Record("replay_observe", observed);
    {
      ScopedSpan span(Span::kReplayMarginals);
      side.belief->AllMarginals();
    }
    side.played[e.model] = 1;
    ++side.rounds;
    stats.sum_t2 += static_cast<double>(side.rounds) * side.rounds;
  }
  tracer.set_decision(-1);
  for (const Side& side : sides) {
    if (side.belief != nullptr) {
      stats.belief_bytes += static_cast<double>(side.belief->ApproxMemoryBytes());
    }
  }
  return stats;
}

void MeasureCholAppend(uint64_t seed, MetricSink* out) {
  // A 179x179 RBF Gram over seeded random 8-d points (plus the noise
  // ridge): the shape of the 179CLASSIFIER prior, built without it so every
  // workload measures the identical kernel.
  constexpr int kDim = 179;
  easeml::Rng rng(seed ^ 0x5eedc401ull);
  std::vector<std::vector<double>> pts(kDim, std::vector<double>(8));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Uniform();
  }
  easeml::linalg::Matrix gram(kDim, kDim);
  for (int i = 0; i < kDim; ++i) {
    for (int j = 0; j < kDim; ++j) {
      double d2 = 0.0;
      for (int k = 0; k < 8; ++k) {
        d2 += (pts[i][k] - pts[j][k]) * (pts[i][k] - pts[j][k]);
      }
      gram(i, j) = std::exp(-d2 / 0.5) + (i == j ? 1e-3 : 0.0);
    }
  }
  // Factors are grown one row at a time, as a tenant's belief grows, so
  // the packed storage has the capacity history of the live fold; a batch
  // of such factors of size t-1 then each takes the t-th row, timed
  // together.
  constexpr int kBatch = 16;
  constexpr int kBatches = 12;
  auto row = [&gram](int i) {
    std::vector<double> b(i);
    for (int j = 0; j < i; ++j) b[j] = gram(i, j);
    return b;
  };
  for (int t : {64, 179}) {
    const std::vector<double> last = row(t - 1);
    std::vector<double> per_append;
    for (int r = 0; r < kBatches; ++r) {
      std::vector<easeml::linalg::Cholesky> factors(kBatch);
      bool built = true;
      for (auto& f : factors) {
        for (int i = 0; i < t - 1 && built; ++i) {
          built = f.Append(row(i), gram(i, i)).ok();
        }
      }
      if (!built) break;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(Span::kCholAppend);
        for (auto& f : factors) (void)f.Append(last, gram(t - 1, t - 1));
      }
      per_append.push_back(1e-3 * static_cast<double>(NowNs() - t0) / kBatch);
    }
    out->Set("linalg.chol_append_us_t" + std::to_string(t), Median(per_append),
             "us");
  }
}

std::vector<double> SpanDurations(Span kind, int64_t from_ns, int64_t to_ns) {
  std::vector<double> out;
  const auto k = static_cast<uint8_t>(kind);
  for (const ThreadSpans* b : Tracer::Get().Buffers()) {
    for (const SpanRecord& s : b->spans) {
      if (s.kind == k && s.start_ns >= from_ns && s.start_ns <= to_ns) {
        out.push_back(s.us());
      }
    }
  }
  return out;
}

std::vector<DecisionBreakdown> BreakDown(int64_t from_ns, int64_t to_ns,
                                         int64_t num_decisions) {
  std::vector<DecisionBreakdown> rows(num_decisions);
  for (const ThreadSpans* b : Tracer::Get().Buffers()) {
    // Root kind of each span (parents precede children in a buffer), so hook
    // spans are attributed to the client call they ran under.
    std::vector<uint8_t> parent_kind(b->spans.size(), 0xff);
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      if (s.parent >= 0) parent_kind[i] = b->spans[s.parent].kind;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      if (s.decision < 0 || s.decision >= num_decisions) continue;
      DecisionBreakdown& row = rows[s.decision];
      const auto kind = static_cast<Span>(s.kind);
      const bool live = s.start_ns >= from_ns && s.start_ns <= to_ns;
      switch (kind) {
        case Span::kDecision:
          if (live) {
            row.decision += s.us();
            row.has_decision = true;
          }
          break;
        case Span::kNext:
          if (live) row.next += s.us();
          break;
        case Span::kReport:
          if (live) row.report += s.us();
          break;
        case Span::kStep:
          if (live) row.step += s.us();
          break;
        case Span::kWalAppend:
        case Span::kWalSync:
        case Span::kObsHook:
          // Top-level hook spans only: a hook nested in another hook (none
          // today) would otherwise count twice.
          if (live && (parent_kind[i] == 0xff ||
                       parent_kind[i] == static_cast<uint8_t>(Span::kNext) ||
                       parent_kind[i] == static_cast<uint8_t>(Span::kReport) ||
                       parent_kind[i] == static_cast<uint8_t>(Span::kStep))) {
            row.hooks += s.us();
            if (parent_kind[i] == static_cast<uint8_t>(Span::kReport)) {
              row.report_hooks += s.us();
            }
          }
          break;
        case Span::kReplaySelect:
          row.select += s.us();
          break;
        case Span::kReplayObserve:
          row.observe += s.us();
          break;
        case Span::kReplayMarginals:
          row.marginals += s.us();
          break;
        case Span::kReplayNext:
          row.replay_next += s.us();
          break;
        case Span::kReplayReport:
          row.replay_report += s.us();
          break;
        default:
          break;
      }
    }
  }
  return rows;
}

void DeriveLayerMetrics(const std::vector<DecisionBreakdown>& rows,
                        bool service, RunResult* result) {
  MetricSink& pl = result->per_layer;
  std::vector<double> next, report, pick, outcome, step_self, decision;
  std::vector<double> select, observe, marginals, hooks;
  for (size_t d = 0; d < rows.size(); ++d) {
    const DecisionBreakdown& r = rows[d];
    if (!r.has_decision) continue;
    const double core_next = service ? r.replay_next : r.next;
    const double core_report = service ? r.replay_report : r.report;
    // The first engine decision has no Report; every other decision has one.
    const bool has_report = service || d > 0;
    decision.push_back(r.decision);
    next.push_back(core_next);
    pick.push_back(core_next - r.select);
    select.push_back(r.select);
    hooks.push_back(r.hooks);
    if (has_report) {
      report.push_back(core_report);
      outcome.push_back(core_report - r.observe - r.marginals -
                        (service ? 0.0 : r.report_hooks));
      observe.push_back(r.observe);
      marginals.push_back(r.marginals);
    }
    if (service) {
      step_self.push_back(r.step - r.replay_next - r.replay_report - r.hooks);
    }
  }
  pl.Set("core.next_us_p50", Quantile(next, 0.5), "us");
  pl.Set("core.next_us_p99", Quantile(next, 0.99), "us");
  pl.Set("core.report_us_p50", Quantile(report, 0.5), "us");
  pl.Set("core.report_us_p99", Quantile(report, 0.99), "us");
  pl.Set("scheduler.pick_us_p50", Quantile(pick, 0.5), "us");
  pl.Set("scheduler.pick_us_p99", Quantile(pick, 0.99), "us");
  pl.Set("scheduler.outcome_us_p50", Quantile(outcome, 0.5), "us");
  pl.Set("bandit.select_us_p50", Quantile(select, 0.5), "us");
  pl.Set("gp.observe_us_p50", Quantile(observe, 0.5), "us");
  pl.Set("gp.observe_us_p99", Quantile(observe, 0.99), "us");
  pl.Set("gp.marginals_us_p50", Quantile(marginals, 0.5), "us");
  if (service) {
    pl.Set("platform.step_self_us_p50", Quantile(step_self, 0.5), "us");
  }

  // Accounting: the mean decision against the sum of the mean layer self
  // times (each clamped at zero per decision, so a replay that outruns the
  // live call shows up as a gap instead of cancelling another layer).
  const double n_dec = static_cast<double>(decision.size());
  const double per_decision = 1.0 / std::max(1.0, n_dec);
  auto share_sum = [&](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += std::max(0.0, x);
    return s * per_decision;
  };
  const double decision_mean = Mean(decision);
  struct Layer {
    const char* name;
    double mean_us;
  };
  std::vector<Layer> layers = {
      {"scheduler.pick", share_sum(pick)},
      {"bandit.select", share_sum(select)},
      {"scheduler.outcome", share_sum(outcome)},
      {"gp.observe", share_sum(observe)},
      {"gp.marginals", share_sum(marginals)},
      {"wal+obs hooks", share_sum(hooks)},
  };
  if (service) layers.push_back({"platform.step_self", share_sum(step_self)});
  double attributed = 0.0;
  for (const Layer& l : layers) attributed += l.mean_us;
  const double gap_pct =
      decision_mean > 0.0 ? 100.0 * (decision_mean - attributed) / decision_mean
                          : 0.0;
  pl.Set("trace.unattributed_pct", gap_pct, "%");
  pl.Set("trace.gp_bandit_share_pct",
         decision_mean > 0.0
             ? 100.0 * (share_sum(select) + share_sum(observe) +
                        share_sum(marginals)) /
                   decision_mean
             : 0.0,
         "%");
  char line[200];
  std::snprintf(line, sizeof(line),
                "accounting: decision mean %.3f us over %zu decisions, "
                "layers sum %.3f us, gap %.1f%%",
                decision_mean, decision.size(), attributed, gap_pct);
  result->notes.push_back(line);
  for (const Layer& l : layers) {
    std::snprintf(line, sizeof(line), "  layer %-20s mean %10.3f us  %5.1f%%",
                  l.name, l.mean_us,
                  decision_mean > 0 ? 100.0 * l.mean_us / decision_mean : 0.0);
    result->notes.push_back(line);
  }
  if (std::fabs(gap_pct) > 10.0) {
    result->notes.push_back(
        std::string("accounting gap above 10%: ") +
        (service ? "the Step time the side-engine replay does not cover "
                   "(training simulation, task pool, service lock) is "
                   "platform.step_self; the rest is the client loop"
                 : "the client loop between spans (accuracy lookup, timer "
                   "reads, trace bookkeeping) and replays that outran the "
                   "live call"));
  }
}


}  // namespace perfbench
