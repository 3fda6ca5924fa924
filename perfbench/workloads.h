#ifndef EASEML_PERFBENCH_WORKLOADS_H_
#define EASEML_PERFBENCH_WORKLOADS_H_

// The three workloads and the pieces they share: run configuration, the
// result record, the belief replay into gp/bandit side objects, and the
// per-layer analysis of a traced episode.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gp/shared_prior_gp.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every phase runs, at a few hundred decisions.
  bool tiny = false;
  /// Scratch directory inside the checkout (WAL files, span dumps).
  std::string work_dir;
  /// Fault injection for the benchmark's self-tests.
  bool flip_recovered_byte = false;
  bool inject_failing_call = false;
};

struct RunResult {
  OpLedger ledger;
  MetricSink end_to_end;
  MetricSink per_layer;
  /// Correctness mismatches; any entry fails the run.
  std::vector<std::string> mismatches;
  /// Digest of the realizations' decision traces (repeated episodes of a
  /// realization must agree).
  std::string digest;
  int episodes = 0;
  /// Named gaps and human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

/// Digest of the default seed's decision trace per workload and size;
/// empty when none is pinned for that combination.
std::string PinnedDigest(const std::string& workload, bool tiny);
constexpr uint64_t kDefaultSeed = 1;

void RunFleetGreedy(const RunConfig& config, RunResult* result);
void RunPaperK179(const RunConfig& config, RunResult* result);
void RunServiceDurable(const RunConfig& config, RunResult* result);

// --- Shared machinery --------------------------------------------------------

/// One served decision as the replays need it: the tenant's outcome and the
/// decision ids the replayed select and observe belong to. In the engine
/// workloads decision d is Report(d-1) + Next(d), so the observe of
/// assignment d-1 belongs to decision d; in the service one Step holds the
/// Next and the Report of the same assignment.
struct ReplayEvent {
  int tenant = 0;
  int model = 0;
  double accuracy = 0.0;
  int64_t select_decision = -1;
  int64_t observe_decision = -1;
};

struct ReplayTenant {
  std::shared_ptr<const easeml::gp::SharedGpPrior> prior;
  std::vector<double> costs;
};

struct BeliefReplayStats {
  double belief_bytes = 0.0;
  double observe_ns = 0.0;
  double sum_t2 = 0.0;
  int64_t arm_mismatches = 0;
};

/// Replays `events` in order into one `bandit::GpUcbPolicy` over a
/// `gp::SharedPriorGp` per tenant, spanning SelectArm (bandit.select),
/// Observe (gp.observe) and AllMarginals (gp.marginals). The replayed arm
/// must equal the served one; every disagreement is counted.
BeliefReplayStats ReplayBeliefs(const std::vector<ReplayTenant>& tenants,
                                const std::vector<ReplayEvent>& events,
                                double delta, bool cost_aware,
                                OpLedger* ledger);

/// Times `linalg::Cholesky::Append` at factor sizes 64 and 179 (batches of
/// appends on copies of one factor; per-append medians) into `out`.
void MeasureCholAppend(uint64_t seed, MetricSink* out);

/// Per-decision sums of the spans of one traced episode, by decision id.
struct DecisionBreakdown {
  double decision = 0.0;   // client span (Report+Next, or the Step)
  double next = 0.0;       // live core.next (engine workloads)
  double report = 0.0;     // live core.report (engine workloads)
  double step = 0.0;       // live platform.step (service)
  double hooks = 0.0;      // wal + obs decorator spans (any thread)
  double report_hooks = 0.0;  // the part of `hooks` inside core.report
  double select = 0.0;     // replayed bandit.select
  double observe = 0.0;    // replayed gp.observe
  double marginals = 0.0;  // replayed gp.marginals
  double replay_next = 0.0;    // side-engine Next (service)
  double replay_report = 0.0;  // side-engine Report (service)
  bool has_decision = false;
};

/// Groups the tracer's spans with start time in [from_ns, to_ns] (and all
/// replay spans) by decision id.
std::vector<DecisionBreakdown> BreakDown(int64_t from_ns, int64_t to_ns,
                                         int64_t num_decisions);

/// Durations (µs) of every span of `kind` starting in [from_ns, to_ns].
std::vector<double> SpanDurations(Span kind, int64_t from_ns, int64_t to_ns);

/// Fills the layer metrics every workload derives the same way (core,
/// scheduler, bandit, gp, obs/wal hook spans, the accounting check) from a
/// breakdown, and names the accounting gap when it exceeds 10%.
void DeriveLayerMetrics(const std::vector<DecisionBreakdown>& rows,
                        bool service, RunResult* result);

/// Derived seed of realization `r` of a run: every run serves several input
/// realizations, so one unlucky draw moves its medians less.
inline uint64_t RealizationSeed(uint64_t seed, int r) {
  return seed * 1000 + static_cast<uint64_t>(r);
}

}  // namespace perfbench

#endif  // EASEML_PERFBENCH_WORKLOADS_H_
